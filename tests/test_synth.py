"""The synthetic stand-in table (tests/synth.py): its bytes, the CDF draw
that stands in for `Generator.choice`, and the label's probability.

Every Tier-1 table, the golden listing and every benchmark input is drawn
from this module, so its output is pinned by hash: a rewrite that keeps
the draws keeps these digests.
"""

import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

import synth

PINNED_SHA256 = {
    (383, 20240915): "22815fe5ef677e1676eb8137cd9b5d088aa2f8fc27eddf42abd0c6c5ce3a4ac8",
    (120, 3): "dbc82449de71a275208e5b0e8870876fb9eb7240408747056240939245032cf8",
    (5000, 11): "ff6bd2f042df072a4ebdd34bdd67de6df8e3bcd226d0bd47cb8761c4dfc78d84",
}


@pytest.mark.parametrize(("n", "seed"), sorted(PINNED_SHA256))
def test_table_bytes_are_pinned(n, seed):
    text = synth.generate_csv(n, seed)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SHA256[n, seed]


def test_csv_lists_generate_rows(tmp_path):
    header, rows = synth.generate_rows(120, 3)
    text = synth.generate_csv(120, 3)
    assert text.splitlines() == [",".join(cells) for cells in [header, *rows]]
    synth.write_csv(tmp_path / "t.csv", n=120, seed=3)
    assert (tmp_path / "t.csv").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize(("p", "cdf"), [(synth.THYROID_FUNCTION_P, synth.THYROID_FUNCTION_CDF),
                                        (synth.PATHOLOGY_P, synth.PATHOLOGY_CDF)],
                         ids=["thyroid-function", "pathology"])
def test_cdf_draw_is_generator_choice(p, cdf):
    """Twin generators: each CDF draw picks what `choice(k, p=p)` picks, and
    takes as many numbers from the stream, so the next draws agree too."""
    draws = 100_000
    ours, numpys = np.random.default_rng(7), np.random.default_rng(7)
    drawn = [bisect_right(cdf, ours.random()) for _ in range(draws)]
    chosen = [int(numpys.choice(len(p), p=p)) for _ in range(draws)]
    assert drawn == chosen
    assert set(drawn) == set(range(len(p)))
    assert ours.random() == numpys.random()


class TestTrueProbability:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_inside_the_open_unit_interval(self, seed):
        _, rows = synth.generate_rows(383, seed)
        assert all(0.0 < synth.true_probability(row) < 1.0 for row in rows)

    def test_mean_matches_the_label_rate(self):
        _, rows = synth.generate_rows(10_000, 20240915)
        p = np.array([synth.true_probability(row) for row in rows])
        yes = np.array([row[-1] == "Yes" for row in rows])
        # the Yes count is a sum of independent Bernoulli(p_i) draws
        standard_error = math.sqrt(float(np.sum(p * (1.0 - p)))) / len(rows)
        assert abs(p.mean() - yes.mean()) < 3.0 * standard_error

    def test_a_worse_response_raises_it(self):
        _, rows = synth.generate_rows(50, 3)
        at = synth.COLUMNS.index("Response")
        for row in rows:
            excellent, structural = list(row), list(row)
            excellent[at], structural[at] = "Excellent", "Structural Incomplete"
            assert synth.true_probability(structural) > synth.true_probability(excellent)

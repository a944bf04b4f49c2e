"""Deterministic synthetic stand-in for the thyroid recurrence CSV.

Mirrors the UCI file's shape: 16 columns (Age numeric, the rest categorical
with realistic vocabularies), a binary "Recurred" target, 383 rows and a
roughly 28% positive rate. Clinical severity drives several features jointly,
with treatment Response carrying the strongest signal and Stage next, so
models trained on it produce the expected metric and sensitivity-ranking
behavior. Used by tests whenever the real dataset file is not available.

Its tables are pinned by sha256 in tests/test_synth.py: a rewrite keeps
every generator call, in order and with the same arguments.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

import numpy as np

COLUMNS = [
    "Age", "Gender", "Smoking", "Hx Smoking", "Hx Radiotherapy",
    "Thyroid Function", "Physical Examination", "Adenopathy", "Pathology",
    "Focality", "Risk", "T", "N", "M", "Stage", "Response",
]
TARGET = "Recurred"

THYROID_FUNCTION = ["Clinical Hyperthyroidism", "Clinical Hypothyroidism",
                    "Euthyroid", "Subclinical Hyperthyroidism",
                    "Subclinical Hypothyroidism"]
PHYSICAL_EXAM = ["Diffuse goiter", "Multinodular goiter", "Normal",
                 "Single nodular goiter-left", "Single nodular goiter-right"]
ADENOPATHY = ["No", "Right", "Left", "Posterior", "Bilateral", "Extensive"]
PATHOLOGY = ["Micropapillary", "Papillary", "Follicular", "Hurthel cell"]
FOCALITY = ["Uni-Focal", "Multi-Focal"]
RISK = ["Low", "Intermediate", "High"]
T_STAGE = ["T1a", "T1b", "T2", "T3a", "T3b", "T4a", "T4b"]
N_STAGE = ["N0", "N1a", "N1b"]
M_STAGE = ["M0", "M1"]
STAGE = ["I", "II", "III", "IVA", "IVB"]
RESPONSE = ["Excellent", "Indeterminate", "Biochemical Incomplete",
            "Structural Incomplete"]

RESPONSE_EFFECT = {"Excellent": -2.4, "Indeterminate": -1.1,
                   "Biochemical Incomplete": 1.6, "Structural Incomplete": 3.2}
STAGE_EFFECT = {"I": -0.8, "II": 0.0, "III": 0.7, "IVA": 1.1, "IVB": 1.5}
RISK_EFFECT = {"Low": -0.6, "Intermediate": 0.3, "High": 1.0}
T_EFFECT = {"T1a": -0.5, "T1b": -0.3, "T2": -0.1, "T3a": 0.3, "T3b": 0.5,
            "T4a": 0.7, "T4b": 0.9}
N_EFFECT = {"N0": -0.3, "N1a": 0.3, "N1b": 0.5}
M_EFFECT = {"M0": -0.1, "M1": 1.3}
ADENO_EFFECT = {"No": -0.3, "Right": 0.3, "Left": 0.3, "Posterior": 0.2,
                "Bilateral": 0.6, "Extensive": 0.9}


def _cdf(p: list[float]) -> list[float]:
    """The cumulative probabilities `Generator.choice(k, p=p)` computes:
    `bisect_right(cdf, rng.random())` picks the index that choice picks,
    by the same single draw, as its `searchsorted(side="right")` does."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


THYROID_FUNCTION_P = [0.05, 0.03, 0.82, 0.02, 0.08]
PATHOLOGY_P = [0.12, 0.74, 0.08, 0.06]
THYROID_FUNCTION_CDF = _cdf(THYROID_FUNCTION_P)
PATHOLOGY_CDF = _cdf(PATHOLOGY_P)


def _ordinal_draw(ordered: list[str], severity: float, noise: float,
                  rng: np.random.Generator) -> str:
    """Pick a category whose rank tracks the latent severity, with noise."""
    k = len(ordered)
    pos = severity * (k - 1) + rng.normal(0.0, noise)
    return ordered[min(max(round(pos), 0), k - 1)]


def true_probability(row: list[str]) -> float:
    """P(Recurred = Yes) given a generated row's cells, in COLUMNS order (a
    trailing target cell is ignored): the probability `generate_rows` draws
    the label from. It depends on nothing but the row."""
    cell = dict(zip(COLUMNS, row))
    logit = (2.2 * RESPONSE_EFFECT[cell["Response"]]
             + 0.8 * STAGE_EFFECT[cell["Stage"]]
             + 0.5 * RISK_EFFECT[cell["Risk"]]
             + 0.35 * T_EFFECT[cell["T"]]
             + 0.3 * ADENO_EFFECT[cell["Adenopathy"]]
             + 0.45 * M_EFFECT[cell["M"]]
             + 0.2 * N_EFFECT[cell["N"]]
             + 0.15 * (1.0 if cell["Focality"] == "Multi-Focal" else -0.2)
             + 0.004 * (int(cell["Age"]) - 45))
    # np.exp, not math.exp: the two may differ in the last bit, and a label
    # drawn near the threshold would then flip
    return float(1.0 / (1.0 + np.exp(-(1.5 * logit + 0.6))))


def iter_rows(n: int = 383, seed: int = 20240915) -> Iterator[list[str]]:
    """The synthetic table's rows, one at a time (cells, then the target)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = rng.beta(1.6, 3.2)   # latent severity, skewed toward low risk
        age = min(max(round(rng.normal(38.0 + 18.0 * s, 13.0)), 15), 82)
        gender = "M" if rng.random() < 0.18 + 0.1 * s else "F"
        smoking = "Yes" if rng.random() < 0.10 + 0.1 * s else "No"
        hx_smoking = "Yes" if rng.random() < 0.07 else "No"
        hx_rt = "Yes" if rng.random() < 0.02 + 0.04 * s else "No"
        thyroid_fn = THYROID_FUNCTION[bisect_right(THYROID_FUNCTION_CDF, rng.random())]
        phys = _ordinal_draw(PHYSICAL_EXAM, s, 1.6, rng)
        adeno = _ordinal_draw(ADENOPATHY, s * 0.9, 1.0, rng)
        pathology = PATHOLOGY[bisect_right(PATHOLOGY_CDF, rng.random())]
        focality = "Multi-Focal" if rng.random() < 0.2 + 0.4 * s else "Uni-Focal"
        risk = _ordinal_draw(RISK, s, 0.55, rng)
        t = _ordinal_draw(T_STAGE, s, 1.1, rng)
        n_cat = _ordinal_draw(N_STAGE, s, 0.7, rng)
        m = "M1" if rng.random() < max(0.0, s - 0.55) * 0.5 else "M0"
        stage = _ordinal_draw(STAGE, s, 0.7, rng)
        response = _ordinal_draw(RESPONSE, s, 0.32, rng)

        row = [str(age), gender, smoking, hx_smoking, hx_rt, thyroid_fn,
               phys, adeno, pathology, focality, risk, t, n_cat, m,
               stage, response]
        row.append("Yes" if rng.random() < true_probability(row) else "No")
        yield row


def generate_rows(n: int = 383, seed: int = 20240915) -> tuple[list[str], list[list[str]]]:
    """Return (header, rows) for the synthetic recurrence table."""
    return COLUMNS + [TARGET], list(iter_rows(n, seed))


def _line(cells: list[str]) -> str:
    return ",".join(f'"{v}"' if "," in v else v for v in cells) + "\n"


def generate_csv(n: int = 383, seed: int = 20240915) -> str:
    return _line(COLUMNS + [TARGET]) + "".join(map(_line, iter_rows(n, seed)))


def write_csv(path, n: int = 383, seed: int = 20240915) -> None:
    """Write the table to path, each line as its row is drawn."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_line(COLUMNS + [TARGET]))
        fh.writelines(map(_line, iter_rows(n, seed)))

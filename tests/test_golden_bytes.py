"""`scripts/golden_bytes.py`, the byte-identity listing, still runs.

The digests are machine-bound (BLAS build, CPU), so only the shape of the
listing is checked: exit 0 and one `sha256  path` line per emitted file,
exactly the expected paths. A renamed CLI flag or output file fails here.
"""

import re

from test_tooling import ROOT, run_tool

EXPECTED = sorted(
    [f"seed{s}/{name}" for s in (1, 7) for name in (
        "eval_report.json", "explanation.json", "explanation_bars.csv", "history.csv",
        "model.json", "sensitivity.csv", "sensitivity.json", "sensitivity_scatter.csv",
        "train_report.json")]
    + [f"seed7/{sub}/{name}" for sub in ("row0", "row200")
       for name in ("explanation.json", "explanation_bars.csv")]
    + [f"seed7/levels6/{name}" for name in
       ("sensitivity.csv", "sensitivity.json", "sensitivity_scatter.csv")]
    + [f"paper/{name}" for name in ("history.csv", "model.json", "train_report.json")])


def test_golden_bytes_lists_every_emitted_file():
    done = run_tool(ROOT / "scripts" / "golden_bytes.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ", 1)[1] for line in lines] == EXPECTED

"""`scripts/golden_bytes.py`: the byte-identity listing still runs, and the
emitted values match the committed fixture.

The digests are machine-bound (BLAS build, CPU), so only the shape of the
digest listing is checked: exit 0 and one `sha256  path` line per emitted
file, exactly the expected paths. A renamed CLI flag or output file fails
here. The values are checked against `tests/golden_values.txt`: non-float
values exactly and floats within the listing's tolerance, in-process and in
child processes under another numpy SIMD dispatch and another OpenBLAS
kernel. A PR that moves a value regenerates the fixture with
`python3 scripts/golden_bytes.py --values > tests/golden_values.txt` and
says in CHANGES.md which values moved and why.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from test_cli import AVX512_DISPATCH, numpy_dispatches
from test_tooling import ROOT, run_tool

sys.path.insert(0, str(ROOT / "scripts"))
import golden_bytes  # noqa: E402

FIXTURE = ROOT / "tests" / "golden_values.txt"

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


def test_values_match_the_fixture():
    fixture = FIXTURE.read_text().splitlines()
    assert [line[3:] for line in fixture if line.startswith("== ")] == EXPECTED
    assert golden_bytes.compare(fixture, golden_bytes.collect(values=True)) == []


def _has_avx2() -> bool:
    from numpy._core import _multiarray_umath as umath
    return all(umath.__cpu_features__.get(f) for f in ("AVX2", "FMA3"))


@pytest.mark.parametrize("env_vars", [
    {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_DISPATCH)},
    {"OPENBLAS_CORETYPE": "Haswell"},
], ids=["no-avx512", "haswell"])
def test_values_hold_across_dispatch(env_vars):
    """Under either setting most of the 28 files change bytes; their values
    must stay within the tolerance."""
    if "NPY_DISABLE_CPU_FEATURES" in env_vars and not numpy_dispatches(AVX512_DISPATCH):
        pytest.skip("numpy dispatches to no AVX-512 kernel on this host")
    if "OPENBLAS_CORETYPE" in env_vars and not _has_avx2():
        pytest.skip("OpenBLAS's Haswell kernels need AVX2 and FMA3")
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env.update(env_vars, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "golden_bytes.py"),
                           "--values"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert golden_bytes.compare(FIXTURE.read_text().splitlines(),
                                done.stdout.splitlines()) == []


def _changed(value):
    """A value of the same JSON kind that differs from value."""
    if type(value) is bool:
        return not value
    if type(value) in (int, str):
        return value + type(value)(1)
    return 0 if value is None else {"x": 0} if value == {} else [0]


def test_compare_reports_every_changed_value():
    """Every non-float value changed, and every float moved by 1e-6 of
    itself, is reported line by line, except floats within 1e-6 of 0: there
    the absolute 1e-12 of the tolerance exceeds the change. A move of 1e-11
    of itself is reported nowhere."""
    fixture = FIXTURE.read_text().splitlines()
    assert golden_bytes.compare(fixture, fixture) == []
    values = {i: json.loads(line.split(" ", 1)[1]) for i, line in enumerate(fixture)
              if not line.startswith("== ")}
    floats = {i for i, v in values.items() if type(v) is float}

    def changed(change, lines) -> list[str]:
        copy = list(fixture)
        for i in lines:
            copy[i] = f"{fixture[i].split(' ', 1)[0]} {json.dumps(change(values[i]))}"
        return golden_bytes.compare(fixture, copy)

    others = set(values) - floats
    assert len(changed(_changed, others)) == len(others) > 500
    visible = {i for i in floats if abs(values[i]) > 1.001e-6}
    assert len(changed(lambda v: v * (1 + 1e-6), visible)) == len(visible) > 500
    assert changed(lambda v: v * (1 + 1e-6), floats - visible) == []
    assert changed(lambda v: v * (1 + 1e-11), floats) == []
    assert len(golden_bytes.compare(fixture, fixture[:-1])) == 1

"""Span recorder and layer wrappers for the thyrec benchmark.

The wrappers live here, outside the package: each wrapped function is
replaced on its defining module and on every loaded thyrec module that
imported it by name (for example `thyrec.cli` imports `load_csv`, `train`,
`explain`, `analyze` and `load_model`), so every call path is timed alike.
Spans are kept in memory and written once, as JSON lines, when the traced
process is done.

A span is a dict with `id`, `name`, `start`, `end` (time.perf_counter, which
is CLOCK_MONOTONIC on Linux and so comparable across processes), `parent`,
`request` and `attrs` (per-call counts such as rows or samples).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, request: str, parent: str | None = None):
        self.request = request          # request id stamped on new spans
        self.parent = parent            # parent of spans opened with an empty stack
        self.enabled = True
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self.request}#{os.getpid()}.{self._next}"

    @contextmanager
    def span(self, name: str):
        """Open a span; yields its attrs dict, which the caller may fill."""
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else self.parent
        attrs: dict = {}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "request": self.request,
                               "attrs": attrs})

    @property
    def current(self) -> str | None:
        return self._stack[-1] if self._stack else self.parent

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (e.g. an import before the
        wrappers existed)."""
        self.spans.append({"id": self._new_id(), "name": name, "start": start,
                           "end": end, "parent": self.current,
                           "request": self.request, "attrs": {}})

    def write(self, path: str, header: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- per-call counts -------------------------------------------------------

def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _backward_counts(args, kwargs, result):
    from thyrec.neural import BCE_EPS
    p = args[1].probs
    inside = int(((p > BCE_EPS) & (p < 1.0 - BCE_EPS)).sum())
    return {"rows": len(p), "clamped": len(p) - inside}


def _sample_counts(args, kwargs, result):
    return {"samples": int(args[1])}


def _morris_counts(args, kwargs, result):
    r, _, d = args[1].shape
    measurable = d - int(args[2].degenerate.sum())
    return {"model_evals": r * (d + 1), "steps": r * d, "useful_steps": r * measurable}


def _loaded_rows(args, kwargs, result):
    return {"rows": len(result)}


def _artifact_bytes(path_arg):
    def counts(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return counts


def _is_train_mode(args, kwargs):
    return bool(kwargs.get("train", args[2] if len(args) > 2 else False))


# (module, function, span name, counts(args, kwargs, result) or None,
#  when(args, kwargs) or None). Inference-mode `forward` is not a span of its
# own: it is the whole body of `predict_proba`, traced as neural.predict.
LAYERS = [
    ("thyrec.neural", "train", "neural.train", None, None),
    ("thyrec.neural", "forward", "neural.forward_train", None, _is_train_mode),
    ("thyrec.neural", "backward", "neural.backward", _backward_counts, None),
    ("thyrec.neural", "adam_step", "neural.adam_step", None, None),
    ("thyrec.neural", "predict_proba", "neural.predict", _rows, None),
    ("thyrec.lime", "explain", "lime.explain", None, None),
    ("thyrec.lime", "fit_discretizer", "lime.fit_discretizer", None, None),
    ("thyrec.lime", "build_stats", "lime.build_stats", None, None),
    ("thyrec.lime", "sample_perturbations", "lime.sample", _sample_counts, None),
    ("thyrec.lime", "fit_surrogate", "lime.fit_surrogate", None, None),
    ("thyrec.morris", "analyze", "morris.analyze", None, None),
    ("thyrec.morris", "generate_trajectories", "morris.trajectories", None, None),
    ("thyrec.morris", "elementary_effects", "morris.evaluate", _morris_counts, None),
    ("thyrec.morris", "aggregate", "morris.aggregate", None, None),
    ("thyrec.data", "load_csv", "data.load_csv", _loaded_rows, None),
    ("thyrec.data", "encode_with_schema", "data.encode", None, None),
    ("thyrec.data", "split", "data.split", None, None),
    ("thyrec.data", "stratified_split", "data.split", None, None),
    ("thyrec.data", "split_digest", "data.split", None, None),
    ("thyrec.data", "fit_scaler", "data.scaler", None, None),
    ("thyrec.data", "apply_scaler", "data.scaler", None, None),
    ("thyrec.persist", "save_model", "persist.save", _artifact_bytes(1), None),
    ("thyrec.persist", "load_model", "persist.load", _artifact_bytes(0), None),
    ("thyrec.metrics", "confusion", "metrics", None, None),
    ("thyrec.metrics", "compute_metrics", "metrics", None, None),
    ("thyrec.cli", "cmd_train", "cli.train", None, None),
    ("thyrec.cli", "cmd_evaluate", "cli.evaluate", None, None),
    ("thyrec.cli", "cmd_explain", "cli.explain", None, None),
    ("thyrec.cli", "cmd_sensitivity", "cli.sensitivity", None, None),
]


def _wrap(tracer: Tracer, fn, name: str, counts, when):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled or (when is not None and not when(args, kwargs)):
            return fn(*args, **kwargs)
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if counts is not None:
                attrs.update(counts(args, kwargs, result))
            return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a loaded thyrec module holds it."""
    import thyrec.cli  # noqa: F401  (loads every thyrec module)
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "thyrec" or n.startswith("thyrec."))]
    for mod_name, fn_name, span_name, counts, when in LAYERS:
        original = getattr(sys.modules[mod_name], fn_name)
        wrapper = _wrap(tracer, original, span_name, counts, when)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


# --- summaries ---------------------------------------------------------------

# The span whose subtree a predict call runs in names the caller it is
# attributed to; predicts under none of them belong to the CLI command itself.
PREDICT_CALLERS = {"neural.train": "train", "lime.explain": "lime",
                   "morris.analyze": "morris"}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _predict_caller(span: dict, by_id: dict[str, dict]) -> str:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] in PREDICT_CALLERS:
            return PREDICT_CALLERS[parent["name"]]
        parent = by_id.get(parent["parent"])
    return "cli"


def layer_table(spans: list[dict]) -> list[tuple[str, float, int]]:
    """(span name, total self seconds, calls), largest self time first."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + own[s["id"]]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    return sorted(((n, total[n], calls[n]) for n in total), key=lambda t: -t[1])


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer metrics, per operation, from one run's spans.

    Self times and counts are totals divided by `ops`; ratios are pooled over
    the run; cli.import_s is the median over fresh imports.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    total: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    imports = []
    for s in spans:
        name, attrs = s["name"], s["attrs"]
        if name == "cli.import":
            imports.append(s["end"] - s["start"])
        elif name == "neural.predict":
            key = f"neural.predict.{_predict_caller(s, by_id)}"
            add(key + ".self_s", own[s["id"]])
            add(key + ".calls", 1)
            add(key + ".rows", attrs["rows"])
        else:
            add(name + ".self_s", own[s["id"]])
        if name == "neural.backward":
            add("neural.batch_rows", attrs["rows"])
            add("neural.clamped_rows", attrs["clamped"])
        elif name == "neural.adam_step":
            add("neural.steps", 1)
        elif name == "lime.sample":
            add("lime.samples", attrs["samples"])
        elif name == "morris.evaluate":
            add("morris.model_evals", attrs["model_evals"])
            add("morris.steps", attrs["steps"])
            add("morris.useful_steps", attrs["useful_steps"])
        elif name == "data.load_csv":
            add("data.rows", attrs["rows"])
        elif name in ("persist.save", "persist.load"):
            add("persist.artifact_bytes", attrs["bytes"])

    out = {key: value / ops for key, value in total.items()}
    if imports:
        out["cli.import_s"] = statistics.median(imports)
    if total.get("neural.batch_rows"):
        out["neural.clamped_row_frac"] = total["neural.clamped_rows"] / total["neural.batch_rows"]
    if total.get("morris.steps"):
        out["morris.useful_eval_frac"] = total["morris.useful_steps"] / total["morris.steps"]
    return out

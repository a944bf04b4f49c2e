"""Local, model-agnostic explanations for single predictions.

The instance is perturbed in an interpretable binary space: per feature,
an entry is 1 iff the perturbed sample falls in the same quartile bin
(continuous features) or category (label-encoded features) as the instance.
A kernel-weighted ridge regression fit to the black box's outputs on those
perturbations yields per-feature contribution weights.

Each perturbed cell is a training value drawn uniformly and independently,
so perturbed rows lie on the training manifold; a draw in the instance's
bin keeps the instance's value. Only drawn cells are binned, so the cost of
sampling does not grow with the training rows. Row 0 is the instance
itself, and the model's output on it is the reported P(class=1).

An explanation's (num_samples, d) arrays live in per-thread buffers from
`neural.thread_buffers`, reused by the thread's next explanation of the same
shape: the interpretable samples as bool, and two float arrays. The first
holds the model-space samples until the model has scored them, then the
surrogate's centred design; the second holds a float copy of the
interpretable samples, then the weighted design. That is
2 * num_samples * d * 8 + num_samples * d bytes, about 1.4 MB at 5,000
samples and 16 features.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import NUMERIC, DataError, FeatureSchema, Scaler, decode_category
from .neural import PREDICT_ROWS, model_outputs, thread_buffers


@dataclass
class LimeConfig:
    """How `explain` samples, weighs and fits its local surrogate."""
    num_samples: int = 5000
    kernel_width: float | None = None   # default 0.75 * sqrt(d), set at explain time
    num_features: int = 10
    ridge_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 10:
            raise ValueError("num_samples must be >= 10")
        if self.num_samples >= 2**63:    # numpy sizes an array in int64
            raise ValueError("num_samples must be < 2**63")
        width = self.kernel_width   # exp(-d^2 / width^2) needs 0 < width^2 < inf
        if width is not None and not (0.0 < width and 0.0 < width * width < math.inf):
            raise ValueError(f"kernel_width must be > 0 and square to a finite number "
                             f"> 0, not {width!r}")
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if not 0.0 <= self.ridge_lambda < math.inf:
            raise ValueError("ridge_lambda must be a finite number >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def bin_codes(edges: np.ndarray | None, values: np.ndarray | float):
    """Bin keys of one feature's values: the values themselves for a
    categorical feature (edges None), otherwise the quartile bin index 0-3,
    with a value on an edge falling in the lower bin."""
    if edges is None:
        return values
    return np.searchsorted(edges, values, side="left")


class PerturbationStats:
    """What perturbations are drawn from: the training rows, and the bin
    edges that say which drawn values fall in the instance's bin."""
    def __init__(self, edges: list[np.ndarray | None], X_train: np.ndarray):
        self.edges = edges         # from fit_discretizer
        self.X_train = X_train     # (n, d) training rows, model space


@dataclass
class Explanation:
    """One row's explanation: its class probabilities and the surrogate's weights and fit."""
    instance_index: int
    class_probabilities: tuple[float, float]
    feature_weights: list[tuple[str, float]]   # sorted by |weight| descending
    intercept: float
    local_r2: float
    surrogate_prediction: float

    def as_dict(self) -> dict:
        """The explanation.json shape: feature weights as {"feature", "weight"} objects."""
        return {**asdict(self), "feature_weights": [{"feature": f, "weight": w}
                                                    for f, w in self.feature_weights]}


QUARTILES = np.array([0.25, 0.5, 0.75])


def _quartiles(col: np.ndarray) -> np.ndarray:
    """np.quantile(col, QUARTILES) bit for bit (its linear rule on the order
    statistics), without the numpy.ma import that np.quantile pulls in."""
    pos = (len(col) - 1) * QUARTILES
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, len(col) - 1)
    s = np.partition(col, np.concatenate([lo, hi]))
    a, b, t = s[lo], s[hi], pos - lo
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def fit_discretizer(X_train: np.ndarray,
                    schema: FeatureSchema | None) -> list[np.ndarray | None]:
    """Quartile edges (q25, q50, q75) per continuous feature, computed with
    the linear-interpolation quantile rule on the training rows; None for a
    categorical feature. Without a schema every feature is continuous. Fewer
    than 4 rows raise DataError, which the CLI reports with exit 3."""
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.shape[0] < 4:
        raise DataError("need at least 4 training rows to fit quartiles")
    d = X_train.shape[1]
    kinds = [NUMERIC] * d if schema is None else [f.kind for f in schema.features]
    return [_quartiles(X_train[:, j]) if kind == NUMERIC else None
            for j, kind in enumerate(kinds)]


def build_stats(X_train: np.ndarray, edges: list[np.ndarray | None]) -> PerturbationStats:
    """The training rows as float64, with their edges. No per-cell table is
    built: the sampler bins only the training values it draws."""
    return PerturbationStats(edges=edges, X_train=np.asarray(X_train, dtype=np.float64))


def sample_perturbations(instance: np.ndarray, n: int, stats: PerturbationStats,
                         rng: np.random.Generator,
                         out: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Draw n perturbed samples around the instance.

    Returns (Z, Z_model): Z is the n x d bool interpretable matrix whose
    first row is the instance itself (all True); Z_model holds the matching
    float64 model-space rows. Every other cell takes the value of an
    independently drawn training row; where that value's bin matches the
    instance's, Z is True and the model value is the instance's own,
    otherwise Z is False.

    The training rows are one (n - 1, d) stream of rng.integers, drawn in
    blocks of PREDICT_ROWS rows (the same numbers as one whole draw); each
    block becomes flat indices into the (n_train, d) training rows in place,
    and one np.take gathers the drawn values. A categorical cell's bin code
    is its value, so it is compared with the instance's value; only the
    numeric columns are binned, with `bin_codes`. `out`, C-contiguous (n, d)
    arrays of bool and float64, receives (Z, Z_model) and is returned;
    without it they are fresh.
    """
    if n < 2:
        raise ValueError("need n >= 2 perturbations")
    instance = np.asarray(instance, dtype=np.float64).ravel()
    d = instance.shape[0]
    numeric = [(j, e, bin_codes(e, instance[j])) for j, e in enumerate(stats.edges)
               if e is not None]
    Z, Zm = (np.empty((n, d), dtype=bool), np.empty((n, d))) if out is None else out
    Z[0], Zm[0] = True, instance
    cols = np.arange(d)
    for lo in range(1, n, PREDICT_ROWS):
        z, zm = Z[lo:lo + PREDICT_ROWS], Zm[lo:lo + PREDICT_ROWS]
        flat = rng.integers(0, len(stats.X_train), size=z.shape)
        flat *= d
        flat += cols
        # every index is in range, and mode "raise" would copy through a temporary out
        np.take(stats.X_train, flat, out=zm, mode="clip")
        np.equal(zm, instance, out=z)    # right for the categorical columns
        for j, e, code in numeric:
            np.equal(bin_codes(e, zm[:, j]), code, out=z[:, j])
        np.copyto(zm, instance, where=z)
    return Z, Zm


def kernel_weight(distance: np.ndarray | float, width: float) -> np.ndarray | float:
    """exp(-distance^2 / width^2) over Euclidean distance between
    interpretable rows; a quotient that overflows is a weight of 0."""
    with np.errstate(over="ignore"):
        return np.exp(-np.square(distance) / (width * width))


def _buffers(n: int, d: int) -> list[np.ndarray]:
    """This thread's LIME buffers, three (n, d) arrays: the bool
    interpretable samples of `explain`; the model-space samples, whose
    buffer `fit_surrogate` reuses for the centred design once the model has
    scored them; and the weighted design of `fit_surrogate`, whose buffer
    first holds a float copy of the interpretable samples. Reused, because
    fresh arrays per call raised explain-serve's explain p50 from 4.5 to
    5.4 ms on a 2-vCPU Xeon."""
    return [*thread_buffers("lime.z", [(n, d)], dtype=bool),
            *thread_buffers("lime", [(n, d)] * 2)]


def fit_surrogate(Z: np.ndarray, sample_weights: np.ndarray, targets: np.ndarray,
                  ridge_lambda: float) -> tuple[np.ndarray, float, float]:
    """Weighted ridge regression with an unpenalized intercept.

    Solves (Zc' W Zc + lambda I) beta = Zc' W yc after weighted centering.
    Weights are normalized to mean 1 first, so scaling all weights by a
    constant leaves the fit unchanged. Returns (coefficients, intercept,
    weighted R^2 of the fit). Z is the 0/1 design, bool or float. Its float
    copy, the centred and the weighted design are written into this
    thread's two float LIME buffers (see `_buffers`), so Z must not be
    either of them.
    """
    Z = np.asarray(Z)
    w = np.asarray(sample_weights, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if not (Z.shape[0] == w.shape[0] == y.shape[0]):
        raise ValueError("Z rows, weights and targets must have equal length")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be >= 0 with at least one > 0")
    d = Z.shape[1]
    wn = w / w.mean()
    sw = wn / wn.sum()
    _, Zc, ZcW = _buffers(*Z.shape)
    np.copyto(Zc, Z)   # the design as floats, centred in place below
    z_bar = sw @ Zc
    y_bar = float(sw @ y)
    np.subtract(Zc, z_bar, out=Zc)
    yc = y - y_bar
    ZcW_T = np.multiply(Zc, wn[:, None], out=ZcW).T
    A = ZcW_T @ Zc + ridge_lambda * np.eye(d)
    rhs = ZcW_T @ yc
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(A) < d:
        raise ValueError("rank-deficient design with lambda = 0")
    beta = np.linalg.solve(A, rhs)
    intercept = y_bar - float(z_bar @ beta)
    np.copyto(ZcW, Z)   # the design as floats again, for the fitted values
    residual = y - (ZcW @ beta + intercept)
    ss_res = float(wn @ np.square(residual))
    ss_tot = float(wn @ np.square(yc))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return beta, intercept, min(max(r2, 0.0), 1.0)


def _descriptor(j: int, instance: np.ndarray, edges: np.ndarray | None,
                schema: FeatureSchema | None, scaler: Scaler | None) -> str:
    """The instance's category or quartile bin of feature j, in the table's
    units: codes and bin edges are mapped back through the scaler."""
    name = schema.features[j].name if schema is not None else f"f{j}"

    def unscale(v):
        return v if scaler is None else v * scaler.stds[j] + scaler.means[j]

    if edges is None:     # categorical, so a schema is present
        return f"{name} = {decode_category(schema, j, unscale(instance[j]))}"
    b = bin_codes(edges, instance[j])
    if b == 0:
        return f"{name} <= {unscale(edges[0]):.2f}"
    if b == len(edges):
        return f"{name} > {unscale(edges[-1]):.2f}"
    return f"{unscale(edges[b - 1]):.2f} < {name} <= {unscale(edges[b]):.2f}"


def explain(predict_fn, instance: np.ndarray, X_train: np.ndarray,
            config: LimeConfig, schema: FeatureSchema | None = None,
            scaler: Scaler | None = None, instance_index: int = -1) -> Explanation:
    """Explain one prediction of a black-box P(class=1) function.

    Pipeline: discretize the training data, sample perturbations around the
    instance, weight them by kernel distance in interpretable space, fit the
    ridge surrogate, keep the num_features largest |coefficient| entries.
    Deterministic for a fixed config.seed.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    instance = np.asarray(instance, dtype=np.float64).ravel()
    d = X_train.shape[1]
    if instance.shape[0] != d:
        raise ValueError(f"instance has {instance.shape[0]} features, training data {d}")
    rng = np.random.default_rng(config.seed)
    edges = fit_discretizer(X_train, schema)
    stats = build_stats(X_train, edges)
    Z, Zm, Zf = _buffers(config.num_samples, d)
    sample_perturbations(instance, config.num_samples, stats, rng, out=(Z, Zm))
    width = config.kernel_width if config.kernel_width is not None else 0.75 * math.sqrt(d)
    # Euclidean distance to the all-ones instance row; Z is 0/1, so the sum of
    # squared differences is the count of zeros, d minus the row sum. The row
    # sums are exact as a float product of a 0/1 copy with ones, which is
    # faster than Z.sum(axis=1) on bool or float.
    np.copyto(Zf, Z)
    distance = np.sqrt(d - Zf @ np.ones(d))
    weights = kernel_weight(distance, width)
    differs = distance > 0
    if differs.any() and not weights[differs].any():   # a weighted fit of the row alone
        raise ValueError(f"kernel_width {width!r} gives weight 0 to every perturbed "
                         f"sample that differs from the row")
    targets = model_outputs(predict_fn, Zm)   # row 0: the instance
    coefs, intercept, r2 = fit_surrogate(Z, weights, targets, config.ridge_lambda)
    order = np.argsort(-np.abs(coefs), kind="stable")
    feature_weights = [(_descriptor(j, instance, edges[j], schema, scaler), float(coefs[j]))
                       for j in order[:config.num_features]]
    p1 = float(targets[0])
    return Explanation(
        instance_index=instance_index,
        class_probabilities=(1.0 - p1, p1),
        feature_weights=feature_weights,
        intercept=intercept,
        local_r2=r2,
        # the surrogate at the instance (all ones), summed in the listed order so
        # that with every feature listed it is exactly intercept + their weights
        surrogate_prediction=intercept + sum(coefs[order].tolist()),
    )

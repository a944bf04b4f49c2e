"""Morris elementary-effects global sensitivity screening.

Trajectories are built on a p-level grid in the unit hypercube and mapped
affinely onto the observed range of each (standardized) training feature.
Each step perturbs exactly one coordinate by the grid step delta; the
elementary effect is the finite-difference slope of the model output along
that step. Per feature, mu is the mean effect, mu_star the mean absolute
effect and sigma the sample standard deviation across trajectories.

A screen draws its random stream in three whole-array calls (every base
point, every direction, every order) and builds all trajectories with one
broadcast. The model sees every point in one call. Consecutive points of a
trajectory differ in one coordinate only, so comparing them finds the
coordinate each step moved. The trajectories and their mapped points, each
r * (d + 1) * d floats, live in per-thread buffers from
`neural.thread_buffers`, reused by the thread's next screen of the same
shape (about 0.43 MB at 100 trajectories of 16 features).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .neural import model_outputs, thread_buffers


@dataclass
class MorrisConfig:
    """The grid's levels, the number of trajectories and the seed of a screen."""
    levels: int = 4
    trajectories: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.levels < 2 or self.levels % 2 != 0:
            raise ValueError("levels must be even and >= 2")
        if self.levels > sys.float_info.max:    # effective_delta divides it as a float
            raise ValueError("levels is too large for a float")
        for name in ("levels", "trajectories"):   # numpy sizes an array in int64
            if getattr(self, name) >= 2**63:
                raise ValueError(f"{name} must be < 2**63")
        if self.trajectories < 2:
            raise ValueError("need at least 2 trajectories")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def effective_delta(self) -> float:
        """Grid step p / (2 (p - 1)), i.e. p / 2 levels (Morris 1991): each
        coordinate moves between a level in the lower half of the grid and its
        partner in the upper half, so all p levels are sampled equally often."""
        return self.levels / (2.0 * (self.levels - 1))


class FeatureRanges:
    """Observed per-feature (lo, hi) bounds; features with hi - lo below
    1e-12 are flagged degenerate and probed at the constant lo."""
    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi

    @property
    def degenerate(self) -> np.ndarray:
        return (self.hi - self.lo) < 1e-12

    def map_unit(self, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """lo + U * span, written into `out` when given."""
        span = np.where(self.degenerate, 0.0, self.hi - self.lo)
        X = np.multiply(U, span, out=out)
        return np.add(self.lo, X, out=X)


class MorrisResult:
    def __init__(self, feature_names: list[str], mu: np.ndarray, mu_star: np.ndarray,
                 sigma: np.ndarray, trajectories: int, degenerate: np.ndarray):
        self.feature_names = feature_names
        self.mu, self.mu_star, self.sigma = mu, mu_star, sigma
        self.trajectories = trajectories
        self.degenerate = degenerate    # per feature: screened at a constant, EE = 0

    @property
    def ranking(self) -> list[str]:
        """Names sorted by mu_star descending, ties in schema order."""
        return [self.feature_names[j] for j in np.argsort(-self.mu_star, kind="stable")]

    @property
    def model_evals(self) -> int:
        return self.trajectories * (len(self.feature_names) + 1)

    def as_dict(self) -> dict:
        """The sensitivity.json shape: one object per feature in schema order,
        the model evaluations and the ranking."""
        keys = ["mu", "mu_star", "sigma", "degenerate"]
        return {"features": [dict(zip(["name", *keys], row)) for row in self.table(keys)[1]],
                "model_evals": self.model_evals, "ranking": self.ranking}

    def table(self, columns: list[str]) -> tuple[list[str], list[tuple]]:
        """(header, rows) of the named per-feature arrays, one row per feature, name first."""
        values = [getattr(self, column).tolist() for column in columns]
        return ["feature", *columns], list(zip(self.feature_names, *values))


def _buffers(r: int, n: int, d: int) -> list[np.ndarray]:
    """This thread's Morris buffers for r trajectories of n points in d
    features: the (r, n, d) trajectories and their (r * n, d) model-space
    points. Reused, because fresh arrays per call raised explain-serve's
    screen p50 from 1.7 to 2.0 ms."""
    return thread_buffers("morris", [(r, n, d), (r * n, d)])


def generate_trajectories(d: int, config: MorrisConfig, rng: np.random.Generator,
                          out: np.ndarray | None = None) -> np.ndarray:
    """r trajectories of d+1 points each in [0, 1]^d.

    Base points are drawn from the grid {0, 1/(p-1), ..., 1-delta}; each
    trajectory perturbs every coordinate exactly once, by +delta or -delta,
    in a random order. The stream is three whole-array draws, in this order:
    the (r, d) base levels, the (r, d) directions and the (r, d) orders.
    `out`, an (r, d+1, d) float64 array, receives the trajectories and is
    returned; without it they are fresh.
    """
    if d < 1:
        raise ValueError("need at least one feature")
    r, p = config.trajectories, config.levels
    delta = config.effective_delta
    grid = np.arange(p) / (p - 1)
    allowed = grid[grid <= 1.0 - delta + 1e-12]
    base = allowed[rng.integers(0, len(allowed), size=(r, d))]
    up = rng.integers(0, 2, size=(r, d), dtype=bool)
    order = rng.permuted(np.broadcast_to(np.arange(d), (r, d)), axis=1)
    # a coordinate stepping down starts at base + delta and ends at base;
    # row k holds the end value of every coordinate among the first k moved
    moved = np.arange(d + 1)[:, None] > np.argsort(order, axis=1)[:, None, :]
    trajs = np.empty((r, d + 1, d)) if out is None else out
    trajs[...] = np.clip(base + delta * ~up, 0.0, 1.0)[:, None, :]
    np.copyto(trajs, np.clip(base + delta * up, 0.0, 1.0)[:, None, :], where=moved)
    return trajs


def elementary_effects(f, trajectories: np.ndarray, ranges: FeatureRanges,
                       delta: float) -> np.ndarray:
    """r x d matrix of elementary effects.

    f maps a batch of model-space rows to a vector of outputs, one finite
    value per row. It is called once, on all r * (d + 1) points, which it
    may read only during the call: they are this thread's Morris buffer.
    Bounding its memory is f's business (`neural.predict_proba` works in
    fixed blocks). The divisor is the signed configured delta, not the
    recomputed float difference, so exact-linearity identities survive in
    f64. Degenerate features get EE = 0.
    """
    r, n, d = trajectories.shape
    points = _buffers(r, n, d)[1]
    values = model_outputs(f, ranges.map_unit(trajectories.reshape(r * n, d), out=points))
    values = values.reshape(r, n)
    # the one coordinate moved at each step, then the signed step it made
    moved = np.argmax(trajectories[:, 1:] != trajectories[:, :-1], axis=2)[..., None]
    step = (np.take_along_axis(trajectories[:, 1:], moved, axis=2)
            - np.take_along_axis(trajectories[:, :-1], moved, axis=2))[..., 0]
    ee = np.zeros((r, n - 1))
    np.put_along_axis(ee, moved[..., 0], np.diff(values, axis=1) / np.copysign(delta, step),
                      axis=1)
    ee[:, ranges.degenerate] = 0.0
    return ee


def aggregate(ee: np.ndarray, feature_names: list[str],
              degenerate: np.ndarray | None = None) -> MorrisResult:
    """mu / mu_star / sigma per feature; sigma uses the sample (r-1)
    denominator. degenerate flags the features screened at a constant
    (default: none)."""
    ee = np.asarray(ee, dtype=np.float64)
    if ee.shape[0] < 2:
        raise ValueError("need at least 2 trajectories to aggregate")
    mu = ee.mean(axis=0)
    mu_star = np.abs(ee).mean(axis=0)
    sigma = ee.std(axis=0, ddof=1)
    return MorrisResult(
        feature_names=list(feature_names),
        mu=mu, mu_star=mu_star, sigma=sigma,
        trajectories=ee.shape[0],
        degenerate=(np.zeros(ee.shape[1], dtype=bool) if degenerate is None
                    else np.asarray(degenerate, dtype=bool)),
    )


def analyze(predict_fn, X_train: np.ndarray, config: MorrisConfig,
            feature_names: list[str] | None = None) -> MorrisResult:
    """Morris screening of predict_fn over the observed feature ranges.

    X_train is any set of model-space rows whose per-feature minimum and
    maximum bound the screen: the training matrix, or just its two rows of
    minima and maxima. Total model evaluations: trajectories * (d + 1), in
    one call.
    """
    X = np.asarray(X_train, dtype=np.float64)
    d = X.shape[1]
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(d)]
    if len(names) != d:
        raise ValueError(f"{len(names)} feature names for {d} features")
    rng = np.random.default_rng(config.seed)
    ranges = FeatureRanges(lo=X.min(axis=0), hi=X.max(axis=0))
    trajectories = generate_trajectories(d, config, rng,
                                         out=_buffers(config.trajectories, d + 1, d)[0])
    ee = elementary_effects(predict_fn, trajectories, ranges, config.effective_delta)
    return aggregate(ee, names, ranges.degenerate)

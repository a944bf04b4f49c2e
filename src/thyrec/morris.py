"""Morris elementary-effects global sensitivity screening.

Trajectories are built on a p-level grid in the unit hypercube and mapped
affinely onto the observed range of each (standardized) training feature.
Each step perturbs exactly one coordinate by the grid step delta; the
elementary effect is the finite-difference slope of the model output along
that step. Per feature, mu is the mean effect, mu_star the mean absolute
effect and sigma the sample standard deviation across trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteModelOutputError(ValueError):
    pass


class TooFewTrajectoriesError(ValueError):
    pass


@dataclass
class MorrisConfig:
    levels: int = 4
    trajectories: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.levels < 2 or self.levels % 2 != 0:
            raise ValueError("levels must be even and >= 2")
        if self.trajectories < 2:
            raise ValueError("need at least 2 trajectories")

    @property
    def effective_delta(self) -> float:
        """Grid step p / (2 (p - 1)), i.e. p / 2 levels (Morris 1991): each
        coordinate moves between a level in the lower half of the grid and its
        partner in the upper half, so all p levels are sampled equally often."""
        return self.levels / (2.0 * (self.levels - 1))


@dataclass
class FeatureRanges:
    """Observed per-feature (lo, hi) bounds; features with hi - lo below
    1e-12 are flagged degenerate and probed at the constant lo."""
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def from_data(cls, X: np.ndarray) -> "FeatureRanges":
        X = np.asarray(X, dtype=np.float64)
        return cls(lo=X.min(axis=0), hi=X.max(axis=0))

    @property
    def degenerate(self) -> np.ndarray:
        return (self.hi - self.lo) < 1e-12

    def map_unit(self, U: np.ndarray) -> np.ndarray:
        span = np.where(self.degenerate, 0.0, self.hi - self.lo)
        return self.lo + U * span


@dataclass
class MorrisResult:
    feature_names: list[str]
    mu: np.ndarray
    mu_star: np.ndarray
    sigma: np.ndarray
    ranking: list[str]    # names sorted by mu_star descending, ties by order


def generate_trajectories(d: int, config: MorrisConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """r trajectories of d+1 points each in [0, 1]^d.

    Base points are drawn from the grid {0, 1/(p-1), ..., 1-delta}; each
    trajectory perturbs every coordinate exactly once, by +delta or -delta,
    in a random order.
    """
    if d < 1:
        raise ValueError("need at least one feature")
    p = config.levels
    delta = config.effective_delta
    grid = np.arange(p) / (p - 1)
    allowed = grid[grid <= 1.0 - delta + 1e-12]
    trajs = np.empty((config.trajectories, d + 1, d))
    for t in range(config.trajectories):
        base = rng.choice(allowed, size=d)
        direction = rng.choice(np.array([-1.0, 1.0]), size=d)
        order = rng.permutation(d)
        # a coordinate stepping down starts at base + delta and ends at base;
        # row k holds the end value of every coordinate among the first k moved
        moved = np.arange(d + 1)[:, None] > np.argsort(order)
        trajs[t] = np.where(moved, base + delta * (direction > 0),
                            base + delta * (direction < 0))
    return np.clip(trajs, 0.0, 1.0)


def elementary_effects(f, trajectories: np.ndarray, ranges: FeatureRanges,
                       delta: float) -> np.ndarray:
    """r x d matrix of elementary effects.

    f maps a batch of model-space rows to a vector of outputs and is called
    once per trajectory on its d+1 mapped points. The divisor is the signed
    configured delta, not the recomputed float difference, so exact-linearity
    identities survive in f64. Degenerate features get EE = 0.
    """
    values = np.array([np.asarray(f(ranges.map_unit(unit)), dtype=np.float64).ravel()
                       for unit in trajectories])
    if not np.all(np.isfinite(values)):
        raise NonFiniteModelOutputError("model returned a non-finite output")
    diffs = np.diff(trajectories, axis=1)                # r x d steps x d coordinates
    moved = np.argmax(np.abs(diffs), axis=2)             # coordinate moved at each step
    step = np.take_along_axis(diffs, moved[..., None], axis=2)[..., 0]
    ee = np.zeros(moved.shape)
    np.put_along_axis(ee, moved, np.diff(values, axis=1) / np.copysign(delta, step), axis=1)
    ee[:, ranges.degenerate] = 0.0
    return ee


def aggregate(ee: np.ndarray, feature_names: list[str]) -> MorrisResult:
    """mu / mu_star / sigma per feature plus the mu_star-descending ranking
    (ties keep schema order). sigma uses the sample (r-1) denominator."""
    ee = np.asarray(ee, dtype=np.float64)
    if ee.shape[0] < 2:
        raise TooFewTrajectoriesError("need at least 2 trajectories to aggregate")
    mu = ee.mean(axis=0)
    mu_star = np.abs(ee).mean(axis=0)
    sigma = ee.std(axis=0, ddof=1)
    order = np.argsort(-mu_star, kind="stable")
    return MorrisResult(
        feature_names=list(feature_names),
        mu=mu, mu_star=mu_star, sigma=sigma,
        ranking=[feature_names[j] for j in order],
    )


def analyze(predict_fn, X_train: np.ndarray, config: MorrisConfig,
            feature_names: list[str] | None = None) -> MorrisResult:
    """Morris screening of predict_fn over the observed feature ranges.

    X_train is the training matrix in model space. Total model evaluations:
    trajectories * (d + 1).
    """
    X = np.asarray(X_train, dtype=np.float64)
    d = X.shape[1]
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(d)]
    if len(names) != d:
        raise ValueError(f"{len(names)} feature names for {d} features")
    rng = np.random.default_rng(config.seed)
    ranges = FeatureRanges.from_data(X)
    trajectories = generate_trajectories(d, config, rng)
    ee = elementary_effects(predict_fn, trajectories, ranges, config.effective_delta)
    return aggregate(ee, names)

"""Dense feed-forward binary classifier built from scratch.

Explicit forward/backward passes over ReLU hidden layers with inverted
dropout and a sigmoid output unit, trained by mini-batch Adam on clamped
binary cross-entropy. Everything is deterministic given (rng, data, config):
shuffles and dropout masks are drawn from the generator `train` gets, in a
fixed order. Every weight and bias is a view into one flat vector owned by
the MLP, and training works on that layout throughout: `backward` returns one
gradient vector shaped like it, and Adam steps it as one vector with moments
of the same shape. The forward pass works in place and caches only each
layer's input. Inference runs the forward pass over fixed blocks of
PREDICT_ROWS rows, writing each layer's activations into per-thread buffers
from `thread_buffers`: one (PREDICT_ROWS, width) buffer per layer, allocated
the first time a thread predicts with a given layout and reused by every
later call (about 1.8 MB for the 128/64/32/1 layout). Their memory is already
mapped, so a long-lived process stops faulting activation pages in on every
block. LIME and Morris keep their per-request arrays the same way.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

# Probability clamp for the loss; matches the common framework epsilon.
BCE_EPS = 1e-7

VAL_FROM_TRAIN = "train"
VAL_FROM_TEST_AS_PAPER = "test-as-paper"

# Rows per inference forward pass. Blocks start at multiples of it and all
# but the last are full, so a full block's outputs do not depend on how many
# rows follow it.
PREDICT_ROWS = 1024

# Per-thread workspace: key -> that key's list of buffers (see
# thread_buffers). Thread-local, so concurrent calls need no lock, and a
# thread's buffers are freed when the thread ends.
_workspace = threading.local()


def thread_buffers(key, shapes: list[tuple[int, ...]], dtype=np.float64) -> list[np.ndarray]:
    """This thread's buffers under `key`, one per shape in `shapes`, all of
    `dtype` (float64 unless given): allocated the first time the thread asks
    for `key`, reused while it asks with the same shapes and dtype, and
    replaced when either changes. The next call in the thread with the same
    key, shapes and dtype overwrites them, so nothing returned to a caller
    may alias them."""
    held = _workspace.__dict__.setdefault("buffers", {})
    buffers = held.get(key)
    if (buffers is None or [b.shape for b in buffers] != shapes
            or any(b.dtype != dtype for b in buffers)):
        buffers = held[key] = [np.empty(shape, dtype=dtype) for shape in shapes]
    return buffers


def model_outputs(f, X: np.ndarray) -> np.ndarray:
    """f(X) as a float64 vector with one finite value per row of X, never
    a view of X (whose buffer the caller may reuse)."""
    out = np.asarray(f(X), dtype=np.float64).ravel()
    if len(out) != len(X):
        raise ValueError(f"model returned {len(out)} outputs for {len(X)} rows")
    if not np.all(np.isfinite(out)):
        raise ValueError("model returned a non-finite output")
    return out.copy() if np.may_share_memory(out, X) else out


@dataclass
class Layer:
    W: np.ndarray          # (d_in, d_out)
    b: np.ndarray          # (d_out,)


def _param_layout(layers: list[Layer]) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """Where each of [W0, b0, W1, b1, ...] sits in the flat vector: its slice
    and its shape, in that order with no gaps."""
    layout, start = [], 0
    for layer in layers:
        for p in (layer.W, layer.b):
            layout.append((slice(start, start + p.size), p.shape))
            start += p.size
    return tuple(layout)


def _param_views(flat: np.ndarray, layout: tuple) -> list[np.ndarray]:
    """Views of `flat` shaped [W0, b0, W1, b1, ...] as `layout` places them."""
    return [flat[where].reshape(shape) for where, shape in layout]


@dataclass
class MLP:
    layers: list[Layer]            # ReLU hidden layers, then the sigmoid output
    dropout_rates: list[float]     # one rate per hidden layer
    flat: np.ndarray = field(init=False, repr=False, compare=False)   # every W and b
    layout: tuple = field(init=False, repr=False, compare=False)      # _param_layout

    def __post_init__(self):
        if len(self.dropout_rates) != len(self.layers) - 1:
            raise ValueError(f"{len(self.dropout_rates)} dropout rates for "
                             f"{len(self.layers) - 1} hidden layers")
        if not all(0.0 <= rate < 1.0 for rate in self.dropout_rates):
            raise ValueError(f"dropout rates must be in [0, 1), got {self.dropout_rates}")
        if self.layers[-1].W.shape[1] != 1:
            raise ValueError("last layer must have exactly one output unit")
        self.flat = np.concatenate([np.ravel(p) for p in self.parameters()], dtype=np.float64)
        self.layout = _param_layout(self.layers)
        views = _param_views(self.flat, self.layout)
        for layer, W, b in zip(self.layers, views[::2], views[1::2]):
            layer.W, layer.b = W, b

    @property
    def d_in(self) -> int:
        return self.layers[0].W.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Per-layer views [W0, b0, W1, b1, ...] into `flat`."""
        return [p for layer in self.layers for p in (layer.W, layer.b)]


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 32
    dropout: float = 0.5
    validation_fraction: float = 0.2
    validation_source: str = VAL_FROM_TRAIN
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a finite number > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.validation_source not in (VAL_FROM_TRAIN, VAL_FROM_TEST_AS_PAPER):
            raise ValueError(f"unknown validation_source {self.validation_source!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class AdamState:
    m: np.ndarray          # first moment, shaped like the parameter vector
    v: np.ndarray          # second moment, likewise
    t: int = 0


@dataclass
class TrainHistory:
    """Per-epoch loss/accuracy on the training set and the validation set.

    Validation entries are NaN when `train` was given no monitoring rows.
    """
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)

    def table(self) -> tuple[list[str], list[tuple]]:
        """The history.csv header and one row per epoch, numbered from 1."""
        return (["epoch", "train_loss", "train_acc", "val_loss", "val_acc"],
                list(zip(range(1, len(self) + 1), self.train_loss, self.train_accuracy,
                         self.val_loss, self.val_accuracy)))


@dataclass
class ForwardPass:
    """Cache of one forward pass, consumed by backward(). It holds only each
    layer's input: > 0 exactly where the previous ReLU was active and kept."""
    inputs: list[np.ndarray]          # input fed to each layer
    masks: list[np.ndarray | None]    # inverted-dropout mask per hidden layer
    probs: np.ndarray                 # (n,) sigmoid outputs


def init_mlp(d_in: int, hidden: list[int], seed: int, dropout: float = 0.5) -> MLP:
    """Glorot-uniform weights, zero biases, ReLU hidden layers and a single
    sigmoid output unit; the dropout rate is attached to every hidden layer."""
    if d_in < 1 or not hidden or min(hidden) < 1:
        raise ValueError("need d_in >= 1 and a non-empty hidden layout of widths >= 1")
    rng = np.random.default_rng(seed)
    dims = [d_in] + list(hidden) + [1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(W=W, b=np.zeros(fan_out)))
    return MLP(layers=layers, dropout_rates=[dropout] * len(hidden))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp
    never overflows; exp(-|z|) is the exp of both branches."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def forward(mlp: MLP, X: np.ndarray, train: bool = False,
            rng: np.random.Generator | None = None,
            out: list[np.ndarray] | None = None) -> ForwardPass:
    """Run the network on a batch.

    In train mode each hidden activation is multiplied by an inverted-dropout
    mask (Bernoulli keep-prob 1-rate, scaled by 1/(1-rate)); inference applies
    no mask and is a pure function of (mlp, X).

    `out`, for inference only, holds one C-contiguous (m, width) buffer per
    layer with m >= len(X); layer l's pre-activation and activation are
    written into out[l][:len(X)], with the same bits as a fresh array. The
    returned `inputs` then alias those buffers and are valid only until the
    next call that writes them; `probs` is always a fresh array.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != mlp.d_in:
        raise ValueError(f"dimension mismatch: X is {X.shape}, model expects (n, {mlp.d_in})")
    inputs, masks = [], []
    a = X
    last = len(mlp.layers) - 1
    for l, layer in enumerate(mlp.layers):
        inputs.append(a)
        z = a @ layer.W if out is None else np.matmul(a, layer.W, out=out[l][:len(a)])
        z += layer.b
        if l < last:
            a = np.maximum(z, 0.0, out=z)
            rate = mlp.dropout_rates[l]
            if train and rate > 0.0:
                if rng is None:
                    raise ValueError("train-mode forward with dropout needs an rng")
                keep = 1.0 - rate
                mask = (rng.random(a.shape) < keep) / keep
                a *= mask
                masks.append(mask)
            else:
                masks.append(None)
        else:
            a = _sigmoid(z)
    return ForwardPass(inputs=inputs, masks=masks, probs=a[:, 0])


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0, 1}."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def backward(mlp: MLP, cache: ForwardPass, y: np.ndarray) -> np.ndarray:
    """Exact gradient of the clamped-BCE mean as one fresh vector laid out
    like `mlp.flat`, written per layer through `_param_views` and the
    layout the MLP computed once.

    Dropout masks cached by the forward pass are applied identically here;
    rows where the output probability sits on the clamp contribute zero
    gradient (the clamp is flat there).
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if cache.probs.shape != y.shape:
        raise ValueError("stale cache: probs/targets length mismatch")
    if len(cache.inputs) != len(mlp.layers) or cache.inputs[0].shape[0] != n:
        raise ValueError("stale cache: activation shapes do not match this batch")
    p = cache.probs
    inside = (p > BCE_EPS) & (p < 1.0 - BCE_EPS)
    dz = (np.where(inside, p - y, 0.0) / n)[:, None]
    grad = np.empty_like(mlp.flat)
    views = _param_views(grad, mlp.layout)
    for l in range(len(mlp.layers) - 1, -1, -1):
        a_in = cache.inputs[l]
        np.matmul(a_in.T, dz, out=views[2 * l])
        dz.sum(axis=0, out=views[2 * l + 1])
        if l > 0:
            dz = dz @ mlp.layers[l].W.T
            if cache.masks[l - 1] is not None:
                dz *= cache.masks[l - 1]
            dz *= a_in > 0.0
    return grad


def init_adam(param: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(param), v=np.zeros_like(param), t=0)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              config: TrainConfig) -> None:
    """One Adam update of the vector `param`, in place: bias-corrected
    first/second moments, theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    Adam is elementwise, so `train` steps the whole network as `mlp.flat`."""
    if not param.shape == grad.shape == state.m.shape:
        raise ValueError(f"shape mismatch: param {param.shape}, grad {grad.shape}, "
                         f"state {state.m.shape}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    step = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += step
    v *= b2
    v += np.multiply(np.multiply(grad, 1.0 - b2, out=step), grad, out=step)
    denom = np.sqrt(np.divide(v, bc2))
    denom += config.epsilon
    np.multiply(np.divide(m, bc1, out=step), config.learning_rate, out=step)
    param -= np.divide(step, denom, out=step)


def predict_proba(mlp: MLP, X: np.ndarray) -> np.ndarray:
    """P(class=1) per row, inference mode (no dropout, deterministic).

    The rows go through `forward` in blocks X[lo:lo + PREDICT_ROWS], lo a
    multiple of PREDICT_ROWS, with the calling thread's buffers for mlp's
    layout as `out` (one set per layout, kept side by side),
    and each block's probabilities are copied into one fresh (n,) output. So
    only one block's activations exist at a time, they reuse memory earlier
    calls in the thread already touched, and nothing returned aliases them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != mlp.d_in:
        raise ValueError(f"dimension mismatch: X is {X.shape}, model expects (n, {mlp.d_in})")
    widths = tuple(layer.W.shape[1] for layer in mlp.layers)
    buffers = thread_buffers(("predict", widths), [(PREDICT_ROWS, w) for w in widths])
    probs = np.empty(len(X))
    for lo in range(0, len(X), PREDICT_ROWS):
        probs[lo:lo + PREDICT_ROWS] = forward(mlp, X[lo:lo + PREDICT_ROWS], out=buffers).probs
    return probs


def predict_label(mlp: MLP, X: np.ndarray) -> np.ndarray:
    """Hard labels at the fixed 0.5 threshold."""
    return (predict_proba(mlp, X) >= 0.5).astype(np.int64)


def _accuracy(p: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((p >= 0.5).astype(np.int64) == y))


def train(mlp: MLP, X: np.ndarray, y: np.ndarray, config: TrainConfig,
          rng: np.random.Generator, X_val: np.ndarray | None = None,
          y_val: np.ndarray | None = None) -> tuple[MLP, TrainHistory]:
    """Mini-batch Adam training on every row of X for config.epochs epochs.

    Each epoch draws an order of the rows from rng and walks it in
    sequential mini-batches, final partial batch included; the dropout
    masks come from rng too. Each epoch also scores the monitoring rows
    X_val, if any; there is no early stopping. A run whose weights or
    training loss stop being finite raises ValueError naming the first such
    epoch; numpy's overflow warnings are silenced in favour of that one
    error.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    state = init_adam(mlp.flat)
    history = TrainHistory()
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                batch = order[start:start + config.batch_size]
                cache = forward(mlp, X[batch], train=True, rng=rng)
                adam_step(mlp.flat, backward(mlp, cache, y[batch]), state, config)
            p_train = predict_proba(mlp, X)
            history.train_loss.append(bce_loss(p_train, y))
            if not (np.isfinite(mlp.flat).all() and math.isfinite(history.train_loss[-1])):
                raise ValueError(f"training diverged: non-finite weights or training loss "
                                 f"after epoch {epoch} (learning_rate {config.learning_rate:g})")
            history.train_accuracy.append(_accuracy(p_train, y))
            if X_val is not None and len(X_val) > 0:
                p_val = predict_proba(mlp, X_val)
                history.val_loss.append(bce_loss(p_val, np.asarray(y_val, dtype=np.int64)))
                history.val_accuracy.append(_accuracy(p_val, np.asarray(y_val, dtype=np.int64)))
            else:
                history.val_loss.append(float("nan"))
                history.val_accuracy.append(float("nan"))
    return mlp, history

"""Two-moons data, a one-hidden-layer MLP with hand-written backprop, and
deterministic minibatch streaming.

All randomness flows through Philox4x64 counter-based generators keyed by
(seed, stream id), so every artifact is reproducible from the seed alone:
stream 0 draws dataset noise, stream 1 draws parameter inits, stream 2+e
shuffles epoch e.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ShapeError, bounded, check_count, check_int, check_num, one_of

__all__ = [
    "Dataset",
    "MlpSpec",
    "rng_stream",
    "two_moons",
    "init_params",
    "mlp_loss_grad",
    "mlp_predict",
    "accuracy",
    "minibatch_stream",
    "epoch_permutation",
]

_M64 = (1 << 64) - 1
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_SHUFFLE_BASE = 2
ACTIVATIONS = ("tanh", "relu")
LOSSES = ("softmax_ce", "logistic", "squared")


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); same key, same draws.

    The seed is an integer; a bool or a fraction raises ConfigError. The key
    is built as uint64: from a list, NumPy would take a value at or above
    2**63 through float64 and lose its low bits.
    """
    key = np.array([check_int(seed, "seed") & _M64, stream & _M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class Dataset:
    inputs: np.ndarray   # (n, d) float64
    targets: np.ndarray  # (n,) int64 class labels or float64 regression targets
    seed: int

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles with Gaussian jitter, balanced classes.

    Class 0 walks the upper unit half-circle, class 1 the lower one shifted to
    interleave. Angles are evenly spaced, so with noise=0 every point sits
    exactly on its half-circle.
    """
    n, noise = bounded(check_int, 2)(n, "n"), bounded(check_num, 0.0)(noise, "noise")
    seed = check_int(seed, "seed")
    n_out = n // 2
    n_in = n - n_out
    th_out = np.linspace(0.0, np.pi, n_out)
    th_in = np.linspace(0.0, np.pi, n_in)
    pts = np.concatenate([
        np.column_stack([np.cos(th_out), np.sin(th_out)]),
        np.column_stack([1.0 - np.cos(th_in), 0.5 - np.sin(th_in)]),
    ])
    if noise > 0.0:
        pts = pts + rng_stream(seed, STREAM_DATA).normal(0.0, noise, size=pts.shape)
    labels = np.concatenate([np.zeros(n_out, dtype=np.int64),
                             np.ones(n_in, dtype=np.int64)])
    return Dataset(inputs=pts, targets=labels, seed=seed)


@dataclass(frozen=True)
class MlpSpec:
    """One hidden layer: in_dim -> hidden_dim (activation) -> out_dim (loss head).

    Checked when built: each size is an integer >= 1 (stored as int), and a
    ConfigError names the first field outside its domain.
    """

    in_dim: int
    hidden_dim: int
    out_dim: int
    activation: str = "tanh"   # tanh | relu
    loss: str = "logistic"     # softmax_ce | logistic | squared

    def __post_init__(self) -> None:
        for name in ("in_dim", "hidden_dim", "out_dim"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        one_of(*ACTIVATIONS)(self.activation, "activation")
        one_of(*LOSSES)(self.loss, "loss")
        if self.loss == "logistic" and self.out_dim != 1:
            raise ConfigError("logistic loss needs out_dim == 1")

    @property
    def n_params(self) -> int:
        return (self.in_dim * self.hidden_dim + self.hidden_dim
                + self.hidden_dim * self.out_dim + self.out_dim)


def _unpack(spec: MlpSpec, params: np.ndarray):
    """Views into the flat vector, packed [W1, b1, W2, b2] row-major."""
    if params.shape != (spec.n_params,):
        raise ShapeError(f"expected {spec.n_params} params, got shape {params.shape}")
    i, h, o = spec.in_dim, spec.hidden_dim, spec.out_dim
    a = 0
    w1 = params[a:a + i * h].reshape(i, h); a += i * h
    b1 = params[a:a + h]; a += h
    w2 = params[a:a + h * o].reshape(h, o); a += h * o
    b2 = params[a:a + o]
    return w1, b1, w2, b2


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Weights ~ N(0, 1/fan_in), biases zero."""
    rng = rng_stream(seed, STREAM_INIT)
    i, h, o = spec.in_dim, spec.hidden_dim, spec.out_dim
    parts = [
        rng.normal(0.0, 1.0 / np.sqrt(i), size=i * h),
        np.zeros(h),
        rng.normal(0.0, 1.0 / np.sqrt(h), size=h * o),
        np.zeros(o),
    ]
    return np.concatenate(parts)


def _forward(spec: MlpSpec, params, inputs):
    """The hidden activation and the output on a float64 batch, which is
    checked first; the activation is computed in place of the pre-activation."""
    if inputs.ndim != 2 or inputs.shape[1] != spec.in_dim:
        raise ShapeError(f"inputs must be (batch, {spec.in_dim}), got {inputs.shape}")
    if inputs.shape[0] < 1:
        raise ShapeError("empty batch")
    w1, b1, w2, b2 = _unpack(spec, params)
    hid = inputs @ w1
    hid += b1
    hid = np.tanh(hid, out=hid) if spec.activation == "tanh" else np.maximum(hid, 0.0, out=hid)
    out = hid @ w2 + b2
    return hid, out


def mlp_loss_grad(spec: MlpSpec, params: np.ndarray, inputs: np.ndarray,
                  targets: np.ndarray, grad: np.ndarray | None = None):
    """Mean loss over the batch and its gradient w.r.t. the flat params.

    Backprop is written out by hand; the loss heads use the numerically
    stable forms (max-subtracted log-softmax, softplus via log1p). Each
    layer's gradient is written through `_unpack` views straight into one
    flat vector: `grad`, a float64 (n_params,) array that shares no memory
    with params, when given, else a fresh one; that vector is returned.
    params is never written. Beside it the call holds one hidden-width
    array at batch 1, the activation (dL/dpre is built in grad's b1 slot),
    and two (B, hidden) arrays at batch B.

    inputs must be a non-empty (B, in_dim) batch, and targets hold one entry
    per row: (B,) class labels, integers in [0, out_dim), for softmax_ce;
    (B,) 0/1 targets for logistic; (B, out_dim) targets for squared, or
    (B,) or (B, 1) ones broadcast over the outputs. Any other shape raises
    ShapeError, and another label ConfigError.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if grad is None:
        grad = np.empty(spec.n_params)
    elif grad.dtype != np.float64 or np.may_share_memory(grad, params):
        raise ShapeError("grad must be a float64 array that shares no memory with params")
    dw1, db1, dw2, db2 = _unpack(spec, grad)  # checks grad's shape
    hid, out = _forward(spec, params, inputs)
    batch = inputs.shape[0]
    targets = np.asarray(targets)
    # one target per row; the squared head broadcasts a (batch,) or (batch, 1)
    # target over its outputs
    shapes = [(batch,)] + [(batch, 1), (batch, spec.out_dim)] * (spec.loss == "squared")
    if targets.shape not in shapes:
        raise ShapeError(f"{spec.loss} targets must be one of {shapes}, got {targets.shape}")

    if spec.loss == "softmax_ce":
        if targets.dtype.kind not in "iu" or targets.min() < 0 or targets.max() >= spec.out_dim:
            raise ConfigError(f"softmax_ce labels must be integers in [0, {spec.out_dim})")
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(logz - shifted[np.arange(batch), targets]))
        probs = np.exp(shifted - logz[:, None])
        dout = probs
        dout[np.arange(batch), targets] -= 1.0
        dout /= batch
    elif spec.loss == "logistic":
        z = out[:, 0]
        t = np.asarray(targets, dtype=np.float64)
        # mean(max(z,0) - z t + log(1 + exp(-|z|)))
        loss = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))
        sigma = 1.0 / (1.0 + np.exp(-z))
        dout = ((sigma - t) / batch)[:, None]
    else:  # squared
        t = np.asarray(targets, dtype=np.float64)
        if t.ndim == 1:
            t = t[:, None]
        resid = out - t
        loss = float(0.5 * np.mean((resid * resid).sum(axis=1)))
        dout = resid / batch

    w2 = _unpack(spec, params)[2]
    # A product with inner dimension 1 (every weight gradient at batch 1,
    # dL/dhid with one output) is an outer product: a multiply gives the
    # gemm's bits, once `+= 0.0` turns its -0.0 into the gemm's +0.0.
    outer = batch == 1
    # dW2 = hid.T @ dout, computed as (dout.T @ hid) into the transposed view:
    # with one output BLAS then writes one contiguous row, in about half the
    # time of an (h, 1) column
    if outer:
        np.multiply(dout.T, hid, out=dw2.T)
        dw2 += 0.0
    else:
        np.matmul(dout.T, hid, out=dw2.T)
    np.sum(dout, axis=0, out=db2)
    # dL/dhid, then dL/dpre in place; at batch 1 both are built in db1's slot.
    # There its zeros keep the multiply's sign: dW1 and db1, its only readers,
    # add 0.0 after their own multiply.
    dpre = (np.multiply if outer and spec.out_dim == 1 else np.matmul)(
        dout, w2.T, out=db1[None, :] if outer else None)
    if spec.activation == "tanh":  # hid is not read again: 1 - hid**2 in its place
        np.multiply(hid, hid, out=hid)
        np.subtract(1.0, hid, out=hid)
        np.multiply(dpre, hid, out=dpre)
    else:  # hid = max(pre, 0) is above 0 exactly where pre is
        np.multiply(dpre, hid > 0.0, out=dpre)
    if outer:
        np.multiply(inputs.T, dpre, out=dw1)
        dw1 += 0.0
        db1 += 0.0  # dpre itself: a sum over one row also turns -0.0 into +0.0
    else:
        np.matmul(inputs.T, dpre, out=dw1)
        np.sum(dpre, axis=0, out=db1)
    return loss, grad


def mlp_predict(spec: MlpSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    _, out = _forward(spec, params, np.asarray(inputs, dtype=np.float64))
    if spec.loss == "logistic":
        return (out[:, 0] > 0.0).astype(np.int64)
    return out.argmax(axis=1)


def accuracy(spec: MlpSpec, params: np.ndarray, ds: Dataset) -> float:
    return float(np.mean(mlp_predict(spec, params, ds.inputs) == ds.targets))


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """The committed shuffle for one epoch: Philox stream (seed, 2 + epoch)."""
    return rng_stream(seed, STREAM_SHUFFLE_BASE + epoch).permutation(n)


def minibatch_stream(ds: Dataset, batch_size: int, seed: int):
    """An endless iterator of (inputs, targets) minibatches, reshuffled each
    epoch; batch_size, an integer in [1, ds.n], is checked on the call.

    batch_size = ds.n gives one full-batch step per epoch. A trailing batch
    smaller than batch_size is yielded rather than dropped.
    """
    batch_size = bounded(check_int, 1, below=ds.n + 1)(batch_size, "batch_size")
    perms = (epoch_permutation(ds.n, seed, epoch) for epoch in itertools.count())
    batches = (perm[lo:lo + batch_size] for perm in perms for lo in range(0, ds.n, batch_size))
    return ((ds.inputs[idx], ds.targets[idx]) for idx in batches)

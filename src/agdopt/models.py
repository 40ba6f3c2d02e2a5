"""Two-moons data, a one-hidden-layer MLP with hand-written backprop, and
deterministic minibatch streaming.

All randomness flows through Philox4x64 counter-based generators keyed by
(seed, stream id), so every artifact is reproducible from the seed alone:
stream 0 draws dataset noise, stream 1 draws parameter inits, stream 2+e
shuffles epoch e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ShapeError

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

    The key is built as uint64: from a list, NumPy would take a value at or
    above 2**63 through float64 and lose its low bits.
    """
    key = np.array([seed & _M64, stream & _M64], dtype=np.uint64)
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
    if n < 2:
        raise ConfigError(f"need at least 2 points, got {n}")
    if noise < 0.0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
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
    """One hidden layer: in_dim -> hidden_dim (activation) -> out_dim (loss head)."""

    in_dim: int
    hidden_dim: int
    out_dim: int
    activation: str = "tanh"   # tanh | relu
    loss: str = "logistic"     # softmax_ce | logistic | squared

    def validate(self) -> None:
        if min(self.in_dim, self.hidden_dim, self.out_dim) < 1:
            raise ConfigError(f"all layer sizes must be >= 1, got {self}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
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
    spec.validate()
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
    w1, b1, w2, b2 = _unpack(spec, params)
    pre = inputs @ w1
    pre += b1
    hid = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
    out = hid @ w2 + b2
    return pre, hid, out


def mlp_loss_grad(spec: MlpSpec, params: np.ndarray, inputs: np.ndarray,
                  targets: np.ndarray):
    """Mean loss over the batch and its gradient w.r.t. the flat params.

    Backprop is written out by hand; the loss heads use the numerically
    stable forms (max-subtracted log-softmax, softplus via log1p). Each
    layer's gradient is written through `_unpack` views straight into one
    fresh flat vector; params is never written.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != spec.in_dim:
        raise ShapeError(f"inputs must be (batch, {spec.in_dim}), got {inputs.shape}")
    batch = inputs.shape[0]
    if batch < 1:
        raise ShapeError("empty batch")
    pre, hid, out = _forward(spec, params, inputs)

    if spec.loss == "softmax_ce":
        labels = np.asarray(targets)
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(logz - shifted[np.arange(batch), labels]))
        probs = np.exp(shifted - logz[:, None])
        dout = probs
        dout[np.arange(batch), labels] -= 1.0
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

    grad = np.empty(spec.n_params)
    dw1, db1, dw2, db2 = _unpack(spec, grad)
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
    # dL/dhid, then dL/dpre in place. At batch 1 its zeros keep the multiply's
    # sign: dW1 and db1, its only readers, add 0.0 after their own multiply.
    dpre = np.multiply(dout, w2.T) if outer and spec.out_dim == 1 else dout @ w2.T
    if spec.activation == "tanh":  # hid is not read again: 1 - hid**2 in its place
        np.multiply(hid, hid, out=hid)
        np.subtract(1.0, hid, out=hid)
        np.multiply(dpre, hid, out=dpre)
    else:
        np.multiply(dpre, pre > 0.0, out=dpre)
    if outer:
        np.multiply(inputs.T, dpre, out=dw1)
        dw1 += 0.0
        # not a copy: a sum over one row also turns -0.0 into +0.0
        np.add(dpre[0], 0.0, out=db1)
    else:
        np.matmul(inputs.T, dpre, out=dw1)
        np.sum(dpre, axis=0, out=db1)
    return loss, grad


def mlp_predict(spec: MlpSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    _, _, out = _forward(spec, params, np.asarray(inputs, dtype=np.float64))
    if spec.loss == "logistic":
        return (out[:, 0] > 0.0).astype(np.int64)
    return out.argmax(axis=1)


def accuracy(spec: MlpSpec, params: np.ndarray, ds: Dataset) -> float:
    return float(np.mean(mlp_predict(spec, params, ds.inputs) == ds.targets))


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """The committed shuffle for one epoch: Philox stream (seed, 2 + epoch)."""
    return rng_stream(seed, STREAM_SHUFFLE_BASE + epoch).permutation(n)


def minibatch_stream(ds: Dataset, batch_size: int, seed: int):
    """Yield (inputs, targets) minibatches forever, reshuffling each epoch.

    batch_size = ds.n gives one full-batch step per epoch. A trailing batch
    smaller than batch_size is yielded rather than dropped.
    """
    if not (1 <= batch_size <= ds.n):
        raise ConfigError(f"batch_size must be in [1, {ds.n}], got {batch_size}")
    epoch = 0
    while True:
        perm = epoch_permutation(ds.n, seed, epoch)
        for lo in range(0, ds.n, batch_size):
            idx = perm[lo:lo + batch_size]
            yield ds.inputs[idx], ds.targets[idx]
        epoch += 1

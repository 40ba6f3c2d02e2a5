import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agdopt.core import ConfigError, ShapeError
from agdopt.models import (
    Dataset,
    MlpSpec,
    accuracy,
    epoch_permutation,
    init_params,
    minibatch_stream,
    mlp_loss_grad,
    mlp_predict,
    rng_stream,
    two_moons,
)
from conftest import peak_traced_bytes


# ---------------------------------------------------------------- rng streams


def test_rng_stream_reproducible():
    a = rng_stream(7, 0).normal(size=5)
    b = rng_stream(7, 0).normal(size=5)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    a = rng_stream(7, 0).normal(size=5)
    b = rng_stream(7, 1).normal(size=5)
    c = rng_stream(8, 0).normal(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_keeps_every_bit_of_a_64_bit_seed():
    # NumPy takes a list entry at or above 2**63 through float64
    a = rng_stream(2**63 + 1, 0).normal(size=5)
    b = rng_stream(2**63 + 2, 0).normal(size=5)
    assert not np.array_equal(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng_stream(2**64 - 1, 0).normal(size=5)
        rng_stream(-1, 3).normal(size=5)  # masked to 2**64 - 1
    # a seed below 2**63 keeps the draws of the plain (seed, stream) key
    for seed in (0, 7, 2**63 - 1):
        ref = np.random.Generator(np.random.Philox(key=[seed, 5])).normal(size=5)
        assert np.array_equal(rng_stream(seed, 5).normal(size=5), ref)


def test_seeds_are_integers():
    # True was keyed as seed 1, 1.5 raised TypeError from `&`; each caller
    # takes its seed through rng_stream, but two_moons without noise draws
    # nothing and kept 1.5 as its seed
    draws = (lambda seed: rng_stream(seed, 0), lambda seed: two_moons(8, 0.1, seed),
             lambda seed: two_moons(8, 0.0, seed),
             lambda seed: init_params(MlpSpec(2, 4, 1), seed),
             lambda seed: epoch_permutation(8, seed, 0))
    for draw in draws:
        for seed in (True, 1.5, "0"):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                draw(seed)
    ref = rng_stream(3, 0).normal(size=5)
    for seed in (3.0, np.int64(3), np.uint64(3)):
        assert np.array_equal(rng_stream(seed, 0).normal(size=5), ref)


# ---------------------------------------------------------------- two moons


def test_two_moons_noiseless_geometry():
    ds = two_moons(64, 0.0, seed=0)
    outer = ds.inputs[ds.targets == 0]
    inner = ds.inputs[ds.targets == 1]
    # class 0 on the unit circle about the origin, upper half
    r0 = np.hypot(outer[:, 0], outer[:, 1])
    np.testing.assert_allclose(r0, 1.0, atol=1e-12)
    assert (outer[:, 1] >= -1e-12).all()
    # class 1 on the unit circle about (1, 0.5), lower half
    r1 = np.hypot(inner[:, 0] - 1.0, inner[:, 1] - 0.5)
    np.testing.assert_allclose(r1, 1.0, atol=1e-12)
    assert (inner[:, 1] <= 0.5 + 1e-12).all()


def test_two_moons_balance_and_dtype():
    ds = two_moons(101, 0.1, seed=3)
    assert ds.n == 101
    assert ds.targets.dtype == np.int64
    assert int((ds.targets == 0).sum()) == 50
    assert int((ds.targets == 1).sum()) == 51


def test_two_moons_seed_determinism():
    a = two_moons(32, 0.2, seed=9)
    b = two_moons(32, 0.2, seed=9)
    c = two_moons(32, 0.2, seed=10)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


def test_two_moons_validation():
    with pytest.raises(ConfigError):
        two_moons(1, 0.0, seed=0)
    with pytest.raises(ConfigError):
        two_moons(10, -0.1, seed=0)
    # a NaN noise gave a dataset with no noise (nan > 0.0 is false), and
    # True was refused only as fewer than 2 points
    for n, noise in ((8, math.nan), (8, math.inf), (8, "0.1"), (2.5, 0.1), (True, 0.1)):
        with pytest.raises(ConfigError, match="must be"):
            two_moons(n, noise, seed=0)


# ---------------------------------------------------------------- mlp shapes


def test_spec_validation():
    MlpSpec(2, 8, 1)
    with pytest.raises(ConfigError):
        MlpSpec(2, 0, 1)
    with pytest.raises(ConfigError):
        MlpSpec(2, 8, 1, activation="sigmoid")
    with pytest.raises(ConfigError):
        MlpSpec(2, 8, 1, loss="hinge")
    with pytest.raises(ConfigError):
        MlpSpec(2, 8, 3, loss="logistic")
    for size in (2.5, True, "8"):  # 2.5 and True were accepted
        with pytest.raises(ConfigError, match="hidden_dim must be an integer"):
            MlpSpec(2, size, 1)


def test_spec_stores_integral_sizes_as_int():
    # a float size was kept and made init_params raise TypeError
    spec = MlpSpec(2.0, 16.0, 1)
    assert type(spec.in_dim) is type(spec.hidden_dim) is int
    assert np.array_equal(init_params(spec, 0), init_params(MlpSpec(2, 16, 1), 0))


def test_n_params_and_init():
    spec = MlpSpec(2, 16, 1)
    assert spec.n_params == 2 * 16 + 16 + 16 * 1 + 1
    params = init_params(spec, seed=0)
    assert params.shape == (spec.n_params,)
    # biases start at zero
    w1end = 2 * 16
    assert (params[w1end:w1end + 16] == 0.0).all()
    assert params[-1] == 0.0
    assert np.array_equal(params, init_params(spec, seed=0))
    assert not np.array_equal(params, init_params(spec, seed=1))


def test_loss_grad_rejects_bad_shapes():
    spec = MlpSpec(2, 4, 1)
    params = init_params(spec, 0)
    with pytest.raises(ShapeError):
        mlp_loss_grad(spec, params, np.zeros((3, 5)), np.zeros(3))
    with pytest.raises(ShapeError):
        mlp_loss_grad(spec, params[:-1], np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        mlp_loss_grad(spec, params, np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("loss", ["logistic", "softmax_ce", "squared"])
def test_loss_grad_refuses_targets_off_the_batch(loss):
    # a (1,) target array was broadcast over a batch of 2 and a loss came
    # back; (2, 1) logistic targets were broadcast to (2, 2); other misfits
    # raised NumPy's ValueError or IndexError
    spec = MlpSpec(2, 4, 1 if loss == "logistic" else 2, "tanh", loss)
    params = init_params(spec, 0)
    x = np.ones((2, 2))
    bad = [np.array([1]), np.array([1, 0, 1]), np.array(1), np.ones((2, 3), np.int64)]
    bad += [np.array([[1], [0]])] * (loss != "squared")
    for targets in bad:
        with pytest.raises(ShapeError, match="targets"):
            mlp_loss_grad(spec, params, x, targets)


def test_squared_targets_of_one_column_broadcast_over_the_outputs():
    spec = MlpSpec(2, 4, 2, "tanh", "squared")
    params = init_params(spec, 0) + 0.1
    x, t = np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([1.0, -2.0])
    f, g = mlp_loss_grad(spec, params, x, np.column_stack([t, t]))
    for targets in (t, t[:, None], t.astype(np.int64)):
        f_b, g_b = mlp_loss_grad(spec, params, x, targets)
        assert f_b == f and g_b.tobytes() == g.tobytes()


def test_softmax_labels_are_integers_in_range():
    # -1 scored the last class, and a label past the last class or a float
    # label raised IndexError
    spec = MlpSpec(2, 4, 3, "relu", "softmax_ce")
    params = init_params(spec, 0)
    x = np.ones((2, 2))
    for labels in ([0, -1], [3, 0], [0.0, 1.0], [True, False]):
        with pytest.raises(ConfigError, match=r"labels must be integers in \[0, 3\)"):
            mlp_loss_grad(spec, params, x, np.array(labels))
    for labels in (np.array([0, 2]), np.array([2, 1], np.uint8)):
        mlp_loss_grad(spec, params, x, labels)


def test_predict_checks_its_inputs():
    # a 1-D point raised IndexError; another width raised NumPy's ValueError
    spec = MlpSpec(2, 4, 1)
    params = init_params(spec, 0)
    for x in (np.ones(2), np.ones((3, 5)), np.ones((0, 2)), np.ones((1, 1, 2))):
        with pytest.raises(ShapeError):
            mlp_predict(spec, params, x)
    with pytest.raises(ShapeError):
        mlp_predict(spec, params[:-1], np.ones((3, 2)))


# ---------------------------------------------------------------- loss heads


def test_squared_loss_zero_params_hand_value():
    # all-zero params: output 0, so loss = mean ||t||^2 / 2 and the output
    # bias gradient is the mean residual -mean(t)
    spec = MlpSpec(2, 4, 2, loss="squared")
    params = np.zeros(spec.n_params)
    x = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 0.1]])
    t = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    loss, grad = mlp_loss_grad(spec, params, x, t)
    assert loss == 0.5 * np.mean((t * t).sum(axis=1))
    db2 = grad[-2:]
    np.testing.assert_allclose(db2, -t.mean(axis=0), rtol=0, atol=1e-16)


def test_logistic_loss_zero_logits():
    # z = 0 for all-zero params: loss = log 2 regardless of labels
    spec = MlpSpec(2, 4, 1, loss="logistic")
    params = np.zeros(spec.n_params)
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    loss, _ = mlp_loss_grad(spec, params, x, np.array([0.0, 1.0]))
    assert abs(loss - np.log(2.0)) < 1e-15


def test_softmax_loss_uniform_logits():
    # zero logits over k classes: loss = log k, grad of true-class output
    # bias = (1/k - 1)/batch summed over the batch
    spec = MlpSpec(2, 4, 3, loss="softmax_ce")
    params = np.zeros(spec.n_params)
    x = np.array([[1.0, -1.0]])
    loss, grad = mlp_loss_grad(spec, params, x, np.array([2]))
    assert abs(loss - np.log(3.0)) < 1e-15
    db2 = grad[-3:]
    np.testing.assert_allclose(db2, [1 / 3, 1 / 3, 1 / 3 - 1.0], atol=1e-15)


def test_logistic_head_is_stable_at_extreme_logits():
    # force a huge logit through a relu unit with identity weights
    spec = MlpSpec(1, 1, 1, activation="relu", loss="logistic")
    params = np.array([1.0, 0.0, 1.0, 0.0])
    loss, grad = mlp_loss_grad(spec, params, np.array([[5000.0]]), np.array([1.0]))
    assert np.isfinite(loss) and np.isfinite(grad).all()
    assert loss == 0.0  # sigmoid saturated at the true label


def test_softmax_head_is_stable_at_extreme_logits():
    spec = MlpSpec(1, 1, 2, activation="relu", loss="softmax_ce")
    params = np.array([1.0, 0.0, 800.0, -800.0, 0.0, 0.0])
    loss, grad = mlp_loss_grad(spec, params, np.array([[2.0]]), np.array([0]))
    assert np.isfinite(loss) and np.isfinite(grad).all()


# ---------------------------------------------------------------- backprop


def fd_grad(spec, params, x, t, h=1e-6):
    g = np.zeros_like(params)
    for i in range(params.size):
        e = np.zeros_like(params)
        e[i] = h
        lp, _ = mlp_loss_grad(spec, params + e, x, t)
        lm, _ = mlp_loss_grad(spec, params - e, x, t)
        g[i] = (lp - lm) / (2 * h)
    return g


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("loss,out_dim", [("logistic", 1), ("squared", 2),
                                          ("softmax_ce", 3)])
def test_backprop_matches_central_differences(activation, loss, out_dim):
    spec = MlpSpec(2, 5, out_dim, activation=activation, loss=loss)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(7, 2))
    if loss == "squared":
        t = rng.normal(size=(7, out_dim))
    elif loss == "logistic":
        t = rng.integers(0, 2, size=7).astype(float)
    else:
        t = rng.integers(0, out_dim, size=7)
    params = init_params(spec, seed=3) + 0.05 * rng.normal(size=spec.n_params)
    _, grad = mlp_loss_grad(spec, params, x, t)
    fd = fd_grad(spec, params, x, t)
    scale = max(np.abs(grad).max(), 1e-8)
    assert np.abs(grad - fd).max() / scale < 1e-6


def test_duplicated_batch_leaves_loss_and_grad_unchanged():
    # mean reduction: stacking the batch twice must change nothing
    spec = MlpSpec(2, 4, 1)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 2))
    t = rng.integers(0, 2, size=5).astype(float)
    params = init_params(spec, seed=1)
    loss1, grad1 = mlp_loss_grad(spec, params, x, t)
    loss2, grad2 = mlp_loss_grad(spec, params, np.vstack([x, x]),
                                 np.concatenate([t, t]))
    assert abs(loss1 - loss2) < 1e-15
    np.testing.assert_allclose(grad1, grad2, rtol=0, atol=1e-15)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_backprop_property_logistic(seed):
    spec = MlpSpec(2, 3, 1)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 2))
    t = rng.integers(0, 2, size=4).astype(float)
    params = 0.5 * rng.normal(size=spec.n_params)
    _, grad = mlp_loss_grad(spec, params, x, t)
    fd = fd_grad(spec, params, x, t)
    scale = max(np.abs(grad).max(), 1e-8)
    assert np.abs(grad - fd).max() / scale < 1e-5


# ---------------------------------------------------------------- prediction


def test_predict_and_accuracy_logistic():
    spec = MlpSpec(2, 1, 1, activation="relu", loss="logistic")
    # identity-ish net: hid = relu(x0), out = hid, so label = x0 > 0
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    x = np.array([[2.0, 0.0], [-1.0, 0.0], [3.0, 5.0]])
    assert np.array_equal(mlp_predict(spec, params, x), [1, 0, 1])
    ds = Dataset(inputs=x, targets=np.array([1, 0, 0]), seed=0)
    assert accuracy(spec, params, ds) == pytest.approx(2 / 3)


def test_predict_argmax_softmax():
    spec = MlpSpec(2, 2, 2, activation="relu", loss="softmax_ce")
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0,
                       1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    x = np.array([[3.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(mlp_predict(spec, params, x), [0, 1])


# ---------------------------------------------------------------- batching


def test_epoch_permutation_pins():
    assert list(epoch_permutation(8, 7, 0)) == [4, 1, 3, 7, 6, 2, 0, 5]
    assert list(epoch_permutation(8, 7, 1)) == [4, 3, 5, 6, 0, 7, 1, 2]


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=5))
def test_epoch_permutation_is_permutation(n, seed, epoch):
    perm = epoch_permutation(n, seed, epoch)
    assert sorted(perm) == list(range(n))


def test_minibatch_stream_covers_each_epoch():
    ds = two_moons(10, 0.0, seed=2)
    stream = minibatch_stream(ds, batch_size=4, seed=2)
    seen = []
    for _ in range(3):  # 4 + 4 + 2: one epoch incl. the short trailing batch
        xb, tb = next(stream)
        seen.append(xb)
    sizes = [b.shape[0] for b in seen]
    assert sizes == [4, 4, 2]
    stacked = np.vstack(seen)
    # every point appears exactly once per epoch
    assert stacked.shape == ds.inputs.shape
    order = np.lexsort(stacked.T)
    ref = np.lexsort(ds.inputs.T)
    assert np.array_equal(stacked[order], ds.inputs[ref])


def test_minibatch_stream_first_epoch_follows_committed_shuffle():
    ds = two_moons(8, 0.0, seed=7)
    stream = minibatch_stream(ds, batch_size=8, seed=7)
    xb, tb = next(stream)
    perm = epoch_permutation(8, 7, 0)
    assert np.array_equal(xb, ds.inputs[perm])


def test_minibatch_stream_rejects_bad_batch():
    ds = two_moons(8, 0.0, seed=0)
    with pytest.raises(ConfigError):
        next(minibatch_stream(ds, 0, seed=0))
    with pytest.raises(ConfigError):
        next(minibatch_stream(ds, 9, seed=0))
    # 2.5 raised TypeError from range at the first batch
    with pytest.raises(ConfigError, match="batch_size must be an integer"):
        next(minibatch_stream(ds, 2.5, seed=0))


def _reference_loss_grad(spec, params, inputs, targets):
    """The backprop with a fresh array per operation and a concatenated
    gradient, which mlp_loss_grad must match bit for bit."""
    i, h, o = spec.in_dim, spec.hidden_dim, spec.out_dim
    w1 = params[:i * h].reshape(i, h)
    b1 = params[i * h:i * h + h]
    w2 = params[i * h + h:i * h + h + h * o].reshape(h, o)
    b2 = params[i * h + h + h * o:]
    batch = inputs.shape[0]
    pre = inputs @ w1 + b1
    hid = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
    out = hid @ w2 + b2
    if spec.loss == "softmax_ce":
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(logz - shifted[np.arange(batch), targets]))
        dout = np.exp(shifted - logz[:, None])
        dout[np.arange(batch), targets] -= 1.0
        dout /= batch
    elif spec.loss == "logistic":
        z = out[:, 0]
        loss = float(np.mean(np.maximum(z, 0.0) - z * targets
                             + np.log1p(np.exp(-np.abs(z)))))
        dout = ((1.0 / (1.0 + np.exp(-z)) - targets) / batch)[:, None]
    else:
        resid = out - targets
        loss = float(0.5 * np.mean((resid * resid).sum(axis=1)))
        dout = resid / batch
    dw2 = hid.T @ dout
    db2 = dout.sum(axis=0)
    dhid = dout @ w2.T
    if spec.activation == "tanh":
        dpre = dhid * (1.0 - hid * hid)
    else:
        dpre = dhid * (pre > 0.0)
    dw1 = inputs.T @ dpre
    db1 = dpre.sum(axis=0)
    return loss, np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


@pytest.mark.parametrize("hidden", [5, 300])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("loss", ["logistic", "softmax_ce", "squared"])
def test_loss_grad_matches_the_reference_bits(loss, activation, batch, hidden):
    out_dim = 1 if loss == "logistic" else 2
    spec = MlpSpec(2, hidden, out_dim, activation, loss)
    rng = rng_stream(11, 0)
    params = rng.standard_normal(spec.n_params)
    inputs = rng.standard_normal((batch, 2))
    if loss == "softmax_ce":
        targets = rng.integers(0, out_dim, size=batch)
    elif loss == "logistic":
        targets = rng.integers(0, 2, size=batch).astype(np.float64)
    else:
        targets = rng.standard_normal((batch, out_dim))
    kept = params.copy()
    f, g = mlp_loss_grad(spec, params, inputs, targets)
    f_ref, g_ref = _reference_loss_grad(spec, params, inputs, targets)
    assert f == f_ref
    assert g.tobytes() == g_ref.tobytes()
    assert params.tobytes() == kept.tobytes()


# The oracle's bits, pinned by the sha256 of the loss and gradient bytes of
# three calls: batch 1 on an all-zero row, batch 1 on another row, and batch 4
# with the zero row among them. b1 is zero, as at init, and hidden units 0-2
# have no incoming weights, so relu's mask meets pre-activations of exactly 0.
ORACLE_BITS = {
    ("tanh", "logistic"):
        "51639e47cecd0a1b53a30cbaa97bdb751a710d06c6ff084f6a927847c0b3a3f0",
    ("relu", "logistic"):
        "fb80800648f987d2353887cc1029d74b754ce0aa41df461f4abd9f11e7587762",
    ("tanh", "softmax_ce"):
        "6f2ec68d4df95d273ff73224a991fee96d6d10f7e377536903f7319b9db3aac7",
    ("relu", "softmax_ce"):
        "e3acda2683e6a68692768970e979f92e97192bd5908c989eb606f114d9a07fb4",
    ("tanh", "squared"):
        "12246811e6724df3efb76835c0969a28d62464f6508e5897dcb459d48f73cacf",
    ("relu", "squared"):
        "9a7bf14f76e481aa125db75122e8fd7986cfd9810f7ce3a1468a070c89e58031",
}


@pytest.mark.parametrize("case", sorted(ORACLE_BITS), ids="-".join)
def test_loss_grad_bits(case):
    activation, loss = case
    spec = MlpSpec(2, 37, 1 if loss == "logistic" else 2, activation, loss)
    rng = rng_stream(13, 0)
    params = rng.standard_normal(spec.n_params)
    params[:2 * 37].reshape(2, 37)[:, :3] = 0.0
    params[2 * 37:3 * 37] = 0.0
    inputs = np.vstack([rng.standard_normal((3, 2)), np.zeros((1, 2))])[[1, 3, 0, 2]]
    labels = np.array([1, 0, 1, 0])  # a dataset's int64 labels, for every head
    digest = hashlib.sha256()
    for rows in (slice(1, 2), slice(0, 1), slice(0, 4)):
        f, g = mlp_loss_grad(spec, params, inputs[rows], labels[rows])
        digest.update(np.float64(f).tobytes() + g.tobytes())
    assert digest.hexdigest() == ORACLE_BITS[case]


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("loss", ["logistic", "softmax_ce", "squared"])
def test_loss_grad_into_a_destination_keeps_the_bits(loss, activation, batch):
    # the run loop hands in a row of its gradient buffer, here the second row
    # of a NaN-filled block, so 8 bytes past a whole vector: the gradient is
    # written there, with the bits of a fresh call, and that array returned
    out_dim = 1 if loss == "logistic" else 2
    spec = MlpSpec(2, 300, out_dim, activation, loss)
    rng = rng_stream(12, 0)
    params = rng.standard_normal(spec.n_params)
    inputs = rng.standard_normal((batch, 2))
    if loss == "softmax_ce":
        targets = rng.integers(0, out_dim, size=batch)
    elif loss == "logistic":
        targets = rng.integers(0, 2, size=batch).astype(np.float64)
    else:
        targets = rng.standard_normal((batch, out_dim))
    f, g = mlp_loss_grad(spec, params, inputs, targets)
    block = np.full((2, spec.n_params), np.nan)
    dest = block[1]
    f_into, g_into = mlp_loss_grad(spec, params, inputs, targets, grad=dest)
    assert f_into == f and g_into is dest
    assert dest.tobytes() == g.tobytes() and np.isnan(block[0]).all()


@pytest.mark.parametrize("batch, units", [(1, 1.6), (4, 2.5 * 4)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("loss", ["logistic", "softmax_ce", "squared"])
def test_loss_grad_into_a_destination_holds_few_hidden_arrays(loss, activation, batch, units):
    # the activation is computed in place of the pre-activation, and at batch
    # 1 dL/dhid and dL/dpre are built in db1's slot of the destination: the
    # call holds one hidden-width array and two (batch, hidden) arrays at
    # batch 4. Relu's mask adds an eighth of one, and NumPy's fixed ufunc
    # buffers (64 KiB, or 128 KiB for dW2 with two outputs) up to half of one
    # more at this width. Fresh pre-activation, activation and dL/dpre arrays
    # held three of each
    hidden = 32768
    spec = MlpSpec(2, hidden, 1 if loss == "logistic" else 2, activation, loss)
    rng = rng_stream(14, 0)
    params = 0.01 * rng.standard_normal(spec.n_params)
    inputs, labels = rng.standard_normal((batch, 2)), rng.integers(0, 2, size=batch)
    grad = np.empty(spec.n_params)
    peak = peak_traced_bytes(lambda: mlp_loss_grad(spec, params, inputs, labels, grad=grad))
    assert peak < units * 8 * hidden, peak / (8 * hidden)


def test_loss_grad_refuses_a_bad_destination():
    # another shape or dtype, params itself, or an array that overlaps them
    spec = MlpSpec(2, 4, 1)
    n = spec.n_params
    block = np.zeros(2 * n)
    params = block[:n]
    for grad in (np.zeros(n + 1), np.zeros((1, n)), np.zeros(n, np.float32), params,
                 block[1:n + 1]):
        with pytest.raises(ShapeError):
            mlp_loss_grad(spec, params, np.zeros((3, 2)), np.zeros(3), grad=grad)

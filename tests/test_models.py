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


# ---------------------------------------------------------------- mlp shapes


def test_spec_validation():
    MlpSpec(2, 8, 1).validate()
    with pytest.raises(ConfigError):
        MlpSpec(2, 0, 1).validate()
    with pytest.raises(ConfigError):
        MlpSpec(2, 8, 1, activation="sigmoid").validate()
    with pytest.raises(ConfigError):
        MlpSpec(2, 8, 1, loss="hinge").validate()
    with pytest.raises(ConfigError):
        MlpSpec(2, 8, 3, loss="logistic").validate()


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

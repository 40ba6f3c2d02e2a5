import numpy as np
import pytest

from agdopt.core import ConfigError
from agdopt.testfns import (
    TESTFNS,
    beale,
    get_testfn,
    hessian_diag_vs_gradient_difference,
    quad_skew,
    rosenbrock,
)


def central_diff_grad(f, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    g = np.zeros_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = h
        g[i] = (f(point + e)[0] - f(point - e)[0]) / (2 * h)
    return g


def central_diff_hess_diag(f, point, h=1e-4):
    # second differences lose ~eps*f/h^2 to cancellation; h=1e-4 balances
    # that against the O(h^2) truncation term for these scales
    point = np.asarray(point, dtype=float)
    d = np.zeros_like(point)
    f0 = f(point)[0]
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = h
        d[i] = (f(point + e)[0] - 2 * f0 + f(point - e)[0]) / (h * h)
    return d


# ---------------------------------------------------------------- hand values


def test_beale_hand_values():
    v, g = beale(np.array([0.0, 0.0]))
    assert v == 1.5**2 + 2.25**2 + 2.625**2 == 14.203125
    v_opt, g_opt = beale(np.array([3.0, 0.5]))
    assert abs(v_opt) < 1e-14
    assert np.abs(g_opt).max() < 1e-13


def test_rosenbrock_hand_values():
    v, g = rosenbrock(np.array([1.0, 1.0]))
    h = TESTFNS["rosenbrock"].hess_diag(np.array([1.0, 1.0]))
    assert v == 0.0
    assert np.array_equal(g, np.zeros(2))
    # d2f/dx2 = 2 - 400(y - x^2) + 800x^2, d2f/dy2 = 200
    assert np.array_equal(h, np.array([802.0, 200.0]))


def test_quad_skew_hand_values():
    v, g = quad_skew(np.array([1.0, -1.0]))
    h = TESTFNS["quad_skew"].hess_diag(np.array([1.0, -1.0]))
    assert abs(v - 0.4) < 1e-15
    np.testing.assert_allclose(g, [0.4, -0.4], rtol=0, atol=1e-15)
    assert np.array_equal(h, np.array([2.2, 2.2]))
    assert TESTFNS["quad_skew"].fn(np.zeros(2))[0] == 0.0


def test_full_hessians_are_symmetric_and_match_diag():
    rng = np.random.default_rng(5)
    for tf in TESTFNS.values():
        for _ in range(20):
            p = rng.uniform(tf.sample_lo, tf.sample_hi)
            H = tf.hess(p)
            assert np.array_equal(H, H.T)
            assert np.array_equal(np.diag(H), tf.hess_diag(p))


# ------------------------------------------------------------ derivative FD


@pytest.mark.parametrize("name", sorted(TESTFNS))
def test_gradients_match_central_differences(name):
    tf = TESTFNS[name]
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = rng.uniform(tf.sample_lo, tf.sample_hi)
        g = tf.fn(p)[1]
        fd = central_diff_grad(tf.fn, p)
        scale = max(np.abs(g).max(), 1.0)
        assert np.abs(g - fd).max() / scale < 1e-6


@pytest.mark.parametrize("name", sorted(TESTFNS))
def test_hessian_diag_matches_central_differences(name):
    tf = TESTFNS[name]
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = rng.uniform(tf.sample_lo, tf.sample_hi)
        d = tf.hess_diag(p)
        fd = central_diff_hess_diag(tf.fn, p)
        scale = max(np.abs(d).max(), 1.0)
        assert np.abs(d - fd).max() / scale < 1e-6


# ---------------------------------------------------------------- registry


def test_registry_contents():
    assert sorted(TESTFNS) == ["beale", "quad_skew", "rosenbrock"]
    for tf in TESTFNS.values():
        assert tf.dim == 2
        assert tf.fmin == 0.0
        assert abs(tf.fn(tf.optimum)[0] - tf.fmin) < 1e-13
        assert (tf.sample_lo < tf.sample_hi).all()


def test_committed_default_starts():
    assert np.array_equal(TESTFNS["beale"].default_start, [2.0, 1.5])
    assert np.array_equal(TESTFNS["rosenbrock"].default_start, [-1.2, 1.0])
    assert np.array_equal(TESTFNS["quad_skew"].default_start, [2.0, -1.0])


def test_get_testfn_unknown():
    with pytest.raises(ConfigError):
        get_testfn("ackley")


# -------------------------------------------- grad-difference vs Hessian step


def test_grad_difference_exact_on_quadratic():
    # constant Hessian: grad(w') - grad(w) = H (w' - w) with no remainder
    tf = TESTFNS["quad_skew"]
    rng = np.random.default_rng(2)
    seq = rng.uniform(-3, 3, size=(12, 2))
    report = hessian_diag_vs_gradient_difference(tf, seq)
    assert report.skipped == 0
    assert report.max_residual < 1e-12


def test_grad_difference_second_order_on_rosenbrock():
    tf = TESTFNS["rosenbrock"]
    base = np.array([0.3, 0.7])
    seq = [base + 1e-5 * k * np.array([1.0, -0.5]) for k in range(10)]
    report = hessian_diag_vs_gradient_difference(tf, seq)
    assert report.max_residual < 1e-4


def test_grad_difference_skips_repeats():
    tf = TESTFNS["quad_skew"]
    seq = [np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0])]
    report = hessian_diag_vs_gradient_difference(tf, seq)
    assert report.skipped == 1
    assert len(report.residuals) == 1


def test_grad_difference_needs_two_points():
    with pytest.raises(ConfigError):
        hessian_diag_vs_gradient_difference(TESTFNS["beale"], [np.zeros(2)])

import warnings

import numpy as np
import pytest

from fracturelab import energy
from fracturelab.energy import (
    CheckerboardCoefficient,
    MeyersCoefficient,
    laplace_integrand,
    meyers_integrand,
    ppower_integrand,
    quadratic_integrand,
    ConstantMatrixCoefficient,
)
from fracturelab.errors import UnsupportedKind


def test_quadratic_ppower_values():
    f = laplace_integrand()  # f = |xi|^2
    x = np.array([0.3])
    y = np.array([0.4])
    xi = np.array([[1.0, 0.0]])
    assert f.eval_f(x, y, xi)[0] == pytest.approx(1.0)
    assert np.allclose(f.grad_f(x, y, xi)[0], [2.0, 0.0])


def test_f_vanishes_at_zero():
    rng = np.random.default_rng(0)
    for integrand in (laplace_integrand(), ppower_integrand(1.5, 3.0),
                      meyers_integrand(3.0)):
        x, y = rng.uniform(-0.4, 0.4, size=(2, 50))
        assert np.allclose(integrand.eval_f(x, y, np.zeros((50, 2))), 0.0)


def test_gradients_at_zero_are_zero_without_warnings():
    # |xi|^(p-2) for p < 2 and |zeta|^(q-2) for q < 2 must not be evaluated
    # at 0, where they divide by zero
    x = y = np.array([0.5, 0.5])
    xi = np.array([[0.0, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ppower_integrand(1.5).grad_f(x, y, xi), xi)
        assert np.array_equal(ppower_integrand(3.0).grad_fstar(x, y, xi), xi)


@pytest.mark.parametrize("integrand", [ppower_integrand(1.5), ppower_integrand(3.0),
                                       ppower_integrand(2.0, CheckerboardCoefficient(1.0, 10.0, 0.25)),
                                       meyers_integrand(3.0)])
def test_f_and_grad_in_one_pass_match_eval_f_and_grad_f_bit_for_bit(integrand):
    rng = np.random.default_rng(4)
    x, y = rng.uniform(-0.5, 0.5, size=(2, 40))
    xi = rng.standard_normal((40, 2))
    xi[::5] = 0.0
    f, grad = integrand.eval_f_and_grad(x, y, xi)
    assert np.array_equal(f, integrand.eval_f(x, y, xi))
    assert np.array_equal(grad, integrand.grad_f(x, y, xi))


def test_norm_is_numpys_bit_for_bit():
    # np.linalg.norm over the last axis is the reference the integrands used
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1e-160, 1e-5, 1.0, 1e150):
        v = rng.standard_normal((3, 400, 2)) * scale
        v[:, ::7, 0] = 0.0
        v[:, ::11, 1] = -0.0
        assert np.array_equal(energy._norm(v), np.linalg.norm(v, axis=-1))
    v = np.array([[np.inf, 1.0], [-np.inf, 0.0], [np.nan, 0.0], [1e200, 1e200]])
    with np.errstate(over="ignore"):
        assert np.array_equal(energy._norm(v), np.linalg.norm(v, axis=-1), equal_nan=True)


def test_grad_matches_finite_difference_p15():
    f = ppower_integrand(1.5, 1.0)
    x = np.array([0.1])
    y = np.array([0.2])
    xi = np.array([[0.0, 1.0]])
    g = f.grad_f(x, y, xi)[0]
    eps = 1e-6
    for comp in range(2):
        dp = xi.copy()
        dm = xi.copy()
        dp[0, comp] += eps
        dm[0, comp] -= eps
        fd = (f.eval_f(x, y, dp)[0] - f.eval_f(x, y, dm)[0]) / (2 * eps)
        assert g[comp] == pytest.approx(fd, abs=1e-6)


def test_conjugate_closed_forms_quadratic():
    f = laplace_integrand()
    x = np.array([0.0])
    y = np.array([0.0])
    z = np.array([[3.0, 4.0]])
    assert f.eval_fstar(x, y, z)[0] == pytest.approx(25.0 / 4.0)
    assert np.allclose(f.grad_fstar(x, y, z)[0], [1.5, 2.0])
    assert f.eval_fstar(x, y, np.zeros((1, 2)))[0] == pytest.approx(0.0)


def test_conjugate_against_radial_sup_oracle():
    # independent oracle: f*(z) = sup_t (|z| t - (c/p) t^p) over a fine 1-D grid
    f = ppower_integrand(1.5, 2.0)
    rng = np.random.default_rng(1)
    x = np.zeros(1)
    y = np.zeros(1)
    for _ in range(20):
        z = rng.uniform(-2, 2, size=(1, 2))
        zn = np.linalg.norm(z)
        t = np.linspace(0, 50.0, 400001)
        oracle = np.max(zn * t - (2.0 / 1.5) * t ** 1.5)
        assert f.eval_fstar(x, y, z)[0] == pytest.approx(oracle, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("integrand,tol", [
    (laplace_integrand(), 1e-9),
    (ppower_integrand(2.0, 0.7), 1e-9),
    (ppower_integrand(1.5, 1.3), 1e-6),
    (meyers_integrand(2.5), 1e-9),
])
def test_fenchel_identity_and_inversion(integrand, tol):
    rng = np.random.default_rng(42)
    n = 1000
    x = rng.uniform(-0.45, 0.45, n)
    y = rng.uniform(-0.45, 0.45, n)
    xi = rng.uniform(-3, 3, (n, 2))
    scale = 1.0 + np.abs(integrand.eval_f(x, y, xi))
    assert np.all(np.abs(integrand.fenchel_residual(x, y, xi)) <= tol * scale)
    assert np.all(integrand.inversion_residual(x, y, xi) <= tol * (1 + np.abs(xi).max()))


def test_growth_sandwich_sampled():
    rng = np.random.default_rng(7)
    for integrand in (ppower_integrand(1.5, 2.0),
                      ppower_integrand(2.0, CheckerboardCoefficient(1.0, 3.0, 0.25)),
                      meyers_integrand(3.0)):
        n = 500
        x = rng.uniform(-0.45, 0.45, n)
        y = rng.uniform(-0.45, 0.45, n)
        xi = rng.uniform(-4, 4, (n, 2))
        fv = integrand.eval_f(x, y, xi)
        norm_p = np.linalg.norm(xi, axis=1) ** integrand.p
        assert np.all(fv >= integrand.growth_lower * norm_p - 1e-12)
        assert np.all(fv <= integrand.growth_upper * (norm_p + 1.0) + 1e-12)


def test_meyers_identity_at_K1():
    coeff = MeyersCoefficient(1.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 100)
    y = rng.uniform(-1, 1, 100)
    A = coeff.matrix(x, y)
    assert np.allclose(A, np.eye(2)[None], atol=1e-14)


def test_meyers_soft_axis_values():
    coeff = MeyersCoefficient(3.0, "radial_soft")
    A = coeff.matrix(np.array([1.0]), np.array([0.0]))[0]
    assert np.allclose(A, np.diag([1.0 / 3.0, 3.0]), atol=1e-14)


def test_meyers_eigen_and_det():
    coeff = MeyersCoefficient(3.0, "radial_stiff")
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 200)
    y = rng.uniform(-1, 1, 200)
    A = coeff.matrix(x, y)
    assert np.allclose(A, np.swapaxes(A, -1, -2))
    assert np.allclose(np.linalg.det(A), 1.0)
    eig = np.sort(np.linalg.eigvalsh(A), axis=1)
    assert np.allclose(eig[:, 0], 1.0 / 3.0)
    assert np.allclose(eig[:, 1], 3.0)


def test_origin_is_removable():
    A = MeyersCoefficient(4.0).matrix(np.array([0.0]), np.array([0.0]))[0]
    assert np.allclose(A, np.eye(2))


def test_cell_metric_rejected_for_p_not_2():
    f = ppower_integrand(1.5, 1.0)
    with pytest.raises(UnsupportedKind):
        f.cell_metric(np.zeros(1), np.zeros(1))


def test_quadratic_constant_matrix_conjugate_inverts():
    f = quadratic_integrand(ConstantMatrixCoefficient(2.0, 0.5, 0.3))
    rng = np.random.default_rng(2)
    xi = rng.uniform(-2, 2, (50, 2))
    x = np.zeros(50)
    y = np.zeros(50)
    assert np.all(f.inversion_residual(x, y, xi) < 1e-12)

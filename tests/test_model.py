
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from hawkes_bvm.model import ModelParams, spectral_radius, stationary_rates


def test_spectral_radius_scalar():
    assert spectral_radius(np.array([[0.5]])) == 0.5
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_2x2():
    rho = np.array([[0.5, 0.2], [0.1, 0.3]])
    # eigenvalues (0.8 +- sqrt(0.04 + 4*0.02)) / 2
    expect = (0.8 + np.sqrt(0.12)) / 2
    assert spectral_radius(rho) == pytest.approx(expect, rel=1e-10)


def test_spectral_radius_permutation_fallback():
    # power iteration oscillates on a permutation; fallback must kick in
    rho = np.array([[0.0, 0.7], [0.7, 0.0]])
    assert spectral_radius(rho) == pytest.approx(0.7, rel=1e-10)


_NONNEGATIVE_SQUARE = st.sampled_from([2, 3]).flatmap(
    lambda n: arrays(float, (n, n), elements=st.floats(
        0.0, 10.0, allow_subnormal=False)))


@given(_NONNEGATIVE_SQUARE)
@example(np.zeros((2, 2)))
@example(np.zeros((3, 3)))
@example(np.array([[0.0, 1.0], [1.0, 0.0]]))
@example(np.array([[0.0, 0.0, 0.4], [0.4, 0.0, 0.0], [0.0, 0.4, 0.0]]))
@example(np.array([[0.0, 1e-200], [1e-200, 0.0]]))  # bc underflows
def test_spectral_radius_matches_dense_spectrum(rho):
    expect = float(np.max(np.abs(np.linalg.eigvals(rho))))
    assert abs(spectral_radius(rho) - expect) <= 1e-12 * expect


def test_spectral_radius_rejects_negative():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[-0.1]]))


def test_rho_and_stationary_rates():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    assert p.rho() == pytest.approx(np.array([[0.5]]))
    assert stationary_rates(p) == pytest.approx(np.array([2.0]))


def test_stationary_rates_poisson():
    p = ModelParams(np.array([1.5, 0.3]), np.zeros((2, 2, 4)), 1.0)
    assert stationary_rates(p) == pytest.approx(np.array([1.5, 0.3]))


def test_stationary_rates_two_marks():
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = 0.4
    h[:, :, 1] = 0.2
    p = ModelParams(np.array([1.0, 0.5]), h, 1.0)
    assert spectral_radius(p.rho()) == pytest.approx(0.6)
    # (I - rho^T)^{-1} nu with rho = 0.3 everywhere
    assert stationary_rates(p) == pytest.approx(np.array([2.125, 1.625]))


def test_supercritical_rejected():
    with pytest.raises(ValueError):
        ModelParams(np.array([1.0]), np.array([[[1.2]]]), 1.0)


def test_linear_rejects_negative_kernel():
    with pytest.raises(ValueError):
        ModelParams(np.array([1.0]), np.array([[[-0.1]]]), 1.0)


def test_relu_membership():
    # nu must dominate the negative-part sup
    ModelParams(np.array([1.0]), np.array([[[-0.5, 0.3]]]), 1.0, "relu")
    with pytest.raises(ValueError):
        ModelParams(np.array([0.4]), np.array([[[-0.5, 0.3]]]), 1.0,
                    "relu")


@pytest.mark.parametrize("support_end", [float("nan"), float("inf"),
                                         0.0, -1.0])
def test_rejects_support_end_not_positive_finite(support_end):
    # nan passed the old `<= 0` check; inf with h = 0 made rho_+ nan, which
    # passed the spectral-radius check
    for h in (np.full((1, 1, 1), 0.5), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="support_end"):
            ModelParams(np.array([1.0]), h, support_end)


def test_rejects_grid_without_cells():
    # m = 0 divided by zero in rho_plus
    with pytest.raises(ValueError, match="m >= 1"):
        ModelParams(np.array([1.0]), np.zeros((1, 1, 0)), 1.0)


def test_grid_properties():
    p = ModelParams(np.array([1.0]), np.zeros((1, 1, 8)), 2.0)
    assert p.K == 1
    assert p.n_cells == 8
    assert p.cell_width == 0.25
    assert p.rho()[0, 0] == 0.0

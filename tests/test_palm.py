import base64
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from hawkes_bvm.grids import Direction
from hawkes_bvm.palm import (PalmEstimates, _palm_image, bias_term,
                             efficient_estimate, estimate_palm,
                             info_operator_apply, info_operator_invert,
                             load_palm, optimal_variance, save_palm)
from hawkes_bvm.likelihood import LanEstimator, batch_means
from hawkes_bvm.model import ModelParams
from hawkes_bvm.simulate import simulate_thinning


def _reference():
    return ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)


def test_poisson_tensors_closed_form():
    palm = PalmEstimates.poisson(np.array([2.0, 0.5]), 1.0, 4)
    assert np.allclose(palm.a, [0.5, 2.0])
    assert palm.D[0, 1, 0] == pytest.approx(2.0 * 0.25 / 0.5)
    assert palm.p[1, 0, 3] == pytest.approx(0.5)
    assert palm.C[0, 1, 0, 2, 1] == pytest.approx(0.5 * 0.25 / 2.0)


def test_poisson_apply_hand_computed():
    # nu = 2, A = 1, m = 2; d = (xi=1, g=[1, 3])
    palm = PalmEstimates.poisson(np.array([2.0]), 1.0, 2)
    d = Direction(np.array([1.0]), np.array([[[1.0, 3.0]]]), 1.0)
    out = info_operator_apply(palm, d)
    # xi' = xi/nu + w sum g = 0.5 + 2.0
    assert out.xi[0] == pytest.approx(2.5)
    # g'_c = nu (xi/nu + g_c/nu + w sum g) = 5 + g_c
    assert np.allclose(out.g[0, 0], [6.0, 8.0])


def test_poisson_apply_matches_lan_closed_form():
    # <Gamma d, d'>_2 must equal the LAN inner product; for Poisson the
    # window counts are independent Poissons, giving a closed form
    nu, A, m = 2.0, 1.0, 4
    w = A / m
    palm = PalmEstimates.poisson(np.array([nu]), A, m)
    rng = np.random.default_rng(0)
    for _ in range(5):
        d1 = Direction(rng.normal(size=1), rng.normal(size=(1, 1, m)), A)
        d2 = Direction(rng.normal(size=1), rng.normal(size=(1, 1, m)), A)
        mean1 = d1.xi[0] + nu * w * d1.g.sum()
        mean2 = d2.xi[0] + nu * w * d2.g.sum()
        cov = nu * w * float(np.sum(d1.g * d2.g))
        expect = (mean1 * mean2 + cov) / nu
        got = info_operator_apply(palm, d1).l2_inner(d2)
        assert got == pytest.approx(expect, rel=1e-12)


def test_poisson_apply_self_adjoint_exact():
    palm = PalmEstimates.poisson(np.array([1.5, 0.6]), 1.0, 3)
    rng = np.random.default_rng(1)
    d1 = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 3)), 1.0)
    d2 = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 3)), 1.0)
    s12 = info_operator_apply(palm, d1).l2_inner(d2)
    s21 = info_operator_apply(palm, d2).l2_inner(d1)
    assert s12 == pytest.approx(s21, rel=1e-12)


def test_poisson_quadratic_form_nonnegative():
    palm = PalmEstimates.poisson(np.array([1.5, 0.6]), 1.0, 3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 3)), 1.0)
        assert info_operator_apply(palm, d).l2_inner(d) >= 0.0


def test_zeta_poisson():
    palm = PalmEstimates.poisson(np.array([2.0]), 1.0, 2)
    z = np.einsum("ljkcd,d->ljkc", palm.C, np.array([1.0, 3.0]))
    # zeta(g)(c) = nu w sum(g) / nu = 0.5 * 4
    assert np.allclose(z, 2.0)


def test_poisson_invert_round_trip():
    palm = PalmEstimates.poisson(np.array([2.0, 0.7]), 1.0, 4)
    rng = np.random.default_rng(3)
    d = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 4)), 1.0)
    target = info_operator_apply(palm, d)
    rec, residual, converged = info_operator_invert(palm, target)
    assert converged
    assert residual < 1e-6
    assert np.allclose(rec.xi, d.xi, atol=1e-6)
    assert np.allclose(rec.g, d.g, atol=1e-6)


def test_poisson_invert_background_target_analytic():
    # target (1, 0): xi = nu (1 + nu A), g = -nu  (constant)
    nu, A = 2.0, 1.0
    palm = PalmEstimates.poisson(np.array([nu]), A, 4)
    target = Direction(np.array([1.0]), np.zeros((1, 1, 4)), A)
    rec, residual, converged = info_operator_invert(palm, target)
    assert converged and residual < 1e-6
    assert rec.xi[0] == pytest.approx(nu * (1 + nu * A), abs=1e-6)
    assert np.allclose(rec.g, -nu, atol=1e-6)
    assert optimal_variance(rec, target) == pytest.approx(6.0, abs=1e-6)


def test_estimated_palm_poisson_matches_analytic():
    p0 = ModelParams(np.array([2.0]), np.zeros((1, 1, 2)), 1.0)
    palm = estimate_palm(p0, 2, n_anchors=600, n_points=3000, seed=4)
    exact = PalmEstimates.poisson(np.array([2.0]), 1.0, 2)
    assert np.allclose(palm.a, exact.a, rtol=0.05)
    p_se = batch_means(palm.p_b)[1]
    assert np.allclose(palm.p, exact.p, atol=4 * p_se + 1e-3)
    assert np.allclose(palm.D, exact.D, rtol=0.15)
    assert np.allclose(palm.C, exact.C, rtol=0.25)


@pytest.mark.parametrize("n_anchors, n_batches", [(10, 20), (2000, 1000)])
def test_estimated_palm_rejects_batches_without_anchors(n_anchors,
                                                        n_batches):
    # about 300 anchors on [0, 149]: too few for the batches either way;
    # an empty batch entered the pooled means as zeros
    with pytest.raises(ValueError, match="anchors"):
        estimate_palm(_reference(), 4, n_anchors=n_anchors, n_points=2000,
                      n_batches=n_batches, seed=5, horizon=150.0)


def test_estimated_palm_inverse_intensity_bound():
    # lambda >= nu pointwise in the linear model, so p <= 1/nu
    f0 = _reference()
    palm = estimate_palm(f0, 4, n_anchors=400, n_points=2000, seed=5)
    assert np.all(palm.p <= 1.0 / f0.nu.min() + 1e-12)
    assert np.all(palm.a <= 1.0 / f0.nu.min() + 1e-12)


def test_estimated_palm_self_adjoint_within_error():
    f0 = _reference()
    palm = estimate_palm(f0, 4, n_anchors=800, n_points=4000, seed=6)
    rng = np.random.default_rng(7)
    d1 = Direction(rng.normal(size=1), rng.normal(size=(1, 1, 4)), 1.0)
    d2 = Direction(rng.normal(size=1), rng.normal(size=(1, 1, 4)), 1.0)

    def image(b, d):  # Gamma_b(d) from batch b's tensors alone
        xi, g = _palm_image(palm.mu, palm.a_b[b], palm.D_b[b], palm.p_b[b],
                            palm.C_b[b], d.xi, d.g)
        return Direction(xi, g, d.support_end)

    diffs = np.array([image(b, d1).l2_inner(d2) - image(b, d2).l2_inner(d1)
                      for b in range(palm.n_batches)])
    se = diffs.std(ddof=1) / np.sqrt(palm.n_batches)
    scale = abs(info_operator_apply(palm, d1).l2_inner(d2))
    assert abs(diffs.mean()) < 4 * se + 0.05 * scale


def test_efficient_estimator_poisson_variance():
    # estimating nu with the kernel as nuisance: V0 = nu (1 + nu A) = 6
    nu, A, T = 2.0, 1.0, 500.0
    f0 = ModelParams(np.array([nu]), np.zeros((1, 1, 4)), A)
    palm = PalmEstimates.poisson(np.array([nu]), A, 4)
    target = Direction(np.array([1.0]), np.zeros((1, 1, 4)), A)
    psi_L, _, _ = info_operator_invert(palm, target)
    v0 = optimal_variance(psi_L, target)
    vals = []
    for rep in range(200):
        s = simulate_thinning(f0, T, seed=1000 + rep)
        est = efficient_estimate(nu, f0, psi_L, s, T)
        vals.append(np.sqrt(T) * (est - nu))
    vals = np.array(vals)
    assert abs(vals.mean()) < 4 * vals.std(ddof=1) / np.sqrt(vals.size)
    assert vals.var(ddof=1) == pytest.approx(v0, rel=0.25)


def test_bias_term_zero_when_target_in_span():
    f0 = _reference()
    lan = LanEstimator(f0, t_sim=500.0, n_points=5000, seed=9)
    e_nu = Direction(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    e_g = Direction(np.array([0.0]), np.ones((1, 1, 1)), 1.0)
    f_dir = Direction(np.array([1.0]), np.full((1, 1, 1), 0.5), 1.0)
    psi = Direction(np.array([0.3]), np.full((1, 1, 1), -0.2), 1.0)
    bj, se, flagged = bias_term([e_nu, e_g], f_dir, psi, lan)
    assert not flagged
    assert abs(bj) < max(4 * se, 1e-10)


def test_bias_term_matches_pooled_identity():
    f0 = _reference()
    lan = LanEstimator(f0, t_sim=500.0, n_points=5000, seed=10)
    basis = [Direction(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)]
    f_dir = Direction(np.array([0.0]), np.ones((1, 1, 1)), 1.0)
    psi = Direction(np.array([0.5]), np.full((1, 1, 1), -1.0), 1.0)
    bj, se, _ = bias_term(basis, f_dir, psi, lan)
    G, _ = lan.gram(basis + [f_dir, psi])
    alpha = G[0, 1] / G[0, 0]
    expect = -(G[1, 2] - alpha * G[0, 2])
    assert bj == pytest.approx(expect, rel=1e-8)
    assert se >= 0


def test_bias_cauchy_schwarz_bound():
    f0 = _reference()
    lan = LanEstimator(f0, t_sim=500.0, n_points=5000, seed=11)
    basis = [Direction(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)]
    f_dir = Direction(np.array([0.0]), np.ones((1, 1, 1)), 1.0)
    psi = Direction(np.array([0.5]), np.full((1, 1, 1), -1.0), 1.0)
    bj, _, _ = bias_term(basis, f_dir, psi, lan)
    G, _ = lan.gram(basis + [f_dir, psi])
    a_f = G[0, 1] / G[0, 0]
    a_p = G[0, 2] / G[0, 0]
    resid_f = G[1, 1] - 2 * a_f * G[0, 1] + a_f ** 2 * G[0, 0]
    resid_p = G[2, 2] - 2 * a_p * G[0, 2] + a_p ** 2 * G[0, 0]
    assert abs(bj) <= np.sqrt(max(resid_f, 0) * max(resid_p, 0)) + 1e-10


class _FixedGram:
    """A stand-in LanEstimator whose one batch Gram is G."""

    def __init__(self, G):
        self.G = G

    def gram_batches(self, dirs):
        assert len(dirs) == self.G.shape[0]
        return self.G[None]


def _ones_plus(eps):
    """The 4 x 4 basis Gram J + eps I and zero rows for f and psi_L: its
    1-norm condition is 6/eps + 1 and its 2-norm condition 4/eps + 1."""
    G = np.zeros((6, 6))
    G[:4, :4] = np.ones((4, 4)) + eps * np.eye(4)
    G[4:, 4:] = np.eye(2)
    return G


@pytest.mark.parametrize("G, flagged", [
    # 1-norm condition just above 1e12 (the 2-norm one is below it)
    (_ones_plus(6.0 / 1.01e12), True),
    (_ones_plus(6.0 / 0.99e12), False),
    # singular: the 1-norm condition is inf
    (_ones_plus(0.0), True)])
def test_bias_term_flags_by_the_one_norm_condition(G, flagged):
    bj, se, ridge = bias_term([None] * 4, None, None, _FixedGram(G))
    assert ridge is flagged
    # the ridge makes even the singular Gram solvable
    assert np.isfinite(bj) and se == 0.0


def test_palm_json_and_file_round_trip(tmp_path):
    _check_round_trip(PalmEstimates.poisson(np.array([2.0, 0.5]), 1.0, 3),
                      tmp_path)


def _check_round_trip(palm, tmp_path):
    """palm back from its file, bit for bit."""
    path = str(tmp_path / "palm.npz")
    save_palm(palm, path)
    back = load_palm(path)
    assert back.support_end == palm.support_end
    for name in ("mu", "a_b", "D_b", "p_b", "C_b"):
        assert np.array_equal(getattr(back, name), getattr(palm, name))


def test_saved_palm_file_is_byte_deterministic(tmp_path):
    # written to exactly its path, whatever the suffix; several batches,
    # marks and cells
    f0 = ModelParams(np.array([1.2, 1.0]), np.full((2, 2, 2), 0.1), 1.0)
    palm = estimate_palm(f0, 4, n_anchors=300, n_points=400, n_batches=3,
                         seed=5)
    for est in (palm, PalmEstimates.poisson(np.array([2.0]), 1.0, 1)):
        first, again = tmp_path / "palm.json", tmp_path / "again.json"
        save_palm(est, str(first))
        save_palm(est, str(again))
        assert first.read_bytes() == again.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["again.json", "palm.json"]


def test_save_palm_streams_the_archive_into_its_file(tmp_path):
    # k2-mixed's tensor shapes: B = 20, K = 2, m = 32; C_b is 1.31 MB
    rng = np.random.default_rng(3)
    B, K, m = 20, 2, 32
    palm = PalmEstimates(1.0, rng.random(K), rng.random((B, K)),
                         rng.random((B, K, K, m)), rng.random((B, K, K, m)),
                         rng.random((B, K, K, K, m, m)))
    path = tmp_path / "palm.npz"
    tracemalloc.start()
    try:
        save_palm(palm, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buf = io.BytesIO()
    np.savez(buf, **_arrays(palm))
    assert path.read_bytes() == buf.getvalue()
    # about one copy of C_b, not the archive in memory twice (2.67 MB)
    assert peak <= 1.4e6


def _palm_case(K):
    """Estimated Palm tensors at K marks: B = 3 batches, m = 4 cells."""
    f0 = ModelParams(np.linspace(1.2, 0.8, K),
                     np.full((K, K, 2), 0.2 / K), 1.0)
    return estimate_palm(f0, 4, n_anchors=300, n_points=400, n_batches=3,
                         seed=K)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_estimated_palm_file_round_trip_keeps_every_bit(tmp_path, K):
    _check_round_trip(_palm_case(K), tmp_path)


def _arrays(palm):
    """The arrays `save_palm` writes for palm, by name."""
    return {"A": palm.support_end, "mu": palm.mu, "a_b": palm.a_b,
            "D_b": palm.D_b, "p_b": palm.p_b, "C_b": palm.C_b}


def _other_palm(axis):
    """Palm estimates that differ from `_palm_case(2)` (B = 3, K = 2,
    m = 4) in one of B, K and m."""
    if axis == "B":
        return PalmEstimates.poisson(np.array([1.2, 0.8]), 1.0, 4)
    if axis == "K":
        return _palm_case(1)
    f0 = ModelParams(np.array([1.2, 0.8]), np.full((2, 2, 2), 0.1), 1.0)
    return estimate_palm(f0, 2, n_anchors=300, n_points=400, n_batches=3,
                         seed=2)


@pytest.mark.parametrize("name, axis", [("p_b", "B"), ("a_b", "K"),
                                        ("C_b", "m")])
def test_palm_json_refuses_tensors_that_disagree(tmp_path, name, axis):
    arrays = _arrays(_palm_case(2))
    arrays[name] = getattr(_other_palm(axis), name)
    path = str(tmp_path / "palm.npz")
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"palm.npz: {name} has shape"):
        load_palm(path)


def test_load_palm_refuses_the_base64_json_format(tmp_path):
    # the format before numpy archives: base64 rows of float64 bytes
    row = base64.b64encode(np.array([0.5]).tobytes()).decode()
    tensor = {"shape": [1, 1], "rows": [row]}
    path = tmp_path / "palm.json"
    path.write_text(json.dumps({"A": 1.0, "mu": [2.0], "a_b": tensor}))
    with pytest.raises(ValueError,
                       match="palm.json is not a numpy .npz archive"):
        load_palm(str(path))


def test_load_palm_refuses_an_npy_file(tmp_path):
    path = str(tmp_path / "palm.npy")
    np.save(path, _palm_case(2).C_b)
    with pytest.raises(ValueError, match="palm.npy is not a numpy .npz"):
        load_palm(path)


def test_load_palm_refuses_an_archive_without_c_b(tmp_path):
    arrays = _arrays(PalmEstimates.poisson(np.array([2.0, 0.5]), 1.0, 3))
    del arrays["C_b"]
    path = str(tmp_path / "palm.npz")
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="palm.npz holds no C_b"):
        load_palm(path)


def test_grid_mismatch_rejected():
    palm = PalmEstimates.poisson(np.array([2.0]), 1.0, 4)
    d = Direction(np.array([1.0]), np.zeros((1, 1, 2)), 1.0)
    with pytest.raises(ValueError):
        info_operator_apply(palm, d)
    with pytest.raises(ValueError):
        info_operator_invert(palm, d)


def test_support_end_mismatch_rejected():
    # same K and cell count, but the direction lives on [0, 2]
    palm = PalmEstimates.poisson(np.array([2.0]), 1.0, 4)
    d = Direction(np.array([1.0]), np.ones((1, 1, 4)), 2.0)
    with pytest.raises(ValueError):
        info_operator_apply(palm, d)
    with pytest.raises(ValueError):
        info_operator_invert(palm, d)

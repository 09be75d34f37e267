import numpy as np
import pytest

from hawkes_bvm.functionals import (FunctionalSpec, eval_functional,
                                    eval_functional_values,
                                    parse_functional, riesz_representor)
from hawkes_bvm.model import ModelParams


def _params():
    h = np.zeros((2, 2, 2))
    h[0, 0] = [0.4, 0.2]
    h[0, 1] = [0.1, 0.3]
    return ModelParams(np.array([2.0, 0.5]), h, 1.0)


def test_eval_background():
    spec = FunctionalSpec("background", k=1)
    assert eval_functional(spec, _params()) == 2.0


def test_eval_squared_l2():
    spec = FunctionalSpec("squared_l2", l=1, k=1)
    # 0.5 * (0.16 + 0.04)
    assert eval_functional(spec, _params()) == pytest.approx(0.1)


def test_eval_linear():
    spec = FunctionalSpec("linear", l=1, k=2, a=np.array([1.0, 2.0]))
    # 0.5 * (1*0.1 + 2*0.3)
    assert eval_functional(spec, _params()) == pytest.approx(0.35)


def test_eval_values_matches_model_path():
    p = _params()
    for spec in (FunctionalSpec("background", k=2),
                 FunctionalSpec("squared_l2", l=1, k=2),
                 FunctionalSpec("linear", l=1, k=1, a=0.5)):
        assert eval_functional_values(spec, p.nu, p.h, 1.0) == \
            eval_functional(spec, p)


def test_parse_round_trip():
    s = parse_functional("background 2")
    assert s.kind == "background" and s.k == 2
    s = parse_functional("squared_l2 1 2")
    assert (s.kind, s.l, s.k) == ("squared_l2", 1, 2)
    s = parse_functional("linear 2 1 0.25")
    assert s.a == 0.25
    for weight in ("nan", "inf", "-inf", "0", "-0.0"):
        with pytest.raises(ValueError, match="functional weight"):
            parse_functional(f"linear 2 1 {weight}")
    with pytest.raises(ValueError):
        parse_functional("cubic 1")
    with pytest.raises(ValueError):
        parse_functional("background")


def test_index_validation():
    with pytest.raises(ValueError):
        eval_functional(FunctionalSpec("background", k=3), _params())
    with pytest.raises(ValueError):
        FunctionalSpec("squared_l2", l=0)


def test_representor_background():
    d = riesz_representor(FunctionalSpec("background", k=2), _params())
    assert np.allclose(d.xi, [0.0, 1.0])
    assert np.all(d.g == 0)


def test_representor_squared_l2():
    p = _params()
    d = riesz_representor(FunctionalSpec("squared_l2", l=1, k=1), p)
    assert np.allclose(d.g[0, 0], [0.8, 0.4])
    assert np.all(d.xi == 0)


def test_representor_linear_is_exact_gradient():
    # a linear functional equals its representor inner product exactly
    p = _params()
    spec = FunctionalSpec("linear", l=1, k=2, a=np.array([1.0, 2.0]))
    d = riesz_representor(spec, p)
    from hawkes_bvm.grids import Direction
    f_dir = Direction(p.nu, p.h, 1.0)
    assert d.l2_inner(f_dir) == pytest.approx(eval_functional(spec, p))


def test_first_order_consistency_squared_l2():
    # psi(f0 + eps d) - psi(f0) - eps <representor, d> = O(eps^2)
    p = _params()
    spec = FunctionalSpec("squared_l2", l=1, k=1)
    rep = riesz_representor(spec, p)
    rng = np.random.default_rng(0)
    from hawkes_bvm.grids import Direction
    d = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 2)), 1.0)

    def remainder(eps):
        val = eval_functional_values(spec, p.nu + eps * d.xi,
                                     p.h + eps * d.g, 1.0)
        return abs(val - eval_functional(spec, p) - eps * rep.l2_inner(d))

    slope = np.log2(remainder(0.02) / remainder(0.01))
    assert slope > 1.9


def test_weight_broadcasting():
    spec = FunctionalSpec("linear", l=1, k=1, a=np.array([1.0, 2.0]))
    assert np.allclose(spec._a_values(4), [1.0, 1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        spec._a_values(3)


def test_describe():
    assert FunctionalSpec("background", k=1).describe() == "nu_1"
    assert "h_12" in FunctionalSpec("squared_l2", l=1, k=2).describe()

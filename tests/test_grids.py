import numpy as np
import pytest

from hawkes_bvm.grids import Direction


def test_direction_inner_product():
    d1 = Direction(np.array([1.0, 0.0]), np.ones((2, 2, 4)), 1.0)
    d2 = Direction(np.array([0.0, 2.0]), np.ones((2, 2, 4)), 1.0)
    # xi.xi' = 0; g part = sum over 4 slots of int 1*1 = 4
    assert d1.l2_inner(d2) == pytest.approx(4.0)
    assert d1.l2_norm() == pytest.approx(np.sqrt(1.0 + 4.0))


def test_direction_refine_preserves_norm():
    rng = np.random.default_rng(0)
    d = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 3)), 1.5)
    r = d.refine(4)
    assert r.n_cells == 12
    assert r.l2_norm() == pytest.approx(d.l2_norm())
    assert r.l2_inner(r) == pytest.approx(d.l2_inner(d))

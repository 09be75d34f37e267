import hawkes_bvm

# names deleted from the package because only tests called them
DELETED = ("GridFunction", "OperatorImage", "apply_palm_zeta",
           "info_operator_apply_batched", "intensity_at",
           "lan_inner_product", "max_window_count", "palm_cache_key",
           "project_L2")


def test_public_names_resolve_once_and_exclude_deleted():
    names = hawkes_bvm.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hawkes_bvm, name) is not None
    assert not any(hasattr(hawkes_bvm, name) for name in DELETED)

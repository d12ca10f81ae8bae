"""The package's public surface: ``__all__`` lists each exported name once,
and every listed name resolves."""

import lpmono


def test_star_import():
    namespace = {}
    exec("from lpmono import *", namespace)
    assert set(lpmono.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(lpmono.__all__) == len(set(lpmono.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in lpmono.__all__ if not hasattr(lpmono, name)]
    assert missing == []


def test_trace_row_importable_but_not_listed():
    from lpmono.solver import TraceRow

    assert TraceRow.__module__ == "lpmono.solver"
    assert "TraceRow" not in lpmono.__all__


def test_identity_op_importable_but_not_listed():
    from lpmono.operators import identity_op

    assert identity_op.__module__ == "lpmono.operators"
    assert "identity_op" not in lpmono.__all__
    assert not hasattr(lpmono, "identity_op")

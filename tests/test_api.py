"""The public API: every exported name resolves, and removed names stay gone."""

import scfqkd
from scfqkd import estimator, keyrate


def test_every_name_in_all_resolves():
    assert len(set(scfqkd.__all__)) == len(scfqkd.__all__)
    for name in scfqkd.__all__:
        assert hasattr(scfqkd, name), name
    namespace = {}
    exec("from scfqkd import *", namespace)
    assert set(scfqkd.__all__) <= set(namespace)


def test_tally_set_class_is_gone():
    """A test or key subset is a (state, cell) array of
    ``SessionTallies.cells``; there is no second tally type to export."""
    for module in (scfqkd, keyrate, estimator):
        assert not hasattr(module, "TallySet"), module.__name__

import driftcast


def test_every_exported_name_resolves():
    # a stale __all__ entry only fails on `from driftcast import *`
    missing = [name for name in driftcast.__all__ if not hasattr(driftcast, name)]
    assert missing == []

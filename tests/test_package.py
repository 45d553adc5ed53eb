"""Package surface: the names spinscape exports."""

import spinscape


def test_every_exported_name_resolves():
    # a stale __all__ entry would break ``from spinscape import *``
    missing = [name for name in spinscape.__all__ if not hasattr(spinscape, name)]
    assert missing == []
    assert len(set(spinscape.__all__)) == len(spinscape.__all__)

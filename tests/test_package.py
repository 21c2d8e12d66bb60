"""The package's public names."""

import uqcm


def test_every_name_in_all_resolves():
    assert [name for name in uqcm.__all__ if not hasattr(uqcm, name)] == []

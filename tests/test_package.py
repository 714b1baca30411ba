"""The package's public names."""

import gmmcloud


def test_every_exported_name_resolves_once():
    names = gmmcloud.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gmmcloud, name)]
    assert missing == []

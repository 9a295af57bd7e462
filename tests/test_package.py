import monolearn


def test_every_exported_name_resolves():
    missing = [name for name in monolearn.__all__ if not hasattr(monolearn, name)]
    assert missing == []
    assert len(set(monolearn.__all__)) == len(monolearn.__all__)

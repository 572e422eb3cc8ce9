import dampedwave


def test_every_public_name_resolves():
    missing = [name for name in dampedwave.__all__ if not hasattr(dampedwave, name)]
    assert missing == []
    assert len(set(dampedwave.__all__)) == len(dampedwave.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from dampedwave import *", namespace)
    assert set(dampedwave.__all__) <= set(namespace)

"""Tests for the package's public namespace."""
import squeezecert


def test_every_exported_name_resolves_once():
    names = squeezecert.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(squeezecert, name)] == []

import cgmargin


def test_every_exported_name_resolves():
    assert [name for name in cgmargin.__all__ if not hasattr(cgmargin, name)] == []

import types

import omlat


def test_all_names_no_modules():
    assert omlat.__all__ == sorted(set(omlat.__all__))
    for name in omlat.__all__:
        assert not isinstance(getattr(omlat, name), types.ModuleType), name

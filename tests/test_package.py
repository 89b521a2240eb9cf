import ast
import pathlib
import types

import omlat

# The solver's independent oracle: public so a user can check a solution,
# and never called by the solver itself.
UNCALLED_IN_PACKAGE = {"el_residual_example5"}


def test_all_names_no_modules():
    assert omlat.__all__ == sorted(set(omlat.__all__))
    for name in omlat.__all__:
        assert not isinstance(getattr(omlat, name), types.ModuleType), name


def test_every_public_name_has_a_caller_in_the_package():
    # names loaded by code (not docstrings) in the modules besides
    # __init__, whose imports alone do not make a caller
    loaded = set()
    for source in pathlib.Path(omlat.__file__).parent.glob("*.py"):
        if source.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    uncalled = sorted(set(omlat.__all__) - loaded - UNCALLED_IN_PACKAGE)
    assert not uncalled, f"public names with no caller in the package: {uncalled}"

import ast
import pathlib
import types

import omlat

# The solver's independent oracle: public so a user can check a solution,
# and never called by the solver itself.
UNCALLED_IN_PACKAGE = {"el_residual_example5"}

# Key tags of noise._philox_key that are retired: their key spaces served
# streams that no longer exist, and reusing one would revive old draws.
RETIRED_TAGS = {2, 4}

SOURCES = sorted(pathlib.Path(omlat.__file__).parent.glob("*.py"))


def test_all_names_no_modules():
    assert omlat.__all__ == sorted(set(omlat.__all__))
    for name in omlat.__all__:
        assert not isinstance(getattr(omlat, name), types.ModuleType), name


def test_every_public_name_has_a_caller_in_the_package():
    # names loaded by code (not docstrings) in the modules besides
    # __init__, whose imports alone do not make a caller
    loaded = set()
    for source in SOURCES:
        if source.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    uncalled = sorted(set(omlat.__all__) - loaded - UNCALLED_IN_PACKAGE)
    assert not uncalled, f"public names with no caller in the package: {uncalled}"


def test_philox_only_in_noise():
    # the noise rows re-key one Philox row by row; every Monte Carlo block
    # draws from SFC64 through noise._block_bits
    users = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if (
                (isinstance(node, ast.Name) and node.id == "Philox")
                or (isinstance(node, ast.Attribute) and node.attr == "Philox")
                or (isinstance(node, ast.alias) and node.name == "Philox")
            ):
                users.add(source.name)
    assert users <= {"noise.py"}, f"Philox used outside noise.py: {sorted(users - {'noise.py'})}"


def test_key_tags_distinct_and_not_retired():
    tree = ast.parse((pathlib.Path(omlat.__file__).parent / "noise.py").read_text())
    tags = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.startswith("_TAG_")
    }
    assert tags, "no _TAG_ constants found in noise.py"
    values = list(tags.values())
    assert len(set(values)) == len(values), f"tags share a value: {tags}"
    assert not RETIRED_TAGS & set(values), f"a retired tag is reused: {tags}"

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import types

import omlat

# Dataclass fields that no package code reads, each with its reason.
UNREAD_FIELDS = {}

# Key tags of noise._philox_key that are retired: their key spaces served
# streams that no longer exist, and reusing one would revive old draws.
RETIRED_TAGS = {2, 4}

SOURCES = sorted(pathlib.Path(omlat.__file__).parent.glob("*.py"))


def test_all_names_no_modules():
    assert omlat.__all__ == sorted(set(omlat.__all__))
    for name in omlat.__all__:
        assert not isinstance(getattr(omlat, name), types.ModuleType), name


def test_every_public_name_has_a_caller_in_the_package():
    # names loaded as names by code (not docstrings) in the modules besides
    # __init__, whose imports alone do not make a caller.  Package modules
    # import public names with ``from .x import name``, so an attribute of
    # the same name, such as the method ``KLSpectrum.residuals``, is not a
    # caller
    loaded = set()
    for source in SOURCES:
        if source.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    uncalled = sorted(set(omlat.__all__) - loaded)
    assert not uncalled, f"public names with no caller in the package: {uncalled}"


def test_every_module_level_name_is_used_in_the_package():
    # a module-level assignment, function or class (dunders aside) counts
    # as used when package code loads it, reads an attribute of its name
    # or imports it; any other is dead code
    defined, used = {}, set()
    for source in SOURCES:
        tree = ast.parse(source.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if not (name.startswith("__") and name.endswith("__")):
                    defined[name] = source.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = sorted(f"{defined[name]}: {name}" for name in defined.keys() - used)
    assert not dead, f"module-level names that no package code uses: {dead}"


def _package_dataclasses():
    for source in SOURCES:
        if source.stem.startswith("__"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"omlat.{source.stem}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_every_dataclass_field_has_a_reader_in_the_package():
    # a field counts as read when package code loads an attribute of its
    # name.  The check is by name only, so it cannot see a field whose
    # only readers are namesakes on other objects: a small-ball result's
    # ``eps`` would pass through the tube table's ``table.eps``, and a
    # bounds record's ``alpha`` and ``rho`` through ``args.alpha`` and
    # ``cfg.rho``.  Such fields have to be found by reading the code.
    read = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(
        f"{cls.__name__}.{f.name}"
        for cls in _package_dataclasses()
        for f in dataclasses.fields(cls)
        if f.name not in read and f"{cls.__name__}.{f.name}" not in UNREAD_FIELDS
    )
    assert not unread, f"dataclass fields with no reader in the package: {unread}"


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


def test_csv_read_only_in_io():
    # omlat.io.read_csv reads every CSV of numbers, with its line-numbered
    # errors: no numpy text loader anywhere, and no csv module outside io
    loaders = {"loadtxt", "genfromtxt"}
    users = set()
    for source in SOURCES:
        banned = loaders if source.name == "io.py" else loaders | {"csv"}
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            else:
                continue
            if names & banned:
                users.add(source.name)
    assert not users, f"a CSV read outside omlat.io.read_csv: {sorted(users)}"


def test_files_written_and_json_used_only_in_io():
    # omlat.io owns every text format: no other module imports json, opens
    # a file or writes one (cli's mkdir makes the output directory only)
    banned = {"json", "open", "write_text", "write_bytes"}
    users = set()
    for source in SOURCES:
        if source.name == "io.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                continue
            if names & banned:
                users.add(source.name)
    assert not users, f"json, open or a file write outside omlat.io: {sorted(users)}"


def test_scale_bounds_only_in_check_scale():
    # utils.check_scale holds the rule that a radius or a rate lies in
    # [1e-150, 1e150]; the bounds anywhere else are a second copy of it
    utils = pathlib.Path(omlat.__file__).parent / "utils.py"
    (helper,) = [n for n in ast.parse(utils.read_text()).body if getattr(n, "name", None) == "check_scale"]
    stray = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            bound = (type(value) is float and abs(value) in (1e-150, 1e150)) or (
                isinstance(value, str) and ("1e-150" in value or "1e150" in value)
            )
            if bound and not (source == utils and helper.lineno <= node.lineno <= helper.end_lineno):
                stray.append(f"{source.name}:{node.lineno}")
    assert not stray, f"the scale bounds outside utils.check_scale: {stray}"


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


def test_ctypes_and_lapack_only_in_mpp():
    # the package uses no ctypes, and the solver is its one direct LAPACK
    # caller: any other module that called LAPACK would bypass the
    # solver's lazy load of scipy's wrappers
    assert not any("ctypes" in source.read_text() for source in SOURCES), "ctypes used in src/omlat"
    lapack = {
        "_flapack", "cython_lapack", "lapack", "get_lapack_funcs", "dpbtrf", "dpbtrs",
        "solveh_banded", "cholesky_banded", "cho_solve_banded",
    }
    users = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = set(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names = set((node.module or "").split("."))
            else:
                continue
            if names & lapack:
                users.add(source.name)
    assert users <= {"mpp.py"}, f"LAPACK used outside mpp.py: {sorted(users - {'mpp.py'})}"


def test_importing_the_cli_leaves_scipy_linalg_unloaded(tmp_path):
    # scipy.linalg's __init__ imports numpy.testing and numpy.f2py, most of
    # the time and memory of an import; mpp loads the one scipy.linalg
    # extension it calls by itself, and only when it runs, so a command
    # that never solves never maps scipy's OpenBLAS.  Checked by module,
    # not by time.
    heavy = ("scipy.linalg", "numpy.testing", "numpy.f2py", "scipy.linalg._flapack")
    src = os.path.dirname(os.path.dirname(os.path.realpath(omlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text("n = 0\nnu = 0.1\nlambda = 0.4\nf_coeffs =\np = 1\nC_f = 1.0\ng = zero\n"
                   "q_spec = constant:1.0\nrho = uniform\nT = 1\n")
    commands = {
        "import": None,
        "verify kl": ["verify", "kl", "--lambda", "0.4", "--m", "3", "--out", str(tmp_path / "kl")],
        "mpp": ["mpp", "--config", str(cfg), "--dt", "0.125", "--out", str(tmp_path / "mpp")],
    }
    code = (
        "import contextlib, io, json, sys\n"
        "import omlat.cli\n"
        "from omlat import mpp\n"
        "loads, load = [], mpp._flapack\n"
        "mpp._flapack = lambda: loads.append(1) or load()\n"
        "seen = {}\n"
        f"for name, argv in {commands!r}.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = argv and omlat.cli.main(argv)\n"
        f"    seen[name] = (code, sorted(m for m in {heavy!r} if m in sys.modules), len(loads))\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout)
    assert seen["import"] == [None, [], 0], f"import omlat.cli loaded {seen['import'][1]}"
    assert seen["verify kl"] == [0, [], 0], f"verify kl loaded {seen['verify kl'][1]}"
    assert seen["mpp"] == [0, ["scipy.linalg._flapack"], 1]

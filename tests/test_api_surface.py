"""Every public module-level function or class of the package must have a
user besides the tests: package code that refers to it, or a mention in the
benchmark (`bench/`), a demo (`demos/`) or a tool (`tools/`).  A name that
only its own tests call is dead weight; delete it with its tests, or list it
below with the reason it stays.  A private module-level function has no
such outside user: package code must refer to it.  Every function that the
benchmark's tracer reports by name must exist in the package, and so must
every package attribute that a demo or a tool loads.  Periodic multipliers
go through ``spectral.fourier_map``'s real transforms: the complex 1-D FFT
is left only to the circulant build."""

import ast
import importlib
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "ibstokes")
USERS = ("bench", "demos", "tools")

ALLOWED = {
    "geometry.radius_variation": "the measurement behind acceptance criterion 4",
}


def _sources(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield name[:-3], fh.read()


TREES = {module: ast.parse(text) for module, text in _sources(PACKAGE)}
OUTSIDE = [text for d in USERS for _, text in _sources(os.path.join(ROOT, d))]


def _public_names():
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield module, node.name


def _private_functions():
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                yield module, node.name


def _referenced_in_package():
    """Identifiers that package code loads, by name or as an attribute
    (docstrings and comments do not count)."""
    seen = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_allowlist_names_exist():
    public = {f"{module}.{name}" for module, name in _public_names()}
    assert set(ALLOWED) <= public


def test_every_public_name_has_a_user_besides_tests():
    referenced = _referenced_in_package()
    unused = [f"{module}.{name}" for module, name in _public_names()
              if f"{module}.{name}" not in ALLOWED and name not in referenced
              and not any(re.search(rf"\b{name}\b", text) for text in OUTSIDE)]
    assert not unused, f"called only by tests: {unused}"


def test_every_private_function_is_used_by_package_code():
    referenced = _referenced_in_package()
    unused = [f"{module}.{name}" for module, name in _private_functions()
              if name not in referenced]
    assert not unused, f"private functions no package code refers to: {unused}"


def _tracer_named():
    """``NAMED`` of the benchmark's tracer, read from its source without
    importing the benchmark."""
    with open(os.path.join(ROOT, "bench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "NAMED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no NAMED")


def test_every_name_the_tracer_reports_exists():
    # a renamed or deleted function would otherwise show only as the
    # benchmark's trace.missing_names count
    defined = {(module, node.name) for module, tree in TREES.items() for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    missing = [f"{layer}.{name}" for layer, names in _tracer_named().items()
               for name in names if (layer, name) not in defined]
    assert not missing, f"bench/tracer.py names functions the package lacks: {missing}"


def _script_references():
    """(module, attribute) for every package attribute that a demo or a tool
    loads, read from the scripts' source without running them: the names
    they import from a package module, and the attributes they read through
    a name bound to one."""
    refs = set()
    for directory in ("demos", "tools"):
        for _, text in _sources(os.path.join(ROOT, directory)):
            tree = ast.parse(text)
            bound = {}  # local name -> package module
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "ibstokes":
                    bound.update((a.asname or a.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ibstokes."):
                    refs.update((node.module[len("ibstokes."):], a.name) for a in node.names)
                elif isinstance(node, ast.Import):
                    bound.update((a.asname, a.name[len("ibstokes."):]) for a in node.names
                                 if a.asname and a.name.startswith("ibstokes."))
            refs.update((bound[node.value.id], node.attr) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in bound)
    return refs


def test_every_attribute_a_demo_or_tool_loads_exists():
    # a demo or tool that calls a deleted function fails only when it is run
    refs = _script_references()
    assert refs
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"ibstokes.{module}"), name)]
    assert not missing, f"demos/ or tools/ load names the package lacks: {missing}"


# the complex 1-D transforms' users: the circulant's first column, and the
# grid transform pair, whose complex pass along the first axis is one of a
# real 2-D transform's two passes
COMPLEX_FFT_ALLOWED = {("schemes", "_circulant_from_multiplier"),
                       ("stokes", "_rfft2"), ("stokes", "_irfft2")}


def test_complex_fft_only_in_circulant_build():
    found = []
    for module, tree in TREES.items():
        for top in tree.body:
            owner = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("fft", "ifft") \
                        and ast.unparse(node.value) == "np.fft":
                    found.append(owner)
    assert set(found) == COMPLEX_FFT_ALLOWED, \
        f"np.fft.fft / np.fft.ifft outside the circulant build and the grid pair: " \
        f"{sorted(set(found))}"

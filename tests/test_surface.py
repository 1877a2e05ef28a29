"""Guards on the package surface: every exported name exists and is used
somewhere in the package, as is every public class member, every module
reads what it imports unless the benchmark's layer tracer wraps that
binding, every binding the tracer wraps still resolves, so a deletion that
would break the traced run fails here first, and the smooth-step kernel and
the CLI run without the packages only the test oracles use."""

import ast
import glob
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import attractorlab
from attractorlab import geometry

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")

# Exported names that nothing in the package uses yet, with the reason each stays.
KEEP = {
    "separated_count_exact": "closed-form section-4 counter: reuse or delete",
    "separated_count_log": "closed-form section-4 counter: reuse or delete",
    "smoothness_criterion": "forcing's C^k-in-H^s verdict beside the dimension: "
                            "reuse or delete",
    "adaptive_simpson": "tracer-pinned until ROADMAP item 1's benchmark step",
}


def load_layers():
    """perfbench/layers.py as a module, or None in a checkout without it."""
    if not os.path.exists(LAYERS):
        return None
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def tracer_bindings() -> set:
    """(module file, attribute) of every binding the layer tracer wraps."""
    layers = load_layers()
    if layers is None:
        return set()
    return {(f"{module}.py", attr) for module, attr, *_ in layers.WRAPS}


def package_modules():
    return [importlib.import_module(f"attractorlab.{m.name}")
            for m in pkgutil.iter_modules(attractorlab.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", package_modules(), ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def package_trees() -> dict:
    package = os.path.dirname(os.path.abspath(attractorlab.__file__))
    trees = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        trees[os.path.basename(path)] = (ast.parse(source, path), source.splitlines())
    return trees


def names_read(tree) -> set:
    """Every name the tree reads as a name or an attribute; binding a name
    is no read."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def package_names_read() -> set:
    """Names read anywhere in the package; the re-exports in __init__ count
    as no use."""
    return set().union(*(names_read(tree) for name, (tree, _) in package_trees().items()
                         if name != "__init__.py"))


def test_every_export_is_used():
    """Each name in a module's __all__ is read (as a name or an attribute)
    somewhere in the package, so a public function no command reaches fails
    here."""
    used, exported = package_names_read(), {}
    for module, (tree, _) in package_trees().items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    exported[name] = module
    unused = {name: module for name, module in exported.items() if name not in used}
    assert {name: module for name, module in unused.items() if name not in KEEP} == {}
    assert set(KEEP) <= set(unused), "a KEEP entry is used now; drop it from KEEP"


def test_every_class_member_is_used():
    """Each public method, property and dataclass field of a package class
    is read somewhere in the package, by the rule the exports follow."""
    used, members = package_names_read(), {}
    for module, (tree, _) in package_trees().items():
        if module == "__init__.py":
            continue
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members[f"{module}:{cls.name}.{name}"] = name
    assert {member for member, name in members.items() if name not in used} == set()


def imported_names(tree):
    """(line, bound name) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_read():
    """Each name a module imports is read in that module, unless its import
    statement carries `# noqa: F401` and the layer tracer wraps that name's
    binding in that module; __init__ imports only to re-export."""
    pinned = tracer_bindings()
    unread = []
    for module, (tree, lines) in package_trees().items():
        if module == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        statements = {node.lineno: node.end_lineno for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))}
        for line, name in imported_names(tree):
            marked = any("# noqa: F401" in lines[k - 1]
                         for k in range(line, statements[line] + 1))
            if name not in read and not (marked and (module, name) in pinned):
                unread.append(f"{module}:{line}: {name}")
    assert unread == []


def test_tracer_bindings_resolve():
    layers = load_layers()
    if layers is None:
        pytest.skip("no layer tracer in this checkout")
    original = geometry.box_count
    tracer = layers.Tracer()
    try:
        tracer.install()  # raises TraceMapError when a wrapped name is gone
        assert geometry.box_count is not original
    finally:
        tracer.uninstall()
    assert geometry.box_count is original


@pytest.mark.parametrize("module", ["sympy", "scipy"])
def test_runs_without(module):
    # a fresh interpreter, so no earlier import in this session can mask it
    code = (
        "import sys\n"
        "import attractorlab.cli\n"
        "from attractorlab.cutoffs import mollifier_bump\n"
        "bump = mollifier_bump(0.0, 1.0, 0.3, 0.7)\n"
        "for k in range(7):\n"
        "    bump.derivative([0.1, 0.2, 0.8], k)\n"
        f"assert {module!r} not in sys.modules, '{module} was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(attractorlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

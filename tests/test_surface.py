"""Guards on the package surface: every exported name exists and is used
somewhere in the package, every binding the benchmark's layer tracer wraps
still resolves, so a deletion that would break the traced run fails here
first, and the smooth-step kernel and the CLI run without the packages only
the test oracles use."""

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
}


def package_modules():
    return [importlib.import_module(f"attractorlab.{m.name}")
            for m in pkgutil.iter_modules(attractorlab.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", package_modules(), ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_every_export_is_used():
    """Each name in a module's __all__ is read (as a name or an attribute)
    somewhere in the package, so a public function no command reaches fails
    here; the re-exports in __init__ count as no use."""
    package = os.path.dirname(os.path.abspath(attractorlab.__file__))
    used, exported = set(), {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if os.path.basename(path) == "__init__.py":
            continue
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    exported[name] = os.path.basename(path)
    unused = {name: module for name, module in exported.items() if name not in used}
    assert {name: module for name, module in unused.items() if name not in KEEP} == {}
    assert set(KEEP) <= set(unused), "a KEEP entry is used now; drop it from KEEP"


def test_tracer_bindings_resolve():
    if not os.path.exists(LAYERS):
        pytest.skip("no layer tracer in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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

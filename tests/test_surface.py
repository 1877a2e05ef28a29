"""Guards on the package surface: every exported name exists, and every
binding the benchmark's layer tracer wraps still resolves, so a deletion
that would break the traced run fails here first."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import attractorlab
from attractorlab import geometry

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def package_modules():
    return [importlib.import_module(f"attractorlab.{m.name}")
            for m in pkgutil.iter_modules(attractorlab.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", package_modules(), ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


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

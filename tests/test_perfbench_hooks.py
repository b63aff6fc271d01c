"""The benchmark traces the pipeline by wrapping module attributes by name;
every name it wraps must still exist, or its per-layer spans read zero."""

import importlib.util
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize(
    "module, attr",
    [
        pytest.param(module, attr, id=f"{module.__name__}.{attr}")
        for module, attr, _ in layers.PIPELINE_CALLS + layers.BATCH_CALLS
    ],
)
def test_traced_attribute_resolves_to_a_callable(module, attr):
    assert callable(getattr(module, attr, None))

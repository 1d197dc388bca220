"""The traced benchmark wraps the package's layers by name; these tests
read ``perfbench/`` and do not change it."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets that name no function of the package; every other target must
# resolve, so renaming a traced function cannot silently zero its metric
DEAD_TARGETS = [
    "meshsplat.splat.deformation_maps",
    "meshsplat.train.bake.prepare_frame",
    "meshsplat.train.ops.project_gaussians",
    "meshsplat.train.ops.composite",
]


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_but_the_known_dead_ones(monkeypatch):
    tracing = _tracing(monkeypatch)
    owners = [tracing._resolve(module, attr) for module, attr, _ in tracing.TARGETS
              if f"{module}.{attr}" not in DEAD_TARGETS]
    before = [getattr(owner, name) for owner, name in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == DEAD_TARGETS
        assert all(getattr(owner, name) is not fn for (owner, name), fn in zip(owners, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(owners, before))

"""The benchmark's span tracer still finds every call site it hooks.

``perfbench/tracer.py`` wraps functions by module attribute name. A hook
site that is renamed or deleted would otherwise only show up as
``"absent": true`` in a traced benchmark run.
"""

import gc
import importlib.util
from pathlib import Path

import hypermix

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_site_and_uninstall_restores_it():
    tracer_mod = _load_tracer()
    sites = [(owner_path, attr) for owner_path, attr, _ in tracer_mod.SPAN_SITES]
    sites += [("rng.Rng", attr) for attr in tracer_mod.DRAW_METHODS]
    owners = [tracer_mod._resolve(hypermix, path) for path, _ in sites]
    originals = [getattr(owner, attr, None)
                 for owner, (_, attr) in zip(owners, sites)]
    callbacks = list(gc.callbacks)

    tracer = tracer_mod.Tracer(hypermix).install()
    try:
        assert tracer.absent == []
        wrapped = [getattr(owner, attr)
                   for owner, (_, attr) in zip(owners, sites)]
    finally:
        tracer.uninstall()

    assert all(w is not o for w, o in zip(wrapped, originals))
    for owner, (path, attr), orig in zip(owners, sites, originals):
        assert getattr(owner, attr) is orig, f"{path}.{attr} not restored"
    assert gc.callbacks == callbacks

"""The benchmark still runs against the package's API.

``perfbench/tracer.py`` wraps functions by module attribute name. A hook
site that is renamed or deleted would otherwise only show up as
``"absent": true`` in a traced benchmark run. ``perfbench/workloads.py``
calls the training entry points; a changed signature or return type would
otherwise only show up as failed operations in a benchmark run.
"""

import gc
import importlib.util
from pathlib import Path

import hypermix

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_site_and_uninstall_restores_it():
    tracer_mod = _load("tracer")
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


def test_grid4_train_fixed_pass_runs_clean():
    # the loss digests depend on the BLAS build and the CPU: not pinned here
    workloads = _load("workloads")
    workload, led = workloads.Grid4Train(), workloads.Ledger()
    workload.fixed(hypermix, workload.setup(hypermix, 0), led)
    assert led.failed == 0, led.failures
    assert led.attempted > 0
    for mixer in workload.mixers:
        assert led.outputs[f"{mixer}.losses_hashed"] == workload.fixed_steps


def test_grid8_rollout_fixed_pass_runs_clean():
    # the rollout digest depends on the BLAS build and the CPU: not pinned here
    workloads = _load("workloads")
    workload, led = workloads.Grid8Rollout(), workloads.Ledger()
    workload.fixed(hypermix, workload.setup(hypermix, 0), led)
    assert led.failed == 0, led.failures
    rounds = workload.fixed_rounds
    assert len(led.samples["episode"]) == rounds * workload.round_episodes
    assert len(led.samples["eval_round"]) == rounds
    assert "rollout_digest" in led.outputs

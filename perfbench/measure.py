"""Run one workload in this process and print its record as one JSON line.

Started by ``run.py`` in a fresh single-threaded process; not meant to be
run by hand. Usage: ``measure.py <workload> <seed> <seconds> <trace>``.

With trace 0 the workload sets up several times (the median is ``setup_s``)
and then runs its closed loop for the given seconds, untraced. With trace 1
it runs three passes of set-up plus a fixed amount of work: traced,
untraced, traced. The last pass gives the per-layer metrics and, against
the untraced pass, the tracing overhead; it must repeat the first traced
pass's tape counts exactly. All passes must produce identical outputs.
``gc.collect()`` runs only between passes, outside every timed region.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hypermix  # noqa: E402
from tracer import PRIMITIVES, SPAN_SITES, Tracer  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Ledger  # noqa: E402

SETUP_REPS = 5
E2E_METRICS = ("unit_ms", "peak_rss_mb", "setup_s")
TRAINING_SPANS = ("train_step", "td_targets", "collect_episode",
                  "evaluate_policy", "update_target", "sample")


def run_e2e(wl, seed: int, seconds: float) -> dict:
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup(hypermix, seed)
        setup_s.append(time.perf_counter() - t0)
    led = Ledger()
    wl.timed(hypermix, state, seconds, led)
    named = wl.metrics(led) if not led.failed else {}
    if named:
        named["unit_ms"] = named[wl.headline]
    # peak over the whole process: import, every set-up and the timed run
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named["peak_rss_mb"] = (peak_mb, "MB", 1)
    named["setup_s"] = (statistics.median(setup_s), "s", SETUP_REPS)
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit, _) in named.items()
               if k in E2E_METRICS}
    return {"metrics": metrics, "named": named, "attempted": led.attempted,
            "failed": led.failed, "failures": led.failures, "outputs": led.outputs}


def run_pass(wl, seed: int, traced: bool):
    gc.collect()  # between passes only: each pass starts from a clean heap
    tracer = Tracer(hypermix).install() if traced else None
    led = Ledger()
    t0 = time.perf_counter()
    try:
        wl.fixed(hypermix, wl.setup(hypermix, seed), led)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return wall, led, tracer


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the names marked absent."""
    stats = tracer.span_stats()

    def total_ms(name):
        return stats.get(name, {}).get("total_s", 0.0) * 1e3

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    out: dict[str, tuple] = {}
    hgcn = [acc for mixer, acc in tracer.tape_steps if mixer == "hgcn-mix"]
    qmix = [acc for mixer, acc in tracer.tape_steps if mixer == "qmix"]
    per = max(len(hgcn), 1)
    out["autodiff.backward_ms"] = (total_ms("autodiff.backward"), "ms", "autodiff.backward")
    out["autodiff.backward.calls"] = (calls("autodiff.backward"), "count", "autodiff.backward")
    out["autodiff.records"] = (sum(a["records"] for a in hgcn) / per, "count", "tape")
    for prim in PRIMITIVES:
        out[f"autodiff.records.{prim}"] = (
            sum(a["by_prim"][prim] for a in hgcn) / per, "count", "tape")
    out["autodiff.qmix_records"] = (
        sum(a["records"] for a in qmix) / max(len(qmix), 1), "count", "tape")
    out["autodiff.matmul_flops"] = (sum(a["flops"] for a in hgcn) / per, "flop", "tape")
    computed = sum(a["computed"] for a in hgcn)
    out["autodiff.useful_grad_share"] = (
        sum(a["useful"] for a in hgcn) / computed if computed else 0.0, "share", "tape")
    out["autodiff.gc_pause_ms"] = (tracer.gc_pause_s * 1e3, "ms", None)
    out["autodiff.gc_gen2_collections"] = (tracer.gc_gen2, "count", None)

    out["hypergraph.build_ms"] = (total_ms("hypergraph.build"), "ms", "hypergraph.build")
    out["hypergraph.conv_ms"] = (total_ms("hypergraph.conv"), "ms", "hypergraph.conv")

    mix_calls = calls("mixers.mix_batch.traced") + calls("mixers.mix_batch.untraced")
    out["mixers.mix_batch.traced_ms"] = (total_ms("mixers.mix_batch.traced"), "ms", "mixers.mix_batch")
    out["mixers.mix_batch.untraced_ms"] = (total_ms("mixers.mix_batch.untraced"), "ms", "mixers.mix_batch")
    out["mixers.mix_batch.calls"] = (mix_calls, "count", "mixers.mix_batch")
    out["mixers.mix_batch.samples_per_call"] = (
        tracer.sums["mixers.samples"] / max(mix_calls, 1), "count", "mixers.mix_batch")
    out["mixers.state_module.ms"] = (total_ms("mixers.state_module"), "ms", "mixers.state_module")

    fwd = calls("agents.agent_forward")
    out["agents.agent_forward.ms"] = (total_ms("agents.agent_forward"), "ms", "agents.agent_forward")
    out["agents.agent_forward.calls"] = (fwd, "count", "agents.agent_forward")
    out["agents.agent_forward.rows_per_call"] = (
        tracer.sums["agents.rows"] / max(fwd, 1), "count", "agents.agent_forward")
    out["agents.select_action.ms"] = (total_ms("agents.select_action"), "ms", "agents.select_action")
    out["agents.select_action.calls"] = (calls("agents.select_action"), "count", "agents.select_action")

    out["envs.step.ms"] = (total_ms("envs.step"), "ms", "envs.step")
    out["envs.step.calls"] = (calls("envs.step"), "count", "envs.step")
    out["envs.reset.ms"] = (total_ms("envs.reset"), "ms", "envs.reset")
    out["envs.oracle_ms"] = (total_ms("envs.oracle"), "ms", "envs.oracle")

    out["rng.split.calls"] = (calls("rng.split"), "count", "rng.split")
    out["rng.split.ms"] = (total_ms("rng.split"), "ms", "rng.split")
    out["rng.draws"] = (tracer.draws, "count", "rng.draws")

    for name in ("clip_grad_norm", "rmsprop_step", "save_checkpoint"):
        out[f"nn.{name}.ms"] = (total_ms(f"nn.{name}"), "ms", f"nn.{name}")
    out["nn.checkpoint_bytes"] = (tracer.sums["nn.checkpoint_bytes"], "bytes", "nn.save_checkpoint")

    for name in TRAINING_SPANS:
        span = f"training.{name}"
        out[f"{span}.self_ms"] = (stats.get(span, {}).get("self_s", 0.0) * 1e3, "ms", span)
        out[f"{span}.calls"] = (calls(span), "count", span)

    # a source is absent when every site feeding it is missing
    present = {name for owner, attr, name in SPAN_SITES
               if f"{owner}.{attr}" not in tracer.absent}
    if not any(name.startswith("rng.Rng.") for name in tracer.absent):
        present.add("rng.draws")
    # the tape accounting reads autodiff internals; it is absent when it failed
    if "autodiff.backward" in present and (
            tracer.tape_steps or not calls("autodiff.backward")):
        present.add("tape")
    if "mixers.mix_batch" in present:
        present.update(("mixers.mix_batch.traced", "mixers.mix_batch.untraced"))
    absent = sorted(m for m, (_, _, src) in out.items()
                    if src is not None and src not in present)
    return {m: (v, unit) for m, (v, unit, _) in out.items()}, absent


def run_traced(wl, seed: int) -> dict:
    # the first traced pass also absorbs first-call costs, so the untraced
    # pass and the second traced pass compare warm against warm
    passes = [run_pass(wl, seed, traced) for traced in (True, False, True)]
    (wall_a, led_a, tr_a), (wall_u, led_u, _), (wall_b, led_b, tr_b) = passes
    checks = Ledger()
    for led in (led_a, led_u, led_b):
        checks.attempted += led.attempted
        checks.failed += led.failed
        checks.failures += led.failures
    checks.check("tracing leaves outputs unchanged",
                 led_a.outputs == led_u.outputs == led_b.outputs,
                 f"{led_a.outputs} / {led_u.outputs} / {led_b.outputs}")
    checks.check("tape counts repeat exactly across two traced passes",
                 tr_a.tape_counts() == tr_b.tape_counts())
    calls_a = {k: v["calls"] for k, v in tr_a.span_stats().items()}
    calls_b = {k: v["calls"] for k, v in tr_b.span_stats().items()}
    calls_a["rng.draws"], calls_b["rng.draws"] = tr_a.draws, tr_b.draws
    checks.check("span call counts repeat across two traced passes",
                 calls_a == calls_b, f"{calls_a} / {calls_b}")
    layers, absent = layer_metrics(tr_b)
    layers["trace.overhead_share"] = (wall_b / wall_u - 1.0, "share")
    layers["trace.untraced_pass_ms"] = (wall_u * 1e3, "ms")
    layers["trace.spans"] = (len(tr_b.spans), "count")
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tr_b.write_spans(spans_path)
    metrics = {}
    for name, (value, unit) in layers.items():
        metrics[name] = {"value": value, "unit": unit}
        if name in absent:
            metrics[name]["absent"] = True
    return {"metrics": metrics, "named": {}, "attempted": checks.attempted,
            "failed": checks.failed, "failures": checks.failures,
            "outputs": led_b.outputs, "absent_sites": tr_b.absent,
            "spans_file": str(spans_path.relative_to(HERE.parent))}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    wl = WORKLOADS[name]
    record = run_traced(wl, seed) if trace else run_e2e(wl, seed, seconds)
    record.update(workload=name, seed=seed, trace=trace, unit_of_work=wl.unit)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

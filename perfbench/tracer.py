"""Span tracer that instruments hypermix from outside.

Each public function is wrapped at the place where its caller looks it up:
``training`` imports ``gradient``, ``clip_grad_norm``, ``rmsprop_step``,
``save_checkpoint`` and ``brute_force_optimal`` by name, so those are
patched on the ``training`` module; ``agent_forward`` and ``mix_batch`` are
reached through their modules, so they are patched there. A wrapped name
that no longer exists is recorded as absent and its metrics are reported
with ``"absent": true`` instead of crashing the run.

Spans (name, start, end, parent index) are kept in memory and written out
once the traced pass is over. Nothing here calls ``gc.collect()`` or
``gc.disable()``: collector pauses are observed through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

PRIMITIVES = ("matmul", "add", "mul", "relu", "elu", "abs", "safe_rsqrt",
              "safe_recip", "sum", "mean", "concat_cols", "select_rows",
              "gru_cell")

# (module attribute path, attribute, span name) for every wrapped call site.
SPAN_SITES = (
    ("training", "train_step", "training.train_step"),
    ("training", "td_targets", "training.td_targets"),
    ("training", "collect_episode", "training.collect_episode"),
    ("training", "evaluate_policy", "training.evaluate_policy"),
    ("training", "update_target", "training.update_target"),
    ("training.ReplayBuffer", "sample", "training.sample"),
    ("training", "gradient", "autodiff.backward"),
    ("training", "clip_grad_norm", "nn.clip_grad_norm"),
    ("training", "rmsprop_step", "nn.rmsprop_step"),
    ("training", "save_checkpoint", "nn.save_checkpoint"),
    ("training", "brute_force_optimal", "envs.oracle"),
    ("envs", "brute_force_optimal", "envs.oracle"),
    ("envs.LazyCoordinationGrid", "step", "envs.step"),
    ("envs.LazyCoordinationGrid", "reset", "envs.reset"),
    ("agents", "agent_forward", "agents.agent_forward"),
    ("agents", "select_action", "agents.select_action"),
    ("mixers", "mix_batch", "mixers.mix_batch"),
    ("mixers", "state_module", "mixers.state_module"),
    ("mixers", "build_hypergraph_rows", "hypergraph.build"),
    ("mixers", "hgcn_transform_rows", "hypergraph.conv"),
    ("rng.Rng", "split", "rng.split"),
)

# Random draws are counted, not timed: they are too frequent and too cheap
# for a span each.
DRAW_METHODS = ("random", "integers", "uniform", "normal", "permutation",
                "sample_without_replacement")


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def tape_accounting(tape, seeds) -> dict:
    """Per-primitive record counts, matmul flops and useful-gradient share.

    Read before the backward sweep runs. The reachability walk mirrors the
    sweep: a record computes operand gradients only when its output carries
    a gradient, and only operands on the same tape keep theirs.
    """
    records = tape.records
    by_prim = Counter(r.name for r in records)
    flops = 0
    for r in records:
        if r.name == "matmul":
            rows, cols = r.out.value.shape
            inner = r.inputs[0].value.size // rows
            flops += 2 * rows * inner * cols
    outs = seeds.keys() if isinstance(seeds, dict) else (seeds,)
    live = {id(v) for v in outs}
    computed = useful = 0
    for r in reversed(records):
        if id(r.out) not in live:
            continue
        for v in r.inputs:
            computed += 1
            if v.tape is tape:
                useful += 1
                live.add(id(v))
    return {"records": len(records), "by_prim": by_prim, "flops": flops,
            "computed": computed, "useful": useful}


class Tracer:
    """Installs wrappers, records spans and counters, and restores on exit."""

    def __init__(self, hypermix):
        self.hm = hypermix
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.draws = 0
        self.sums: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self.tape_steps: list[tuple] = []
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = None
        self._patched: list[tuple] = []
        self._mixer = "unknown"

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        before = {
            "training.train_step": self._note_mixer,
            "autodiff.backward": self._account_tape,
            "agents.agent_forward": self._note_rows,
            "mixers.mix_batch": self._note_mix,
        }
        after = {"nn.save_checkpoint": self._note_checkpoint}
        for owner_path, attr, name in SPAN_SITES:
            owner = _resolve(self.hm, owner_path)
            if owner is None or getattr(owner, attr, None) is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._wrap(owner, attr, name, before.get(name), after.get(name))
        rng_cls = _resolve(self.hm, "rng.Rng")
        for attr in DRAW_METHODS:
            if rng_cls is None or getattr(rng_cls, attr, None) is None:
                self.absent.append(f"rng.Rng.{attr}")
                continue
            self._count_draws(rng_cls, attr)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, owner, attr, name, before=None, after=None) -> None:
        orig = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = None
            if before is not None:
                label = self._bookkeeping(before, args, kwargs)
            idx = len(spans)
            spans.append([label or name, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                self._bookkeeping(after, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def _count_draws(self, owner, attr) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.draws += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def _bookkeeping(self, fn, args, kwargs):
        # the tracer's own work gets a span, so callers' self time excludes it;
        # a hook may return a more specific name for the span that follows
        idx = len(self.spans)
        self.spans.append(["trace.bookkeeping", time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        label = None
        try:
            label = fn(args, kwargs)
        except (AttributeError, IndexError, TypeError, KeyError):
            pass  # an internal changed shape: the figure stays unrecorded
        self.spans[idx][2] = time.perf_counter()
        return label

    # -- per-call hooks ----------------------------------------------------

    def _note_mixer(self, args, kwargs) -> None:
        self._mixer = kwargs.get("kind", args[3] if len(args) > 3 else "unknown")

    def _account_tape(self, args, kwargs) -> None:
        tape = kwargs.get("tape", args[0] if args else None)
        seeds = kwargs.get("seeds", args[1] if len(args) > 1 else None)
        acc = tape_accounting(tape, seeds)
        self.tape_steps.append((self._mixer, acc))

    def _note_rows(self, args, kwargs) -> None:
        inputs = kwargs.get("inputs", args[1])
        self.sums["agents.rows"] += inputs.value.shape[0]

    def _note_mix(self, args, kwargs) -> str:
        chosen = kwargs.get("chosen", args[2])
        s = kwargs.get("s", args[4])
        self.sums["mixers.samples"] += len(s)
        traced = getattr(chosen, "tape", None) is not None
        return "mixers.mix_batch." + ("traced" if traced else "untraced")

    def _note_checkpoint(self, args, kwargs) -> None:
        directory = Path(kwargs.get("directory", args[1]))
        self.sums["nn.checkpoint_bytes"] += sum(
            p.stat().st_size for p in directory.iterdir() if p.is_file())

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self._gc_t0 = None
            self.gc_gen2 += info.get("generation") == 2

    # -- aggregation -------------------------------------------------------

    def span_stats(self) -> dict:
        """Calls, total and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
        return dict(stats)

    def tape_counts(self) -> list:
        """The per-step tape accounting, in a form that compares exactly."""
        return [(mixer, acc["records"], sorted(acc["by_prim"].items()),
                 acc["flops"], acc["computed"], acc["useful"])
                for mixer, acc in self.tape_steps]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

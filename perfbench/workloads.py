"""The three workloads. Each runs a closed loop over hypermix's stable entry
points: the next call starts when the previous one returns.

* ``grid4-train``: paper-width ``train_step`` calls for hgcn-mix and qmix on
  a prefilled replay buffer. Tape, mixer and hypergraph work dominate; the
  environment does nothing in the timed part.
* ``grid8-rollout``: ``collect_episode`` with annealed exploration and
  greedy ``evaluate_policy`` rounds for eight agents, no learning. Per-agent
  Python loops in envs, agents and rng dominate; no tape is built.
* ``grid3-solve``: ``run_training`` at desk-scale widths for training seeds
  0 and 1, each stopped on success. The whole loop runs at small shapes, so per-primitive
  overhead dominates rather than flops.

A workload provides ``setup(hm, seed)``, ``timed(hm, state, seconds, led)``
for the measured run, ``metrics(led)`` for its named figures (``headline``
among them is reported as ``unit_ms``), and ``fixed(hm, state, led)`` for
the fixed amount of work that each pass of a ``--trace 1`` run repeats.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


class Ledger:
    """Attempted and failed operations, output checks, and latency samples."""

    kept_failures = 20  # messages kept; ``failed`` counts every failure

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.outputs: dict = {}

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"{name}: {detail}")
        return ok

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.kept_failures:
            self.failures.append(message)

    def call(self, sample: str, fn, *args, **kwargs):
        """Time one call into hypermix; an exception counts as a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, not a harness error
            self._fail(f"{sample}: {type(exc).__name__}: {exc}")
            return None
        self.samples[sample].append((time.perf_counter() - t0) * 1e3)
        return out


def digest(values) -> str:
    """Short hash of a float sequence, exact to the last bit."""
    h = hashlib.sha256()
    for v in values:
        h.update(float(v).hex().encode())
    return h.hexdigest()[:16]


def check_return(led: Ledger, ret: float, optimum: float) -> None:
    led.check("episode return in [0, optimum]",
              0.0 <= ret <= optimum + 1e-9, f"{ret} vs {optimum}")


# ---------------------------------------------------------------------------
# grid4-train
# ---------------------------------------------------------------------------

class Grid4Train:
    name = "grid4-train"
    unit = "hgcn-mix train_step"
    headline = "hgcn_train_step_ms.p50"
    mixers = ("hgcn-mix", "qmix")
    prefill = 64          # episodes collected at eps 1.0 before training
    target_interval = 5   # train steps per mixer between target syncs
    digest_steps = 8      # loss prefix hashed in timed runs (always reached)
    fixed_steps = 6       # train steps per mixer in each pass of a traced run

    def setup(self, hm, seed: int) -> dict:
        cfg = hm.config.Config(env={"name": "grid", "n_agents": 4, "length": 6})
        env = hm.envs.make_env(cfg.env)
        optimum = hm.envs.brute_force_optimal(env)
        stores = {m: hm.training.init_run_stores(cfg.replace(mixer=m), env, seed)
                  for m in self.mixers}
        root = hm.rng.Rng(seed)
        env_rng, explore_rng = root.split("env"), root.split("explore")
        buffer = hm.training.ReplayBuffer(cfg.buffer_capacity)
        returns = []
        for _ in range(self.prefill):
            ep = hm.training.collect_episode(env, stores["hgcn-mix"][0], 1.0,
                                             env_rng, explore_rng, cfg.agent_hidden)
            buffer.add(ep)
            returns.append(ep.episode_return)
        return {"cfg": cfg, "stores": stores, "buffer": buffer,
                "buffer_rng": root.split("buffer"), "optimum": optimum,
                "returns": returns}

    def _pair(self, hm, state, led: Ledger, step: int, losses) -> None:
        cfg = state["cfg"]
        for mixer in self.mixers:
            store, target = state["stores"][mixer]
            batch = state["buffer"].sample(cfg.batch_size, state["buffer_rng"])
            loss = led.call(mixer, hm.training.train_step, batch, store, target,
                            mixer, cfg.gamma, cfg.embed, cfg.agent_hidden,
                            lr=cfg.lr, rms_decay=cfg.rms_decay,
                            rms_eps=cfg.rms_eps, clip_norm=cfg.clip_norm)
            if loss is not None:
                led.check("loss is finite", math.isfinite(loss), loss)
                losses[mixer].append(loss)
            if (step + 1) % self.target_interval == 0:
                hm.training.update_target(store, target)

    def _finish(self, state, led: Ledger, losses, prefix: int | None) -> None:
        for ret in state["returns"]:
            check_return(led, ret, state["optimum"])
        for mixer in self.mixers:
            seq = losses[mixer][:prefix] if prefix else losses[mixer]
            led.outputs[f"{mixer}.loss_digest"] = digest(seq)
            led.outputs[f"{mixer}.losses_hashed"] = len(seq)

    def timed(self, hm, state, seconds: float, led: Ledger) -> None:
        losses = defaultdict(list)
        deadline = time.perf_counter() + seconds
        step = 0
        while step < self.digest_steps or time.perf_counter() < deadline:
            self._pair(hm, state, led, step, losses)
            step += 1
        self._finish(state, led, losses, self.digest_steps)

    def fixed(self, hm, state, led: Ledger) -> None:
        losses = defaultdict(list)
        for step in range(self.fixed_steps):
            self._pair(hm, state, led, step, losses)
        self._finish(state, led, losses, None)

    def metrics(self, led: Ledger) -> dict:
        named = {}
        for mixer, label in (("hgcn-mix", "hgcn"), ("qmix", "qmix")):
            for q, v in percentiles(led.samples[mixer]).items():
                named[f"{label}_train_step_ms.{q}"] = (v, "ms", len(led.samples[mixer]))
        return named


# ---------------------------------------------------------------------------
# grid8-rollout
# ---------------------------------------------------------------------------

class Grid8Rollout:
    name = "grid8-rollout"
    unit = "collect_episode"
    headline = "episode_ms.p50"
    round_episodes = 100  # collected per round, eps annealed 1.0 -> 0.05
    eval_episodes = 32    # greedy episodes per evaluate_policy round
    warmup = 10           # episodes run during set-up, before timing
    fixed_rounds = 2

    def setup(self, hm, seed: int) -> dict:
        cfg = hm.config.Config(env={"name": "grid", "n_agents": 8, "length": 4})
        env = hm.envs.make_env(cfg.env)
        eval_env = hm.envs.make_env(cfg.env)
        optimum = hm.envs.brute_force_optimal(eval_env)
        store, _ = hm.training.init_run_stores(cfg, env, seed)
        root = hm.rng.Rng(seed)
        state = {"cfg": cfg, "env": env, "eval_env": eval_env, "store": store,
                 "optimum": optimum, "env_rng": root.split("env"),
                 "explore_rng": root.split("explore"), "root": root,
                 "rounds": 0}
        warm = hm.rng.Rng(seed).split("warmup")
        for _ in range(self.warmup):
            hm.training.collect_episode(env, store, 1.0, warm, warm, cfg.agent_hidden)
        return state

    def _round(self, hm, state, led: Ledger, trail: list | None) -> None:
        # trail collects returns and actions for the output digest, if given
        cfg, store = state["cfg"], state["store"]
        for k in range(self.round_episodes):
            eps = 1.0 + (0.05 - 1.0) * k / (self.round_episodes - 1)
            t0 = time.perf_counter()
            ep = led.call("episode", hm.training.collect_episode, state["env"],
                          store, eps, state["env_rng"], state["explore_rng"],
                          cfg.agent_hidden)
            if ep is None:
                continue
            led.samples["collect_s"].append(time.perf_counter() - t0)
            led.samples["env_steps"].append(ep.length)
            check_return(led, ep.episode_return, state["optimum"])
            if trail is not None:
                trail.append(ep.episode_return)
                trail.extend(ep.actions[:ep.length].ravel())
        rng = state["root"].split(f"eval{state['rounds']}")
        state["rounds"] += 1
        stats = led.call("eval_round", hm.training.evaluate_policy,
                         state["eval_env"], store, self.eval_episodes, rng,
                         cfg.agent_hidden, state["optimum"])
        if stats is not None:
            led.check("eval mean_return in [0, optimum]",
                      0.0 <= stats["mean_return"] <= state["optimum"] + 1e-9,
                      stats["mean_return"])
            led.check("eval success_rate in [0, 1]",
                      0.0 <= stats["success_rate"] <= 1.0, stats["success_rate"])
            if trail is not None:
                trail.extend((stats["mean_return"], stats["success_rate"]))

    def timed(self, hm, state, seconds: float, led: Ledger) -> None:
        trail: list = []
        deadline = time.perf_counter() + seconds
        self._round(hm, state, led, trail)
        led.outputs["first_round_digest"] = digest(trail)
        while time.perf_counter() < deadline:
            self._round(hm, state, led, None)

    def fixed(self, hm, state, led: Ledger) -> None:
        trail: list = []
        for _ in range(self.fixed_rounds):
            self._round(hm, state, led, trail)
        led.outputs["rollout_digest"] = digest(trail)

    def metrics(self, led: Ledger) -> dict:
        eps = led.samples["episode"]
        named = {f"episode_ms.{q}": (v, "ms", len(eps))
                 for q, v in percentiles(eps).items()}
        steps, secs = sum(led.samples["env_steps"]), sum(led.samples["collect_s"])
        named["env_steps_per_s"] = (steps / secs, "1/s", len(eps))
        rounds = led.samples["eval_round"]
        named["eval_episode_ms.p50"] = (
            statistics.median(rounds) / self.eval_episodes, "ms", len(rounds))
        return named


# ---------------------------------------------------------------------------
# grid3-solve
# ---------------------------------------------------------------------------

class Grid3Solve:
    name = "grid3-solve"
    unit = "run_training episode"
    headline = "solve_episode_ms"
    budget = 2000         # episodes; stop_on_success ends the run earlier
    # Episodes-to-success has a long tail over training seeds (250 to 1,850
    # episodes over 58 seeds), so the workload is one fixed problem: training
    # seeds 0 and 1, whatever ``--seed`` says.
    train_seeds = (0, 1)
    warmup_episodes = 36  # a short run in set-up: four train steps
    fixed_episodes = 120  # per pass of a traced run, without stopping

    def config(self, hm, **changes):
        cfg = hm.config.Config(
            env={"name": "grid", "n_agents": 3, "length": 4}, mixer="hgcn-mix",
            agent_hidden=16, embed=8, hypernet_hidden=8, hyperedges=8, lr=5e-3,
            anneal_steps=2000, eval_interval=50, episodes=self.budget,
            stop_on_success=True)
        return cfg.replace(**changes)

    def setup(self, hm, seed: int) -> dict:
        cfg = self.config(hm)
        optimum = hm.envs.brute_force_optimal(hm.envs.make_env(cfg.env))
        out = OUT_DIR / f"{self.name}-seed{seed}"
        if out.exists():
            shutil.rmtree(out)
        # fills lazy caches so that the timed run measures steady state
        hm.training.run_training(
            self.config(hm, episodes=self.warmup_episodes,
                        stop_on_success=False), self.train_seeds[0],
            out / "warmup")
        return {"cfg": cfg, "optimum": optimum, "out": out}

    def _train(self, hm, state, cfg, seed: int, label: str,
               led: Ledger) -> dict | None:
        summary = led.call("run", hm.training.run_training, cfg, seed,
                           state["out"] / label)
        if summary is None:
            return None
        raw = Path(summary["metrics_path"]).read_bytes()
        led.outputs[f"{label}.metrics_jsonl_digest"] = hashlib.sha256(raw).hexdigest()[:16]
        for line in raw.splitlines():
            check_return(led, json.loads(line)["mean_return"], state["optimum"])
        led.check("checkpoint written",
                  (Path(summary["checkpoint"]) / "params.bin").is_file())
        return summary

    def timed(self, hm, state, seconds: float, led: Ledger) -> None:
        # a solve is never cut, so this workload ignores ``seconds``
        for train_seed in self.train_seeds:
            label = f"solve{train_seed}"
            summary = self._train(hm, state, state["cfg"], train_seed, label,
                                  led)
            if summary is None:
                continue
            final = summary["final"] or {}
            led.check("reaches success_rate 1.0 within the budget",
                      final.get("success_rate") == 1.0,
                      f"{final.get('success_rate')} after {summary['episodes']} episodes")
            led.outputs[f"{label}.episodes_to_success"] = summary["episodes"]
            led.outputs[f"{label}.time_to_success_s"] = summary["wall_seconds"]
            led.samples["episodes"].append(summary["episodes"])

    def fixed(self, hm, state, led: Ledger) -> None:
        # short enough to trace three times, long enough to sync the target
        cfg = self.config(hm, episodes=self.fixed_episodes,
                          stop_on_success=False, target_interval=40)
        self._train(hm, state, cfg, self.train_seeds[0], "trace", led)

    def metrics(self, led: Ledger) -> dict:
        episodes = sum(led.samples["episodes"])
        return {"solve_episode_ms": (sum(led.samples["run"]) / episodes, "ms",
                                     episodes)}


def percentiles(samples: list[float]) -> dict:
    """Median and the highest of p90/p75 with at least ten samples beyond it."""
    out = {"p50": statistics.median(samples)}
    if len(samples) < 2:
        return out
    cuts = statistics.quantiles(samples, n=20, method="inclusive")
    if len(samples) * 0.1 >= 10:
        out["p90"] = cuts[17]
    elif len(samples) * 0.25 >= 10:
        out["p75"] = cuts[14]
    return out


WORKLOADS = {w.name: w for w in (Grid4Train(), Grid8Rollout(), Grid3Solve())}

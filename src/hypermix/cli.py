"""Experiment command line: train, eval, dump-hypergraph, and compare.

Run directories are append-or-create: rerunning into a fresh directory never
mutates previous runs, and (config, seed) fully determines every output but
``compare``'s ``wall_seconds``.
Set ``HYPERMIX_LOG`` to error/info/debug to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import Config, load_config
from .envs import make_env
from .errors import CheckpointError, ConfigError, ContractError, TrainingError
from .hypergraph import build_hypergraph_rows, write_hypergraph_csv
from .mixers import validate_mixer_kind
from .nn import load_checkpoint
from .rng import Rng
from .training import collect_episode, evaluate_policy, init_run_stores, run_training

log = logging.getLogger("hypermix")


def _setup_logging() -> None:
    level = os.environ.get("HYPERMIX_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"HYPERMIX_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level],
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _out_path(path, is_dir: bool) -> Path:
    """--out as a Path, checked before any work is done."""
    out = Path(path)
    try:  # the OS may refuse to probe the path at all, e.g. a name too long
        if out.exists() and out.is_dir() != is_dir:
            raise ConfigError(f"--out: {out} exists and is not a"
                              f" {'directory' if is_dir else 'file'}")
        ancestor = next((p for p in out.absolute().parents if p.exists()), out)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    if not ancestor.is_dir():
        raise ConfigError(f"--out: {ancestor} is not a directory")
    return out


def _make_dirs(*paths: Path) -> None:
    """Create run directories; an OS refusal is an --out error, not a crash."""
    try:
        for path in paths:
            path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None


def _train_runs(jobs: list[tuple[Config, int, Path]], workers: int) -> list[dict]:
    _make_dirs(*(out for _, _, out in jobs))  # before any run starts
    if workers <= 1 or len(jobs) == 1:
        return [run_training(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_training, *zip(*jobs)))


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(seeds=[args.seed])
    out = _out_path(args.out, is_dir=True)
    results = _train_runs([(cfg, seed, out / f"seed_{seed}") for seed in cfg.seeds],
                          args.workers)
    for res in results:
        log.info("seed %s finished after %s episodes (%.1fs): %s",
                 res["seed"], res["episodes"], res["wall_seconds"], res["final"])
    print(json.dumps({"runs": len(results)}))
    return 0


def _load_run(cfg: Config, checkpoint_path):
    env = make_env(cfg.env)
    store, _ = init_run_stores(cfg, env, seed=cfg.seeds[0])
    load_checkpoint(store, checkpoint_path)
    return env, store


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    env, store = _load_run(cfg, args.checkpoint)
    rng = Rng(args.seed).split("cli-eval")
    stats = evaluate_policy(env, store, args.episodes, rng)
    print(f"mean_return={stats['mean_return']:.6f} "
          f"success_rate={stats['success_rate']:.6f}")
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_dump_hypergraph(args) -> int:
    out = _out_path(args.out, is_dir=True)
    cfg = load_config(args.config)
    if cfg.mixer != "hgcn-mix":
        raise ConfigError(f"mixer: {cfg.mixer!r} has no hypergraph to dump")
    env, store = _load_run(cfg, args.checkpoint)
    _make_dirs(out)
    ep = collect_episode(env, store, 0.0, Rng(args.seed).split("env"), None)
    n, steps = env.spec.n_agents, ep.length
    pv = store.bind(None)
    H, _ = build_hypergraph_rows(ep.obs[:steps].reshape(steps * n, -1),
                                 pv["mix.gen.w"], pv["mix.gen.b"], n)
    written = []
    for t, h in enumerate(H.value.reshape(steps, n, -1)):
        path = out / f"step_{t:04d}.csv"
        write_hypergraph_csv(path, h)
        written.append(str(path))
    print(json.dumps({"steps": ep.length, "files": written}))
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out = _out_path(args.out, is_dir=False)
    work = _out_path(out.parent / (out.stem + "_runs"), is_dir=True)
    if cfg.episodes < cfg.eval_interval:
        raise ConfigError(
            f"eval_interval: {cfg.eval_interval} exceeds episodes"
            f" ({cfg.episodes}), so no run reaches an evaluation to compare"
        )
    mixers = [m.strip() for m in args.mixers.split(",") if m.strip()]
    if not mixers:
        raise ConfigError(f"--mixers: no mixer kind in {args.mixers!r}")
    for mixer in mixers:
        try:
            validate_mixer_kind(mixer)
        except ConfigError as exc:
            raise ConfigError(f"--mixers: {exc}") from None
    if args.hyperedges and "hgcn-mix" not in mixers:
        raise ConfigError("--hyperedges: needs 'hgcn-mix' in --mixers")
    seeds = list(range(args.seeds))
    # arms resolve before any run starts: hgcn-mix at 0 hyperedges is qmix
    arms = {}
    for mixer in mixers:
        counts = args.hyperedges if mixer == "hgcn-mix" else None
        for count in counts or [cfg.hyperedges]:
            sub = cfg.replace(mixer=mixer, hyperedges=count, seeds=seeds)
            learned = sub.hyperedges if sub.mixer == "hgcn-mix" else 0
            arm = f"hgcn-mix_m{learned}" if learned else sub.mixer
            if arm in arms:
                flag = "--hyperedges" if counts else "--mixers"
                raise ConfigError(f"{flag}: arm {arm!r} would run twice")
            arms[arm] = (sub, learned)
    results = iter(_train_runs([(sub, seed, work / arm / f"seed_{seed}")
                                for arm, (sub, _) in arms.items()
                                for seed in seeds], args.workers))
    runs, report = [], {}
    for arm, (sub, learned) in arms.items():
        own = [next(results) for _ in seeds]
        runs += [{"arm": arm, "mixer": sub.mixer, "hyperedges": learned,
                  **{key: res[key] for key in ("seed", "episodes", "env_steps",
                                               "train_steps", "wall_seconds",
                                               "solved_at")}} for res in own]
        # an unsolved run ran its whole budget, so it counts at its episodes
        to_success = [res["solved_at"] or res["episodes"] for res in own]
        q1, median, q3 = np.percentile(to_success, [25, 50, 75]).tolist()
        report[arm] = {
            "solved": sum(res["solved_at"] is not None for res in own),
            "episodes_q1": q1, "episodes_median": median, "episodes_q3": q3,
            "wall_seconds_median": float(np.median(
                [res["wall_seconds"] for res in own]))}
    out.write_text(json.dumps({"runs": runs, "arms": report}, indent=2) + "\n")
    print(json.dumps({"out": str(out), "arms": report}))
    return 0


def _at_least(low: int):
    """An argparse type for integers >= ``low``: its errors name the flag."""
    def count(text: str) -> int:
        value = int(text) if re.fullmatch(r"\s*[+-]?\d+\s*", text) else None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low},"
                                             f" got {text!r}")
        return value
    return count


def _counts(text: str) -> list[int]:
    return [_at_least(0)(c) for c in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermix",
        description="Cooperative multi-agent Q-learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train per-seed runs from a config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="run only this seed")
    p_train.add_argument("--workers", type=_at_least(1), default=1)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--episodes", type=_at_least(1), default=32)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=cmd_eval)

    p_dump = sub.add_parser("dump-hypergraph",
                            help="write per-step incidence CSVs for one episode")
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--config", required=True)
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(fn=cmd_dump_hypergraph)

    p_cmp = sub.add_parser("compare",
                           help="train arms across seeds and report each run as JSON")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--mixers", required=True,
                       help="comma-separated mixer kinds")
    p_cmp.add_argument("--hyperedges", type=_counts, default=None,
                       help="comma-separated learned hyperedge counts, one"
                            " hgcn-mix arm each (default: the config's"
                            " hyperedges)")
    p_cmp.add_argument("--seeds", type=_at_least(1), required=True,
                       help="number of seeds (0..k-1)")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--workers", type=_at_least(1), default=1)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, ContractError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

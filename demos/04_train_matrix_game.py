"""Train the hypergraph mixer on the climbing matrix game and watch the curve.

The one-shot payoff rewards joint action (0,0) with 11 but punishes
one-sided attempts with -30, so uncoordinated learners settle for the safe
7. Run: python3 demos/04_train_matrix_game.py  (about 5 s)
"""

import json
import tempfile
from pathlib import Path

from hypermix.config import Config
from hypermix.envs import OneStepMatrixGame, brute_force_optimal
from hypermix.training import run_training

cfg = Config(
    env={"name": "matrix_game"},
    mixer="hgcn-mix",
    hyperedges=8,
    episodes=4000,
    eval_interval=200,
    eval_episodes=1,
    anneal_steps=2000,
    buffer_capacity=512,
    stop_on_success=True,
    seeds=[3],
)

print(f"optimal joint return: {brute_force_optimal(OneStepMatrixGame())}")
with tempfile.TemporaryDirectory() as tmp:
    summary = run_training(cfg, seed=3, out_dir=Path(tmp) / "run")
    print(f"trained for {summary['episodes']} episodes "
          f"({summary['wall_seconds']:.0f}s)\n")
    print(f"{'episode':>8s} {'epsilon':>8s} {'return':>8s} {'success':>8s}")
    for line in Path(summary["metrics_path"]).read_text().splitlines():
        rec = json.loads(line)
        print(f"{rec['episode']:8d} {rec['epsilon']:8.3f} "
              f"{rec['mean_return']:8.2f} {rec['success_rate']:8.2f}")

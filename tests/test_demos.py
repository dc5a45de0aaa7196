"""Every quick demo runs to completion against the current API.

``04_train_matrix_game.py`` is left out: it trains for 5-7 s, longer
than the other four together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_autodiff_basics.py", "02_hypergraph_convolution.py",
         "03_mixers_and_igm.py", "05_dump_hypergraph.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]

"""Config parsing/validation and the four CLI subcommands."""

import errno
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypermix.cli import _out_path, build_parser, main
from hypermix.config import Config, load_config
from hypermix.envs import make_env
from hypermix.errors import ConfigError
from hypermix.hypergraph import read_hypergraph_csv
from hypermix.mixers import MIXER_KINDS
from hypermix.nn import (CLIP_NORM, RMS_DECAY, RMS_EPS, load_checkpoint,
                         save_checkpoint)
from hypermix.training import init_run_stores, run_training

from _helpers import break_manifest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# any value json round-trips, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=8)


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    body = {
        "env": {"name": "matrix_game"},
        "mixer": "vdn",
        "hyperedges": 2, "embed": 3, "agent_hidden": 4, "hypernet_hidden": 4,
        "episodes": 8, "eval_interval": 4, "eval_episodes": 2,
        "buffer_capacity": 16, "batch_size": 4,
        "seeds": [0],
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in body:
            body[key].update(value)
        else:
            body[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


class TestConfig:
    def test_round_trip(self):
        cfg = Config(env={"name": "grid", "n_agents": 3, "length": 4,
                          "freeze": True},
                     mixer="qmix", hyperedges=5, embed=7, agent_hidden=9,
                     hypernet_hidden=11, lr=1e-3, anneal_steps=100, gamma=0.9,
                     episodes=10, eval_interval=5, eval_episodes=3,
                     buffer_capacity=50, batch_size=8, target_interval=20,
                     stop_on_success=True, seeds=[3, 4])
        default = Config(env={"name": "matrix_game"})
        for f in fields(Config):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        assert Config.from_dict(cfg.to_dict()) == cfg
        assert Config.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_optimizer_constants_are_pymarls_not_fields(self):
        names = {f.name for f in fields(Config)}
        assert not names & {"rms_decay", "rms_eps", "clip_norm"}
        cfg = Config(env={"name": "matrix_game"})
        assert ((cfg.rms_decay, cfg.rms_eps, cfg.clip_norm)
                == (RMS_DECAY, RMS_EPS, CLIP_NORM) == (0.99, 1e-5, 10.0))
        # each key of the file is the name of its field
        assert set(cfg.to_dict()) == names

    def test_snapshot_reparses_equivalently(self, tmp_path):
        path = _write_cfg(tmp_path)
        cfg = load_config(path)
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(cfg.to_dict()))
        assert load_config(snap).to_dict() == cfg.to_dict()

    def test_field_level_error_messages(self, tmp_path):
        with pytest.raises(ConfigError, match="^lr: "):
            load_config(_write_cfg(tmp_path, lr=-1.0))
        with pytest.raises(ConfigError, match="seeds"):
            load_config(_write_cfg(tmp_path, seeds=[]))
        with pytest.raises(ConfigError, match="mixer"):
            load_config(_write_cfg(tmp_path, mixer="qplex"))
        with pytest.raises(ConfigError, match="unknown config fields"):
            load_config(_write_cfg(tmp_path, episodess=1))

    def test_zero_hyperedges_load_as_qmix(self, tmp_path):
        # with the identity incidence each convolution is the identity
        cfg = load_config(_write_cfg(tmp_path, mixer="hgcn-mix", hyperedges=0))
        assert cfg.mixer == "qmix"
        assert cfg.to_dict()["mixer"] == "qmix"

    def test_hyperedge_sweep_is_an_unknown_field(self, tmp_path):
        path = _write_cfg(tmp_path, mixer="hgcn-mix", hyperedge_sweep=[2, 4])
        with pytest.raises(ConfigError, match=re.escape(
                "unknown config fields ['hyperedge_sweep']")):
            load_config(path)

    @pytest.mark.parametrize("case", ["directory", "binary"])
    def test_unreadable_config_exits_2_naming_the_path(self, tmp_path, capsys,
                                                       case):
        path = tmp_path / "cfg"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{\x00\x80")
        code = main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: config file {path}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_env_section(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mixer": "vdn"}))
        with pytest.raises(ConfigError, match="env"):
            load_config(path)

    @pytest.mark.parametrize("overrides, field", [
        ({"seeds": [True]}, "seeds"),
        ({"episodes": "2"}, "episodes"),
        ({"env": {"name": "matrix_game", "payoff": [["a"]]}}, "env"),
        ({"mixer": "vdn", "hyperedge_sweep": [2]},
         "unknown config fields ['hyperedge_sweep']"),
        ({"eps_start": 0.5}, "unknown config fields ['eps_start']"),
        ({"train_every": 2}, "unknown config fields ['train_every']"),
        ({"env": {"name": "grid", "length": 4.0}},
         "env: bad options for env 'grid': length must be an integer, got 4.0"),
        ({"env": {"name": "grid", "n_agents": True}},
         "env: bad options for env 'grid': n_agents must be an integer, got True"),
        ({"env": {"name": "grid", "freeze": "no"}},
         "env: bad options for env 'grid': freeze must be true or false, got 'no'"),
        # json reads NaN and Infinity; numpy reads bools and numeric
        # strings as numbers
        ({"env": {"name": "matrix_game", "payoff": [["1", "2"], ["3", "4"]]}},
         "env: bad options for env 'matrix_game': payoff entries must be"
         " finite numbers"),
        ({"env": {"name": "matrix_game",
                  "payoff": [[True, False], [False, True]]}},
         "env: bad options for env 'matrix_game': payoff entries must be"
         " finite numbers"),
        ({"env": {"name": "matrix_game",
                  "payoff": [[float("nan"), 1], [1, 1]]}},
         "env: bad options for env 'matrix_game': payoff entries must be"
         " finite numbers"),
        ({"env": {"name": "matrix_game", "payoff": 5}},
         "env: bad options for env 'matrix_game': payoff must be a nested"
         " list, got the scalar 5"),
        ({"env": {"name": "two_step", "payoff_b": [["0", "1"], ["1", "8"]]}},
         "env: bad options for env 'two_step': payoff_b entries must be"
         " finite numbers"),
        ({"env": {"name": "two_step",
                  "payoff_a": [[float("inf"), 1], [1, 1]]}},
         "env: bad options for env 'two_step': payoff_a entries must be"
         " finite numbers"),
        ({"env": {"name": "matrix_game", "payoff": [[1, 2], [3]]}},
         "env: bad options for env 'matrix_game': payoff must be a rectangular"
         " nested list"),
        ({"env": {"name": "matrix_game", "payoff": []}},
         "env: bad options for env 'matrix_game': payoff must give each agent"
         " at least 2 actions, got the shape (0,)"),
        ({"env": {"name": "matrix_game", "payoff": [[1]]}},
         "env: bad options for env 'matrix_game': payoff must give each agent"
         " at least 2 actions, got the shape (1, 1)"),
        ({"decay": 0.99}, "unknown config fields ['decay']"),
        ({"eps": 1e-5}, "unknown config fields ['eps']"),
        ({"clip_norm": 10.0}, "unknown config fields ['clip_norm']"),
        ({"lr": float("inf")}, "lr: must be positive and finite"),
        ({"seeds": [0, 0]}, "seeds: must be distinct, got [0, 0]"),
        ({"model": {"embed": 3}}, "unknown config fields ['model']"),
        # the old one-hot mixer name is no alias of qmix
        ({"mixer": "hgcn-mix-oh"}, "mixer: unknown mixer kind 'hgcn-mix-oh'"),
    ])
    def test_cli_exits_2_with_field_and_no_traceback(self, tmp_path, capsys,
                                                     overrides, field):
        code = main(["train", "--config", str(_write_cfg(tmp_path, **overrides)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {field}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_every_shipped_config_loads(self):
        files = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert {f.name for f in files} >= {"matrix_hgcn.json", "grid_hgcn.json"}
        for f in files:
            assert load_config(f).mixer in MIXER_KINDS

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @settings(derandomize=True, max_examples=200, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_field_mutation_is_valid_or_names_the_field(self, tmp_path,
                                                            capsys, data):
        # one field of a shipped config set to an arbitrary JSON value: a
        # valid Config, or a ConfigError that names the field, which main
        # reports on one line with exit 2 before any run starts
        body = json.loads((CONFIGS / data.draw(st.sampled_from(
            ["grid_hgcn.json", "matrix_hgcn.json"]))).read_text())
        name = data.draw(st.sampled_from(sorted(body)))
        body[name] = data.draw(JSON_VALUES)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        try:
            load_config(path)
        except ConfigError as exc:
            assert name in str(exc), (name, body[name], str(exc))
            capsys.readouterr()
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err.splitlines()
            assert code == 2 and err == [f"config error: {exc}"]
            assert not (tmp_path / "out").exists()


class TestFlagErrors:
    # each flag error is argparse's: exit 2, the flag named, before any work
    @pytest.mark.parametrize("argv, flag", [
        (["compare", "--mixers", "vdn", "--seeds", "0"], "--seeds"),
        (["compare", "--mixers", "vdn", "--seeds", "x"], "--seeds"),
        (["compare", "--mixers", "hgcn-mix", "--hyperedges", "-1",
          "--seeds", "1"], "--hyperedges"),
        (["compare", "--mixers", "hgcn-mix", "--hyperedges", "2,x",
          "--seeds", "1"], "--hyperedges"),
        (["compare", "--mixers", "vdn", "--seeds", "1", "--workers", "0"],
         "--workers"),
        (["compare", "--mixers", "vdn", "--seeds", "1", "--workers", "-3"],
         "--workers"),
        (["train", "--workers", "0"], "--workers"),
        (["train", "--workers", "-3"], "--workers"),
        (["eval", "--checkpoint", "ckpt", "--episodes", "0"], "--episodes"),
        (["eval", "--checkpoint", "ckpt", "--episodes", "-1"], "--episodes"),
    ])
    def test_bad_count_exits_2_naming_the_flag(self, tmp_path, capsys,
                                               monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        cfg = _write_cfg(tmp_path)
        if argv[0] != "eval":
            argv = argv + ["--out", "out"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["train", "dump-hypergraph",
                                         "compare"])
    def test_out_below_a_file_exits_2(self, tmp_path, capsys, command):
        cfg = _write_cfg(tmp_path)
        (tmp_path / "file").write_text("")
        extra = {"train": [],
                 "dump-hypergraph": ["--checkpoint", str(tmp_path / "ckpt")],
                 "compare": ["--mixers", "vdn", "--seeds", "1"]}[command]
        code = main([command, "--config", str(cfg), *extra,
                     "--out", str(tmp_path / "file" / "sub" / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: --out:" in err and "is not a directory" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                              "file"]

    @pytest.mark.parametrize("command", ["train", "dump-hypergraph",
                                         "compare"])
    def test_out_name_too_long_exits_2(self, tmp_path, capsys, command):
        # the OS refuses to probe a 300-character name (ENAMETOOLONG)
        cfg = _write_cfg(tmp_path)
        extra = {"train": [],
                 "dump-hypergraph": ["--checkpoint", str(tmp_path / "ckpt")],
                 "compare": ["--mixers", "vdn", "--seeds", "1"]}[command]
        code = main([command, "--config", str(cfg), *extra,
                     "--out", str(tmp_path / ("x" * 300))])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: --out:") and "too long" in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["train", "dump-hypergraph",
                                         "compare"])
    def test_run_directory_refused_exits_2(self, tmp_path, capsys,
                                           monkeypatch, command):
        # the OS refuses to create the directory a run or dump writes to
        cfg = _write_cfg(tmp_path, mixer="hgcn-mix")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        capsys.readouterr()

        def refuse(path, *args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system", str(path))

        monkeypatch.setattr(Path, "mkdir", refuse)
        extra = {"train": [],
                 "dump-hypergraph": ["--checkpoint", str(tmp_path / "run"
                                                         / "seed_0"
                                                         / "checkpoint")],
                 "compare": ["--mixers", "vdn", "--seeds", "1"]}[command]
        code = main([command, "--config", str(cfg), *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: --out: [Errno 30]")

    def test_out_at_the_root_is_a_directory(self):
        # the root has no parent to check
        assert _out_path("/", is_dir=True) == Path("/")


class TestTrainCommand:
    def test_smoke_metrics_and_checkpoint(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        code = main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        run = tmp_path / "out" / "seed_0"
        metrics = run / "metrics.jsonl"
        assert metrics.read_text().strip()
        assert (run / "checkpoint" / "manifest.json").exists()
        assert (run / "config.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, mixer="qmix")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "seed_0" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "seed_0" / "metrics.jsonl").read_bytes()
        assert a == b

    def test_seed_flag_selects_single_seed(self, tmp_path):
        cfg = _write_cfg(tmp_path, seeds=[3, 4])
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--seed", "4"])
        assert not (tmp_path / "out" / "seed_3").exists()
        assert (tmp_path / "out" / "seed_4").exists()

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, lr=-2.0)
        code = main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: lr:" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2_before_training(self, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        out.write_text("")
        code = main(["train", "--config", str(_write_cfg(tmp_path)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert out.read_text() == ""


class TestEvalCommand:
    def _train(self, tmp_path, **overrides):
        cfg = _write_cfg(tmp_path, **overrides)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        return cfg, tmp_path / "out" / "seed_0" / "checkpoint"

    def test_smoke(self, tmp_path, capsys):
        cfg, ckpt = self._train(tmp_path)
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--episodes", "4"])
        assert code == 0
        out = capsys.readouterr().out
        stats = json.loads(out.strip().splitlines()[-1])
        assert set(stats) == {"mean_return", "success_rate"}

    def test_zero_episodes_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg, ckpt = self._train(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                  "--episodes", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--episodes" in err and "Traceback" not in err

    def test_corrupted_blob_clean_error(self, tmp_path, capsys):
        cfg, ckpt = self._train(tmp_path)
        blob = ckpt / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-16])
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg)])
        assert code == 1
        assert "bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing rows", "negative rows",
                                      "repeated name"])
    def test_malformed_manifest_clean_error(self, tmp_path, capsys, case):
        cfg, ckpt = self._train(tmp_path)
        break_manifest(ckpt, case)
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad checkpoint manifest entry" in err
        assert "'agent.fc1.w'" in err and "Traceback" not in err

    def test_shape_mismatch_names_parameter(self, tmp_path, capsys):
        cfg, ckpt = self._train(tmp_path)
        other = _write_cfg(tmp_path, name="other.json", agent_hidden=6)
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(other)])
        assert code == 1
        assert "agent.fc1.w" in capsys.readouterr().err

    def test_old_onehot_checkpoint_names_its_edge_weights(self, tmp_path,
                                                          capsys):
        # a one-hot run saved qmix's parameters plus two unit edge weights
        cfg, ckpt = self._train(tmp_path, mixer="qmix")
        run = load_config(cfg)
        store = init_run_stores(run, make_env(run.env), 0)[0]
        load_checkpoint(store, ckpt)
        for name in ("mix.edge_w1", "mix.edge_w2"):
            store.add(name, np.ones((2, 1)))
        save_checkpoint(store, ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unexpected parameters" in err and "'mix.edge_w1'" in err
        assert "Traceback" not in err


class TestDumpHypergraph:
    def _grid_cfg(self, tmp_path, **extra):
        return _write_cfg(tmp_path, name="grid.json",
                          env={"name": "grid", "n_agents": 3, "length": 2,
                               **extra},
                          mixer="hgcn-mix")

    def test_one_csv_per_step_with_nonnegative_entries(self, tmp_path):
        cfg = self._grid_cfg(tmp_path)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint"
        code = main(["dump-hypergraph", "--checkpoint", str(ckpt),
                     "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "dump")])
        assert code == 0
        files = sorted((tmp_path / "dump").glob("step_*.csv"))
        assert files
        for f in files:
            H = read_hypergraph_csv(f)
            assert (H >= 0.0).all()
            assert H.shape == (3, 2 + 3)

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = self._grid_cfg(tmp_path)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        dump = tmp_path / "dump"
        dump.write_text("")
        code = main(["dump-hypergraph",
                     "--checkpoint", str(tmp_path / "out" / "seed_0" / "checkpoint"),
                     "--config", str(cfg), "--out", str(dump)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err

    def test_unsupported_mixer_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, mixer="vdn")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint"
        code = main(["dump-hypergraph", "--checkpoint", str(ckpt),
                     "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "dump")])
        assert code == 2
        assert "config error: mixer: 'vdn' has no hypergraph" in capsys.readouterr().err

    def test_unsupported_mixer_is_reported_before_the_checkpoint_is_read(
            self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, mixer="qmix")
        code = main(["dump-hypergraph", "--checkpoint", str(tmp_path / "none"),
                     "--config", str(cfg), "--out", str(tmp_path / "dump")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: mixer: 'qmix' has no hypergraph" in err
        assert "Traceback" not in err and not (tmp_path / "dump").exists()

    def test_zero_hyperedges_runs_as_qmix_with_nothing_to_dump(self, tmp_path,
                                                               capsys):
        cfg = _write_cfg(tmp_path, mixer="hgcn-mix", hyperedges=0)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        run = tmp_path / "out" / "seed_0"
        assert json.loads((run / "config.json").read_text())["mixer"] == "qmix"
        code = main(["dump-hypergraph", "--checkpoint", str(run / "checkpoint"),
                     "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "dump")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'qmix' has no hypergraph" in err and "Traceback" not in err
        assert not (tmp_path / "dump").exists()

    def test_frozen_agents_yield_duplicate_learned_rows(self, tmp_path):
        cfg = self._grid_cfg(tmp_path, freeze=True)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint"
        m = 2  # learned hyperedges in the config
        for seed in range(60):
            dump = tmp_path / f"dump{seed}"
            main(["dump-hypergraph", "--checkpoint", str(ckpt),
                  "--config", str(cfg), "--seed", str(seed),
                  "--out", str(dump)])
            for f in sorted(dump.glob("step_*.csv")):
                H = read_hypergraph_csv(f)
                # frozen agents share the masked observation, so their
                # learned-block rows must match exactly when two freeze
                learned = H[:, :m]
                for i in range(3):
                    for j in range(i + 1, 3):
                        if np.array_equal(learned[i], learned[j]):
                            return
        pytest.fail("no dumped step produced two identical learned rows")


def _compare(tmp_path, cfg, name, *flags):
    """Run ``compare`` into ``<name>.json``; return its report."""
    out = tmp_path / f"{name}.json"
    assert main(["compare", "--config", str(cfg), "--out", str(out),
                 *flags]) == 0
    return json.loads(out.read_text())


def _but_wall_seconds(report):
    return {"runs": [{k: v for k, v in run.items() if k != "wall_seconds"}
                     for run in report["runs"]],
            "arms": {arm: {k: v for k, v in row.items()
                           if k != "wall_seconds_median"}
                     for arm, row in report["arms"].items()}}


class TestCompareCommand:
    # a corridor whose seeds 1-3 first succeed at episodes 4, 8 and 18, and
    # whose seed 0 never does within the 24-episode budget
    def _corridor(self, tmp_path, name="corridor.json", **overrides):
        return _write_cfg(tmp_path, name=name,
                          env={"name": "grid", "n_agents": 2, "length": 2},
                          episodes=24, eval_interval=2, **overrides)

    def test_runs_are_run_training_summaries(self, tmp_path):
        cfg = self._corridor(tmp_path)
        report = _compare(tmp_path, cfg, "cmp", "--mixers", "vdn,hgcn-mix",
                          "--seeds", "2")
        assert [(r["arm"], r["mixer"], r["hyperedges"], r["seed"])
                for r in report["runs"]] == [
            ("vdn", "vdn", 0, 0), ("vdn", "vdn", 0, 1),
            ("hgcn-mix_m2", "hgcn-mix", 2, 0), ("hgcn-mix_m2", "hgcn-mix", 2, 1)]
        keys = ("seed", "episodes", "env_steps", "train_steps", "solved_at")
        for run in report["runs"]:
            sub = load_config(cfg).replace(mixer=run["mixer"], seeds=[0, 1])
            summary = run_training(sub, run["seed"], tmp_path / "alone"
                                   / run["arm"] / f"seed_{run['seed']}")
            assert set(run) == {"arm", "mixer", "hyperedges", "wall_seconds",
                                *keys}
            assert {key: run[key] for key in keys} == {key: summary[key]
                                                       for key in keys}

    @pytest.mark.parametrize("stop", [False, True])
    def test_solved_at_is_the_first_full_success(self, tmp_path, stop):
        cfg = self._corridor(tmp_path, stop_on_success=stop)
        report = _compare(tmp_path, cfg, "cmp", "--mixers", "vdn",
                          "--seeds", "4")
        solved_at = []
        for run in report["runs"]:
            metrics = (tmp_path / "cmp_runs" / "vdn" / f"seed_{run['seed']}"
                       / "metrics.jsonl")
            records = [json.loads(line)
                       for line in metrics.read_text().splitlines()]
            first = next((r["episode"] for r in records
                          if r["success_rate"] == 1.0), None)
            assert run["solved_at"] == first
            assert run["episodes"] == (first if stop and first else 24)
            solved_at.append(first)
        assert solved_at == [None, 4, 8, 18]
        # the unsolved seed counts at its budget, 24 episodes
        assert report["arms"] == {"vdn": {
            "solved": 3, "episodes_q1": 7.0, "episodes_median": 13.0,
            "episodes_q3": 19.5,
            "wall_seconds_median": report["arms"]["vdn"]["wall_seconds_median"]}}

    def test_single_seed_median_equals_that_seed(self, tmp_path):
        # seed 0 never succeeds at the default lr, so it counts at its budget;
        # at lr 5e-3 it first succeeds at episode 18 and trains on to 24
        for lr, value in ((5e-4, 24.0), (5e-3, 18.0)):
            cfg = self._corridor(tmp_path, name=f"lr{lr}.json", lr=lr)
            report = _compare(tmp_path, cfg, f"lr{lr}", "--mixers", "vdn",
                              "--seeds", "1")
            (run,) = report["runs"]
            assert run["episodes"] == 24
            assert report["arms"]["vdn"] == {
                "solved": int(run["solved_at"] is not None),
                "episodes_q1": value, "episodes_median": value,
                "episodes_q3": value,
                "wall_seconds_median": run["wall_seconds"]}

    def test_arms_are_train_runs(self, tmp_path):
        # hgcn-mix at 0 learned hyperedges is the qmix arm
        cfg = _write_cfg(tmp_path, mixer="hgcn-mix")
        report = _compare(tmp_path, cfg, "arms", "--mixers", "vdn,hgcn-mix",
                          "--hyperedges", "0,2,4", "--seeds", "1")
        runs = tmp_path / "arms_runs"
        arms = {"vdn": ("vdn", 2), "qmix": ("hgcn-mix", 0),
                "hgcn-mix_m2": ("hgcn-mix", 2), "hgcn-mix_m4": ("hgcn-mix", 4)}
        assert {p.name for p in runs.iterdir()} == set(arms)
        for arm, (mixer, count) in arms.items():
            alone = _write_cfg(tmp_path, name=f"{arm}.json", mixer=mixer,
                               hyperedges=count)
            main(["train", "--config", str(alone),
                  "--out", str(tmp_path / arm)])
            assert ((runs / arm / "seed_0" / "metrics.jsonl").read_bytes() ==
                    (tmp_path / arm / "seed_0" / "metrics.jsonl").read_bytes())
        assert [(r["arm"], r["mixer"], r["hyperedges"])
                for r in report["runs"]] == [
            ("vdn", "vdn", 0), ("qmix", "qmix", 0),
            ("hgcn-mix_m2", "hgcn-mix", 2), ("hgcn-mix_m4", "hgcn-mix", 4)]

    def test_worker_pool_runs_every_arm_as_serial(self, tmp_path):
        cfg = self._corridor(tmp_path)
        serial, pool = (
            _compare(tmp_path, cfg, name, "--mixers", "qmix,hgcn-mix",
                     "--hyperedges", "2,4", "--seeds", "2",
                     "--workers", workers)
            for name, workers in (("serial", "1"), ("pool", "2")))
        assert _but_wall_seconds(serial) == _but_wall_seconds(pool)
        for arm in ("qmix", "hgcn-mix_m2", "hgcn-mix_m4"):
            for seed in (0, 1):
                serial, pool = (tmp_path / f"{name}_runs" / arm / f"seed_{seed}"
                                / "metrics.jsonl" for name in ("serial", "pool"))
                assert serial.read_bytes() == pool.read_bytes()

    @pytest.mark.parametrize("flags, flag", [
        (["--mixers", "vdn,vdn"], "--mixers"),
        (["--mixers", "hgcn-mix-oh,qmix"], "--mixers"),
        (["--mixers", "qmix,hgcn-mix", "--hyperedges", "0"], "--hyperedges"),
        (["--mixers", "hgcn-mix", "--hyperedges", "2,2"], "--hyperedges"),
        (["--mixers", "vdn,qmix", "--hyperedges", "2"], "--hyperedges"),
        (["--mixers", "vdn", "--out", "."], "--out"),
        (["--mixers", "qplex"], "--mixers"),
    ])
    def test_bad_arms_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                            flags, flag):
        monkeypatch.chdir(tmp_path)
        cfg = _write_cfg(tmp_path)
        code = main(["compare", "--config", str(cfg), "--seeds", "1",
                     "--out", "cmp.csv", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_and_flag_name_an_unknown_mixer_alike(self, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        texts = []
        for argv, prefix in (
                (["train", "--config", str(_write_cfg(tmp_path, mixer="qplex")),
                  "--out", "run"], "mixer: "),
                (["compare", "--config", str(_write_cfg(tmp_path, "c.json")),
                  "--mixers", "qplex", "--seeds", "1", "--out", "cmp.csv"],
                 "--mixers: ")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            head, _, text = err.partition(prefix)
            assert head == "config error: "
            texts.append(text)
        assert texts[0] == texts[1]
        assert texts[0].startswith("unknown mixer kind 'qplex'")

    def test_hyperedges_not_counts_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(_write_cfg(tmp_path)),
                  "--mixers", "hgcn-mix", "--hyperedges", "2,x", "--seeds", "1",
                  "--out", str(tmp_path / "cmp.csv")])
        assert exc.value.code == 2
        assert "--hyperedges" in capsys.readouterr().err

    def test_no_eval_reached_exits_2_naming_eval_interval(self, tmp_path,
                                                          capsys):
        cfg = _write_cfg(tmp_path, episodes=3, eval_interval=4)
        code = main(["compare", "--config", str(cfg), "--mixers", "vdn",
                     "--seeds", "1", "--out", str(tmp_path / "cmp.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: eval_interval:" in err and "Traceback" not in err

    def test_no_mixer_kind_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        code = main(["compare", "--config", str(cfg), "--mixers", ",",
                     "--seeds", "1", "--out", str(tmp_path / "cmp.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--mixers" in err and "Traceback" not in err


class TestLogging:
    def test_bad_log_level_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYPERMIX_LOG", "verbose")
        code = main(["train", "--config", "x", "--out", "y"])
        assert code == 2
        assert "HYPERMIX_LOG" in capsys.readouterr().err


class TestReadme:
    def test_command_line_examples_parse(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1]
        block = block.split("```bash", 1)[1].split("```", 1)[0]
        # optional arguments are shown in brackets
        commands = [shlex.split(line.replace("[", "").replace("]", ""))[1:]
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("hypermix ")]
        assert {c[0] for c in commands} == {"train", "eval", "dump-hypergraph",
                                            "compare"}
        assert any("--hyperedges" in c for c in commands)
        for command in commands:
            build_parser().parse_args(command)
            # a flag is spelled in full, not as an abbreviation argparse takes
            with pytest.raises(SystemExit):
                build_parser().parse_args([command[0], "--help"])
            usage = capsys.readouterr().out
            for flag in (t for t in command if t.startswith("--")):
                assert re.search(rf"{flag}\b", usage), (command, flag)

    def test_config_block_is_the_shipped_file(self):
        root = Path(__file__).parent.parent
        block = (root / "README.md").read_text().split("### Config file", 1)[1]
        data = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
        Config.from_dict(data)
        shipped = json.loads((root / "configs" / "grid_hgcn.json").read_text())
        assert data == shipped

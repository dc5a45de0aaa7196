"""The benchmark still runs against the package's API.

``perfbench/tracer.py`` wraps functions by module attribute name. A hook
site that is renamed or deleted would otherwise only show up as
``"absent": true`` in a traced benchmark run. ``perfbench/workloads.py``
calls the training entry points; a changed signature or return type would
otherwise only show up as failed operations in a benchmark run.
``bench/pairs.py`` summarises alternating parent/change runs; its report
must match the two sides by workload and seed. ``configs/grid3_solve.json``
is grid3-solve's config written out. Every public function,
class and method of the package has a caller in the package or a site in
the benchmark, apart from a short list kept for the tests.
"""

import ast
import gc
import importlib.util
import re
from collections import Counter
from pathlib import Path

import hypermix

ROOT = Path(__file__).resolve().parent.parent


def _load(name, directory="perfbench"):
    spec = importlib.util.spec_from_file_location(
        f"{directory}_{name}", ROOT / directory / f"{name}.py")
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


def test_grid3_solve_config_is_the_workloads():
    workloads = _load("workloads")
    shipped = hypermix.config.load_config(ROOT / "configs" / "grid3_solve.json")
    assert shipped == workloads.Grid3Solve().config(hypermix)


def test_pairs_report_matches_sides_by_workload_and_seed():
    pairs = _load("pairs", "bench")

    def record(seed, value, digest="a"):
        return {"workload": "w", "seed": seed, "trace": 0, "failed": 0,
                "metrics": {"m": {"value": value, "unit": "ms"}},
                "outputs": {"x.loss_digest": digest, "x.losses_hashed": 8}}

    parent = [record(seed, 10.0 + seed) for seed in range(1, 6)]
    # listed in another order; the change reads lower except at seed 3
    change = [record(seed, 13.5 if seed == 3 else 9.0 + seed,
                     "b" if seed == 5 else "a") for seed in (5, 4, 3, 2, 1)]
    assert pairs.report(parent, change, [{"name": "m", "bound": 0.25}]) == [
        "w m: parent 12.000 / 13.000 / 14.000 (IQR 15.4% of median)"
        "  change 11.000 / 13.000 / 13.500  change lower in 4 of 5: within bound",
        "w: failed operations parent 0, change 0; output digests differ in 1 of 5"]


def test_pairs_verdict_follows_the_bound_and_the_spread():
    verdict = _load("pairs", "bench").verdict
    tight = [100.0 + k for k in range(10)]  # IQR 4.5, 4.3% of the median
    assert verdict(tight, [p - 5.0 for p in tight], 0.25) == "gain resolved"
    assert verdict(tight, [p - 4.0 for p in tight], 0.25) == "within bound"
    assert verdict(tight, [p * 1.3 for p in tight], 0.25) == "worse"
    assert verdict(tight, [p * 1.2 for p in tight], 0.25) == "within bound"
    # IQR 65.25, 85% of the median 77: only a clean sweep reads
    wide = [50.0, 51.0, 52.0, 53.0, 54.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    assert verdict(wide, [p - 1.0 for p in wide], 0.25) == "unresolved"
    assert verdict(wide, [p * 1.3 for p in wide], 0.25) == "unresolved"
    # a change median past the parent's q3 x 1.25 (146.9) reads, spread or not
    assert verdict(wide, [p * 2.0 for p in wide], 0.25) == "worse"
    assert verdict(wide, [49.0] * 10, 0.25) == "within bound"


# public names that only the tests and demos call, each kept on purpose
NO_CALLER = {
    "finite_diff",          # the central-difference oracle of the gradient tests
    "mixing_matrix",        # the matrix view of a unit signal through the mixer
    "read_hypergraph_csv",  # reads back what dump-hypergraph writes
    "make_qtot_fn",         # the joint-value function the IGM oracle probes
    "igm_check",            # the exhaustive IGM oracle
}


def _references(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller():
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "hypermix").glob("*.py"))]
    defs = []  # (name, node) of each module-level def and class method
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    defs += [(item.name, item) for item in node.body
                             if isinstance(item, ast.FunctionDef)]
    calls = sum(map(_references, trees), Counter())
    bench = " ".join(path.read_text()
                     for path in sorted((ROOT / "perfbench").glob("*.py")))
    # a reference inside the definition itself (recursion) is not a caller
    uncalled = {name for name, node in defs if not name.startswith("_")
                and calls[name] == _references(node)[name]
                and not re.search(rf"\b{name}\b", bench)}
    assert uncalled == NO_CALLER


# defaulted parameters that no call in the package sets, each kept on purpose
UNSET = {
    ("finite_diff", "h"),       # the central-difference step of the oracle
    ("igm_check", "tol"),       # the IGM oracle's tie tolerance
    ("igm_check", "max_joint"), # the IGM oracle's enumeration cap
}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _sets(call: ast.Call, name: str, param: str, position) -> bool:
    """Whether ``call`` passes ``param`` to ``name``: calling it, or
    forwarding the arguments after it, as ``Ledger.call(fn, *args)`` does."""
    args = call.args
    if _name(call.func) != name:
        at = [i for i, arg in enumerate(args) if _name(arg) == name]
        if not at:
            return False
        args = args[at[0] + 1:]
    return bool({param, None} & {k.arg for k in call.keywords}
                or position is not None and len(args) > position)


def test_every_optional_parameter_is_set():
    # a defaulted parameter counts as set when some call in the package or
    # in perfbench passes it: by position, by keyword, or through a **
    # mapping (the env options of a config)
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "hypermix").glob("*.py"))]
    calls = [node for tree in trees + [ast.parse(path.read_text()) for path in
                                       sorted((ROOT / "perfbench").glob("*.py"))]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    functions = []  # (name a call uses, def, leading parameters no call passes)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node, 0))
            elif isinstance(node, ast.ClassDef):  # self; a class calls __init__
                functions += [(node.name if item.name == "__init__" else item.name,
                               item, 1) for item in node.body
                              if isinstance(item, ast.FunctionDef)]
    unset = set()
    for name, node, skip in functions:
        args = node.args.posonlyargs + node.args.args
        optional = [(a.arg, i - skip) for i, a in enumerate(args)
                    if i >= len(args) - len(node.args.defaults)]
        optional += [(a.arg, None) for a, d in zip(node.args.kwonlyargs,
                                                   node.args.kw_defaults) if d]
        for param, position in optional:
            if not any(_sets(call, name, param, position) for call in calls):
                unset.add((name, param))
    assert unset == UNSET

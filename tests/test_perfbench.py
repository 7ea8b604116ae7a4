"""The benchmark's traced run wraps library functions by name
(`perfbench/layers.instrument`).  A rename in the library would break only
that run, so this checks every patch point in-process: each wraps at least
one site, and `restore` puts every original back.  The benchmark also
restates the settings of its profile, which must be the library's."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cfgsentinel import experiment

from conftest import subprocess_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PATCH_POINTS = 21


def _package_bindings():
    """Every name bound in a loaded cfgsentinel module or in the dict of a
    class defined there, with the object it is bound to."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cfgsentinel" or name.startswith("cfgsentinel.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    yield layers, tracer
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def test_every_patch_point_wraps_a_site_and_is_restored(perfbench_modules):
    layers, tracer = perfbench_modules
    import cfgsentinel.cli  # noqa: F401  (a module that imports the others)

    before = _package_bindings()
    patch = layers.instrument(tracer.Tracer())
    try:
        assert len(patch.sites) == PATCH_POINTS
        unwrapped = [point for point, sites in patch.sites.items() if not sites]
        assert not unwrapped
    finally:
        patch.restore()
    after = _package_bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved


def test_restated_settings_are_the_librarys(monkeypatch):
    # `mine` and the count checks read these constants, not `experiment.run`'s
    # settings, so a changed library default must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    try:
        cfg = experiment.settings(workloads.SECTIONS)
        restated = {
            ("train", "epochs"): workloads.EPOCHS,
            ("train", "batch_size"): workloads.BATCH,
            ("split", "train_fraction"): workloads.SPLIT,
            ("mining", "min_nodes"): workloads.MIN_NODES,
            ("mining", "max_nodes"): workloads.MAX_NODES,
            ("mining", "support_fraction"): workloads.MINE_FRACTION,
            ("rank", "support_fraction"): workloads.RANK_FRACTION,
            ("rank", "k"): workloads.TOP_K,
            ("rank", "benign_ceiling"): workloads.CEILING,
            ("encode", "budget_seconds"): workloads.BUDGET,
            ("attack", "sgea_min_nodes"): workloads.SGEA_LO,
            ("attack", "sgea_max_nodes"): workloads.SGEA_HI,
            ("attack", "sgea_per_size"): workloads.SGEA_PER_SIZE,
            ("attack", "sgea_support_fraction"): workloads.SGEA_FRACTION,
        }
        assert {key: cfg[key[0]][key[1]] for key in restated} == restated
    finally:
        sys.modules.pop("workloads", None)


def test_traced_mine_operation_is_correct(perfbench_modules, tmp_path):
    # one `mine` operation as the traced benchmark run makes it, so a change
    # to how the library is called fails here and not only in that run
    layers, tracer = perfbench_modules
    import workloads

    try:
        mine = workloads.Mine()
        state = mine.setup(7, tmp_path / "setup", 0)
        T = tracer.Tracer()
        patch = layers.instrument(T)
        try:
            op = mine.op(state, tmp_path, 0)
        finally:
            patch.restore()
        assert not op.failures
        assert not mine.check_counts(T, op)
    finally:
        sys.modules.pop("workloads", None)


# One traced `experiment` operation as the traced benchmark run makes it;
# prints the operation's failures and count mismatches as JSON.
_TRACED_EXPERIMENT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import layers, tracer, workloads
experiment = workloads.Experiment()
work = Path(sys.argv[2])
state = experiment.setup(7, work / "setup", 0)
T = tracer.Tracer()
patch = layers.instrument(T)
try:
    op = experiment.op(state, work, 0)
finally:
    patch.restore()
print(json.dumps({"failures": op.failures, "counts": experiment.check_counts(T, op)}))
"""


def test_traced_experiment_operation_is_correct(tmp_path):
    # Adam steps, epochs and `encode`'s is_subgraph calls are counted in the
    # main thread of the parent process only.  The child runs at one BLAS
    # thread, as the benchmark does, so that training takes its helper path.
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_EXPERIMENT, str(PERFBENCH), str(tmp_path)],
        env=subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
        capture_output=True, text=True, check=True, timeout=600,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {"failures": [], "counts": []}

"""cfgsentinel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload experiment|mine|triage|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  Set-up runs several times and the median is reported.  The
loop then runs closed, one operation at a time, for `--seconds`.  With
`--trace 1` the first half of the time is untraced and the rest is one
traced operation (one pass over the stream for triage), whose spans give
the per-layer metrics and whose cost against the untraced half is the
tracing overhead.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs each
workload in a fresh process and prints a table of the named metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
NAMES = ("experiment", "mine", "triage")
# One BLAS thread (at most nproc): every workload is one closed-loop client.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail(values: list[float]) -> tuple[float, str, int]:
    """Highest percentile with at least ten samples beyond it: the value,
    its label and the sample count.  Below eleven samples: the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], "max", n
    i = n - 11
    return xs[i], f"p{100.0 * (i + 1) / n:.1f}", n


def env_info() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(wl, state, work: Path, window: float, min_ops: int, between):
    """Closed loop for `window` seconds, and for at least `min_ops`
    operations (experiment, mine) or documents (triage).  `between` runs
    after each experiment or mine operation, outside its timing.  Returns
    (latencies, branches, failure lists, operations, peak RSS in MB after
    the first `min_ops`)."""
    lat, branches, fails, ops = [], [], [], []
    rss = None
    t0 = time.perf_counter()
    i = 0
    while True:
        if wl.name == "triage":
            secs, stage, fail = wl.process(state, i)
            lat.append(secs)
            branches.append(stage)
            fails.append([fail] if fail else [])
            next_op = 0.0
        else:
            op = wl.op(state, work, i)
            op.detail.pop("res", None)  # only the traced operation's is checked
            ops.append(op)
            lat.append(op.seconds)
            fails.append(list(op.failures))
            between()
            next_op = statistics.median(lat)
        i += 1
        if i == min_ops:
            rss = peak_rss_mb()
        if i >= min_ops and time.perf_counter() - t0 + next_op > window:
            return lat, branches, fails, ops, rss


def op_mean(lat: list[float], keys: list) -> float:
    """Mean over the run's inputs (corpora, or triage documents) of each
    input's median time, so that a slow spell that hits only some repeats
    of an input does not count."""
    by_key: dict = {}
    for k, secs in zip(keys, lat):
        by_key.setdefault(k, []).append(secs)
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def run_one(args) -> int:
    for v in BLAS_VARS:
        os.environ[v] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from layers import MODULES, UNITS, instrument, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    env = env_info()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        setup_times, state = [], None
        T_setup = Tracer()

        def timed_setup():
            r = len(setup_times)
            # In a traced run the first set-up is traced, for corpus.generate_s.
            patch = instrument(T_setup) if args.trace and r == 0 else None
            gc.collect()  # so that no set-up pays for the garbage of the one before
            t0 = time.perf_counter()
            try:
                new = wl.setup(args.seed, work / f"setup-{r}", r)
            finally:
                if patch:
                    patch.restore()
            setup_times.append(time.perf_counter() - t0)
            return new

        for _ in range(wl.setups):
            state = wl.add(state, timed_setup())

        # An untimed warm-up operation on corpus 0 lets lazy allocation in
        # numpy and the interpreter finish first, and gives the first digest
        # that later operations on corpus 0 must match.  (Triage is warm:
        # set-up ran every document through the pipeline.)
        warm = [] if wl.name == "triage" else [wl.op(state, work, 0)]
        for op in warm:
            op.detail.pop("res", None)
        # Untraced, every corpus gets a timed operation (every document, for
        # triage), and peak RSS is read after that fixed amount of work, so it
        # does not grow with how many operations a fast machine fits into the
        # window.  Traced, the untraced half only needs corpus 0, which the
        # traced operation repeats.
        window = args.seconds / 2 if args.trace else args.seconds
        loop_t0 = time.perf_counter()
        # Experiment and mine set up again after each operation, so that the
        # set-up times sample the machine over the whole run, not one moment.
        lat, branches, fails, ops, rss = run_loop(
            wl, state, work, window, 1 if args.trace else wl.first_pass(state), timed_setup)
        loop_wall = time.perf_counter() - loop_t0

        layer, summary = {}, []
        if args.trace:
            T = Tracer()
            patch = instrument(T)
            try:
                t0 = time.perf_counter()
                if wl.name == "triage":
                    n = wl.first_pass(state)
                    traced = []
                    for j in range(len(lat), len(lat) + n):
                        T.run_id = j  # the spans of one document share an id
                        traced.append(wl.process(state, j))
                else:
                    # the next multiple of wl.corpora, so corpus 0 again
                    T.run_id = -(-len(lat) // wl.corpora) * wl.corpora
                    traced_op = wl.op(state, work, T.run_id)
            finally:
                patch.restore()
            traced_wall = time.perf_counter() - t0
            if wl.name == "triage":
                count_fail = wl.check_counts(T, state, len(lat), [b for _, b, _ in traced])
                lat_t = sum(s for s, _, _ in traced)
                overhead = 100.0 * (lat_t / n / (sum(lat) / len(lat)) - 1.0)
                fails += [([f] if f else []) for _, _, f in traced]
                fails[-1] += count_fail
                base, base_name = traced_wall, "triage loop wall time"
            else:
                count_fail = wl.check_counts(T, traced_op)
                same = [op.seconds for op in ops if op.key == traced_op.key]
                overhead = 100.0 * (traced_op.seconds / statistics.median(same) - 1.0)
                ops.append(traced_op)
                fails.append(list(traced_op.failures) + count_fail)
                base, base_name = traced_op.seconds, wl.primary
            T.total["corpus.generate"] += T_setup.total.get("corpus.generate", 0.0)
            layer = layer_metrics(T, base, overhead)
            T.write(OUT / "traces" / f"{wl.name}-seed{args.seed}.jsonl")
            summary = trace_summary(T, wl, base, base_name, MODULES)
            summary.append(f"  patched sites: {json.dumps(patch.sites, sort_keys=True)}")

        # Every operation on the same corpus must write the same tree.
        fails += [list(op.failures) for op in warm]
        first = {op.key: op.digest for op in warm}
        for k, op in enumerate(ops):
            if first.setdefault(op.key, op.digest) != op.digest:
                fails[k].append("artifact digest differs from the corpus's first operation")

        attempted = len(fails)
        failed = sum(1 for f in fails if f)
        if wl.name == "triage":
            keys = [j % wl.first_pass(state) for j in range(len(lat))]
        else:
            keys = [op.key for op in ops[: len(lat)]]
        e2e = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "op_ms": 1e3 * op_mean(lat, keys),
        }
        named = named_metrics(wl, e2e, lat, branches, ops, failed, attempted, len(setup_times))
        print(f"  set-up times (s): {', '.join(f'{s:.3f}' for s in setup_times)}")
        print(f"  untraced loop: {len(lat)} operations in {loop_wall:.2f} s")
        for name, (value, unit, note) in named.items():
            print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
        for line in summary:
            print(line)
        for k, f in enumerate(fails):
            for msg in f:
                print(f"  FAILED operation {k}: {msg}")

        if args.trace:
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layer.items()}
        else:
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "setup_times_s": setup_times,
            "latencies_s": lat,
            "named": {k: {"value": v[0], "unit": v[1]} for k, v in named.items()},
            "end_to_end": e2e, "per_layer": layer,
            "failures": [f for f in fails if f],
        }
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def named_metrics(wl, e2e, lat, branches, ops, failed, attempted, n_setups) -> dict:
    """The metrics the workload is about, by the names later issues cite."""
    out = {
        "setup_s": (e2e["setup_s"], "s", f"median of {n_setups} set-ups"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB", "set-up, warm-up and first pass"),
        "failed_fraction": (failed / attempted, "ratio", f"{failed} of {attempted}"),
    }
    if wl.name == "experiment":
        d = ops[0].detail
        out["experiment_s"] = (e2e["op_ms"] / 1e3, "s", f"{len(lat)} runs")
        for k in ("detector_accuracy", "sbd_accuracy"):
            out[k] = (d[k], "ratio", "corpus 0")
        if d["screen_flag_rate"] is not None:  # None when no graph evades
            out["screen_flag_rate"] = (d["screen_flag_rate"], "ratio", "corpus 0")
    elif wl.name == "mine":
        out["mine_s"] = (e2e["op_ms"] / 1e3, "s", f"{len(lat)} passes")
    else:
        out["triage_graphs_per_s"] = (1e3 / e2e["op_ms"], "1/s", f"{len(lat)} documents")
        for stage, label in (("sbd", "screen"), ("classifier", "classifier")):
            xs = [s for s, b in zip(lat, branches) if b == stage]
            if not xs:
                continue
            t_val, t_label, t_n = tail(xs)
            out[f"triage_{label}_p50_ms"] = (1e3 * statistics.median(xs), "ms", f"n={len(xs)}")
            out[f"triage_{label}_tail_ms"] = (1e3 * t_val, "ms", f"{t_label} of {t_n}")
    return out


def trace_summary(T, wl, base: float, base_name: str, modules) -> list[str]:
    lines = [f"  self time by module (share of {base_name}, {base:.3f} s):"]
    by_mod = T.self_by_module()
    for m in sorted(modules, key=lambda m: -by_mod.get(m, 0.0)):
        secs = by_mod.get(m, 0.0)
        lines.append(f"    {m:<12} {secs:9.3f} s  {100 * secs / base:6.1f} %")
    rest = base - sum(by_mod.values())
    lines.append(f"    {'(untraced)':<12} {rest:9.3f} s  {100 * rest / base:6.1f} %")
    if wl.name == "experiment":
        stages = T.children_of("experiment.run")
        lines.append("  experiment stages (inclusive, share of experiment_s):")
        for name, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<32} {secs:9.3f} s  {100 * secs / base:6.1f} %")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows, combined, ok = {}, {}, True
    attempted = failed = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        combined.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        rows[name] = json.loads((OUT / "results" / f"{tag}.json").read_text())["named"]
    print("named metrics by workload:")
    for name, named in rows.items():
        for k, v in named.items():
            print(f"  {name:<11} {k:<28} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cfgsentinel" / "__init__.py").is_file():
        print(f"perfbench: no cfgsentinel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

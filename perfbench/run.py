#!/usr/bin/env python3
"""End-to-end benchmark of the provkit pipeline, driven through its CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload typed-gram --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

One run builds the workload's inputs from ``--seed`` (three times with
``--trace 0``, reporting the median as ``setup_s``), then repeats the
workload's CLI invocations, one child process at a time, until their summed
wall time reaches ``--seconds`` (at least two iterations).  Outputs are then
checked: byte-identical across iterations, pinned hashes at seed 0, and
agreement with independent in-process computations.  With ``--trace 1`` the
same library calls are replayed in-process under a span tracer and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones ``BENCHMARK.json`` lists.  Lines before it record the
environment, sample counts, ``fail_ratio`` and artifact hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = Path(__file__).resolve().parent / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
MIN_ITERATIONS = 2
#: Stop starting iterations after this long, so the run ends within 180 s.
ITERATION_CUTOFF_S = 120.0
CHILD_TIMEOUT_S = 170.0
DEFAULT_SEED = 0

#: Library calls with a self-time metric ``<name>.s``.
LAYER_SPANS = (
    "pgsim.simulate_run", "storage.save_internal", "storage.load_internal",
    "provjson.load_provjson", "typeinf.infer_types", "typeinf.dump_types",
    "kernel.build_universe", "kernel.featurize", "kernel.features_to_csv",
    "kernel.gram", "kernel.gram_to_csv", "kernel.retrieve_instances",
    "kernel.hamming_distance", "baselines.wl_gram", "svm.svm_train",
    "mlpipe.repeated_kfold",
)


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Ops:
    """Counts operations: CLI invocations and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def check(self, what: str, fn) -> bool:
        try:
            fn()
        except Exception as exc:  # a failed check is counted, not fatal
            return self.record(False, what, f"{type(exc).__name__}: {exc}")
        return self.record(True, what)


class Cli:
    """Runs ``python -m provkit.cli`` from the checkout's sources."""

    def __init__(self, log: Path) -> None:
        self.log = log
        self.env = dict(os.environ)
        paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def spawn(self, cmd: list[str]) -> Child:
        """Run one child to completion; rusage comes from that child alone."""
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=log, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)

    def provkit(self, argv: list[str]) -> Child:
        return self.spawn([sys.executable, "-m", "provkit.cli", *argv])


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
    }


def tree_digest(d: Path) -> dict[str, str]:
    from workloads import sha256

    return {str(p.relative_to(d)): sha256(p) for p in sorted(d.rglob("*")) if p.is_file()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 run_dir: Path) -> tuple[Ops, dict, dict]:
    """One benchmark run; returns the ops, all computed metrics and details."""
    import workloads
    from tracer import Tracer

    sizes = workloads.SMOKE if smoke else workloads.FULL
    wl = workloads.WORKLOADS[name](seed=seed, sizes=sizes, threads=workloads.nproc())
    ops = Ops()
    cli = Cli(run_dir / "cli.log")
    tr = Tracer(trace)
    started = time.monotonic()

    # Set-up builds the inputs; it is repeated to report a median and to
    # check that the inputs are a deterministic function of the seed.  The
    # repeats alternate with timed iterations, so the samples of one run are
    # spread over its whole length rather than bunched at the end: the
    # speed of a shared host drifts over tens of seconds.
    setup_times, inputs = [], []
    inp = run_dir / "input0"

    def set_up(r: int) -> None:
        d = run_dir / f"input{r}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        state = wl.setup(d, tr if r == 0 else Tracer(False))
        setup_times.append(time.perf_counter() - t0)
        inputs.append(tree_digest(d))
        if r == 0:
            wl.state = state
        else:
            shutil.rmtree(d)

    # One timed iteration: every CLI invocation of the workload, one after
    # another.  Artifacts are hashed after the iteration's clock stops.
    iters, digests = [], []

    def iterate() -> None:
        out = run_dir / f"iter{len(iters)}"
        out.mkdir()
        children = []
        for argv in wl.steps(inp, out):
            child = cli.provkit(argv)
            ops.record(child.returncode == 0, f"provkit {argv[0]}", f"exit {child.returncode}")
            children.append(child)
        iters.append({
            "wall_s": sum(c.wall_s for c in children),
            "cpu_s": sum(c.cpu_s for c in children),
            "peak_rss_mb": max(c.peak_rss_mb for c in children),
        })
        try:
            digests.append(wl.artifacts(out))
        except OSError as exc:
            digests.append(None)
            print(f"missing artifact: {exc}", file=sys.stderr)
        if len(iters) > 1:
            shutil.rmtree(out)

    def measuring() -> bool:
        return not iters or not smoke and time.monotonic() - started < ITERATION_CUTOFF_S and (
            len(iters) < MIN_ITERATIONS or sum(i["wall_s"] for i in iters) < seconds)

    set_up(0)
    for r in range(1, 1 if trace else SETUP_REPEATS):
        if measuring():
            iterate()
        set_up(r)
    while measuring():
        iterate()
    ops.check("set-up inputs byte-identical across repeats",
              lambda: workloads.expect(all(x == inputs[0] for x in inputs), "inputs differ"))

    # Checks, outside every timed span.
    out = run_dir / "iter0"
    ops.check("artifacts byte-identical across iterations",
              lambda: workloads.expect(digests[0] is not None and all(d == digests[0] for d in digests),
                                       "artifacts differ between iterations"))
    if seed == DEFAULT_SEED and not smoke:
        produced = {**inputs[0], **(digests[0] or {})}
        pins = json.loads(PINS.read_text(encoding="utf-8"))[name]
        for artifact, pin in pins.items():
            ops.check(f"{artifact} matches its pinned hash",
                      lambda a=artifact, p=pin: workloads.expect(
                          produced.get(a) == p, f"{a} hash changed"))
    for what, fn in wl.checks(inp, out):
        ops.check(what, fn)

    wall = statistics.median(i["wall_s"] for i in iters)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(i["cpu_s"] for i in iters), "s"),
        "peak_rss_mb": (statistics.median(i["peak_rss_mb"] for i in iters), "MB"),
        "edges_per_s": (wl.edges / wall, "edges/s"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    if trace:
        tr.phase = "replay"
        wl.replay(inp, tr)
        imports = [cli.spawn([sys.executable, "-c", "import provkit.cli"]) for _ in range(3)]
        ops.record(all(c.returncode == 0 for c in imports), "import provkit.cli")
        self_s = tr.self_seconds()
        for span in LAYER_SPANS:
            metrics[f"{span}.s"] = (self_s.get(span, 0.0), "s")
        for counter in ("pgsim.graphs", "pgsim.edges", "typeinf.nodes", "typeinf.edges",
                        "kernel.instances", "svm.smo_iters", "svm.unconverged",
                        "svm.support_vectors", "mlpipe.folds"):
            metrics[counter] = (tr.counts.get(counter, 0), "count")
        for counter in ("storage.bytes_written", "storage.bytes_read", "typeinf.dump_bytes"):
            metrics[counter] = (tr.counts.get(counter, 0), "B")
        for d in range(6):
            key = f"kernel.universe_size.d{d}"
            metrics[key] = (tr.gauges.get(key, 0), "count")
        metrics["cli.import_s"] = (statistics.median(c.wall_s for c in imports), "s")
        metrics["cli.self_s"] = (wall - tr.top_level_seconds("replay"), "s")

    details = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "iterations": len(iters), "setups": len(setup_times),
        "iteration_wall_s": [round(i["wall_s"], 4) for i in iters],
        "setup_wall_s": [round(t, 4) for t in setup_times],
        "attempted": ops.attempted, "failed": ops.failed,
        "fail_ratio": ops.failed / ops.attempted,
        "edges": wl.edges,
        "inputs": inputs[0],
        "artifacts": digests[0],
    }
    return ops, metrics, details


def select(metrics: dict, spec_metrics: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    out = {}
    for m in spec_metrics:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit!r}, BENCHMARK.json says {m['unit']!r}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def print_summary(details: dict, metrics: dict, spec_metrics: list[dict]) -> None:
    for m in spec_metrics:
        value, unit = metrics[m["name"]]
        if details["trace"]:
            how = "one traced replay"
        else:
            how = f"median of {details['setups' if m['name'] == 'setup_s' else 'iterations']}"
        print(f"{details['workload']:>14} {m['name']:<28} {value:>14.6g} {unit:<8} ({how})")
    print(f"{details['workload']:>14} {'fail_ratio':<28} {details['fail_ratio']:>14.6g} {'ratio':<8} "
          f"({details['failed']} of {details['attempted']} operations)")
    print("details " + json.dumps(details, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)

    if not (SRC / "provkit" / "cli.py").is_file():
        print(f"error: no provkit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import provkit

    if Path(provkit.__file__).resolve().parent != SRC / "provkit":
        print(f"error: imported provkit from {provkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.smoke:
        runs = [(w, t) for w in names for t in (False, True)]
    elif args.workload in names:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"--workload must be one of {names}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    print("env " + json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    attempted = failed = 0
    result_metrics: dict = {}
    for name, trace in runs:
        run_dir = WORK / f"{name}-{os.getpid()}-{int(trace)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            ops, metrics, details = run_workload(
                name, args.seed, 0.0 if args.smoke else args.seconds, trace, args.smoke, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        spec_metrics = spec["per_layer"] if trace else spec["end_to_end"]
        print_summary(details, metrics, spec_metrics)
        result_metrics = select(metrics, spec_metrics)
        attempted += ops.attempted
        failed += ops.failed
    try:
        WORK.rmdir()
    except OSError:  # another run is still using it
        pass
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if args.smoke else result_metrics,
    }
    print(json.dumps(result))
    return 0 if not (args.smoke and failed) else 1


if __name__ == "__main__":
    sys.exit(main())

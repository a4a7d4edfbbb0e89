"""Benchmark of the `critsets` CLI: end to end, and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload params --seed 1 --seconds 12 --trace 0

Workloads (see workloads.py): params, scan, sudoku, reduce.  The loop is
closed: one `critsets` child process at a time, each started after the
previous one ended, so the workload runs on one CPU.

--trace 0 times the workload's ops as child processes, run back to back in
passes until their times add up to --seconds (at least one pass), and checks
every output.  It reports the end-to-end metrics: norm_wall_s (median pass),
setup_s (median of calls that do no work, made before and after the passes)
and peak_rss_mb (largest max-RSS of the timed ops).  Both times are wall
times scaled to a reference CPU speed measured while each child runs, see
spawner.py; the raw wall time of every op is printed beside them.

--trace 1 runs one untimed pass of the same ops, then the same computations
in process with a span around each public call (traced.py), and reports
self time and span count per layer, exact work counts, import time, child
CPU time and the tracing overhead.  Per-call percentiles go on the
"per-call metrics:" line; spans and counts go to perfbench/out/.  Exact
counts must repeat between traced runs of one workload and seed.  The traced
run also starts the probe ops, which pin known defects: their failures are
reported as probe.failed, not as failed ops.

Every line but the last is for people.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
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
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5  # before the timed passes, and again after them
IMPORT_SAMPLES = 5
ENUMERATE_SAMPLES = 3


@dataclass
class Child:
    code: int | None  # None when killed at its timeout
    stdout: str
    stderr: str
    wall_s: float
    norm_s: float  # wall_s at the reference CPU speed (spawner.py)
    cpu_s: float
    rss_mb: float


@dataclass
class OpResult:
    name: str
    child: Child
    error: str | None


class Runner:
    """Runs one child process at a time through spawner.py, inside a
    deadline for the whole run."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=RUN_BUDGET_S)
        finally:
            if self.spawner.poll() is None:
                self.spawner.kill()
                self.spawner.wait()
            self.spawner.stdout.close()

    def run(self, cmd: list[str], timeout: float) -> Child:
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return Child(None, "", "run deadline reached", 0.0, 0.0, 0.0, 0.0)
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        request = {"cmd": cmd, "timeout": timeout, "stdout": str(out_path), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        r = json.loads(reply)
        return Child(None if r["killed"] else r["code"],
                     out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                     r["wall_s"], r["norm_s"], r["cpu_s"], r["maxrss_kb"] / 1024)

    def run_op(self, op) -> OpResult:
        child = self.run([sys.executable, "-m", "critsets.cli", *op.argv], op.timeout)
        return OpResult(op.name, child, outcome(op, child))


def outcome(op, child: Child) -> str | None:
    """None when the op met its contract, else a one-line reason."""
    if child.code is None:
        return f"no exit within {op.timeout:g} s ({child.stderr or 'killed'})"
    if "Traceback" in child.stderr:
        return "traceback: " + child.stderr.strip().splitlines()[-1]
    if child.code != op.expect_code:
        return f"exit {child.code}, expected {op.expect_code}"
    try:
        return op.check(child.stdout, child.stderr)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"output check raised {exc!r}"


def report_op(r: OpResult, tag: str):
    c = r.child
    status = "ok" if r.error is None else f"FAILED: {r.error}"
    print(f"{tag} {r.name!r}: wall_s={c.wall_s:.4f} norm_s={c.norm_s:.4f} cpu_s={c.cpu_s:.4f} "
          f"rss_mb={c.rss_mb:.1f} exit={c.code} {status}", flush=True)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def timed_passes(runner: Runner, w, seconds: float) -> list[list[OpResult]]:
    """Whole passes over the ops until their wall times add up to `seconds`,
    at least one, and no more than the run's deadline leaves room for."""
    passes = []
    measured = 0.0
    start = time.monotonic()
    while True:
        results = [runner.run_op(op) for op in w.ops]
        for r in results:
            report_op(r, f"pass {len(passes)}")
        passes.append(results)
        measured += sum(r.child.norm_s for r in results)
        now = time.monotonic()
        if measured >= seconds or runner.deadline - now < 2 * (now - start) / len(passes) + 20:
            return passes


def setup_times(runner: Runner, setup, results: list[OpResult]) -> list[float]:
    """Wall times of SETUP_SAMPLES calls that do no work."""
    times = []
    for _ in range(SETUP_SAMPLES):
        r = runner.run_op(setup)
        report_op(r, "setup")
        results.append(r)
        times.append(r.child.norm_s)
    return times


def python_c(runner: Runner, code: str, errors: list[str]) -> Child:
    child = runner.run([sys.executable, "-c", code], 30.0)
    if child.code != 0:
        errors.append(f"python -c {code!r} failed: {child.stderr.strip()[-200:]}")
    return child


def end_to_end(runner: Runner, w, seconds: float, setup):
    # one untimed call first, so byte-compiling a fresh checkout is not counted
    results = [runner.run_op(setup)]
    report_op(results[0], "setup")
    setup_s = setup_times(runner, setup, results)
    passes = timed_passes(runner, w, seconds)
    results += [r for p in passes for r in p]
    setup_s += setup_times(runner, setup, results)
    metrics = {
        "norm_wall_s": (statistics.median(sum(r.child.norm_s for r in p) for p in passes), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (max(r.child.rss_mb for p in passes for r in p), "MB"),
    }
    return metrics, results


def traced_run(runner: Runner, w, setup, host: dict):
    import traced

    warmup = runner.run_op(setup)
    report_op(warmup, "setup")
    untraced = [runner.run_op(op) for op in w.ops]
    for r in untraced:
        report_op(r, "untraced")
    wall_s = sum(r.child.wall_s for r in untraced)
    errors = []
    imports = [python_c(runner, "import critsets", errors).norm_s
               - python_c(runner, "pass", errors).norm_s for _ in range(IMPORT_SAMPLES)]

    tracer = traced.Tracer()
    try:
        traced_errors, counts = traced.RUNNERS[w.name](tracer, w)
    except Exception as exc:  # the program failing in process is a failed run, not a crash
        traced_errors, counts = [f"traced {w.name} raised {exc!r}"], {}
    errors += traced_errors
    spans = tracer.spans

    probes = [runner.run_op(op) for op in w.probes]
    for r in probes:
        report_op(r, "probe")

    traced_total = sum(t for op, t in traced.op_totals(spans).items()
                       if op in {o.name for o in w.ops})
    metrics = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.wall_s": (wall_s, "s"),
        "cli.cpu_s": (sum(r.child.cpu_s for r in untraced), "s"),
        **traced.layer_metrics(spans),
        **{k: (counts.get(k, 0), "count") for k in (
            "coloring.colorings", "critical.calls", "sudoku.surviving_cells",
            "reductions.g_vertices", "scan.graphs")},
        "probe.failed": (sum(r.error is not None for r in probes), "count"),
        "trace.overhead": (traced_total / wall_s if wall_s else 0.0, "ratio"),
    }
    detail = traced.detail_metrics(w.name, spans)
    if w.name == "scan":
        detail["graphs.enumerate_graphs_s.n6"] = (enumerate_n6_s(runner, errors), "s")
    print("per-call metrics: " + json.dumps({k: {"value": v, "unit": u}
                                             for k, (v, u) in sorted(detail.items())}), flush=True)
    exact = {**counts, **{k: v for k, (v, u) in metrics.items() if k.endswith(".spans")}}
    save_trace(w, {"machine": host, "counts": exact, "spans": spans,
                   "metrics": {k: v for k, (v, u) in {**metrics, **detail}.items()}}, errors)
    return metrics, [warmup] + untraced, errors


def enumerate_n6_s(runner: Runner, errors: list[str]) -> float:
    """Median time of enumerate_graphs(6) in a fresh process, timed inside it."""
    code = ("import time; from critsets.graphs import enumerate_graphs as e; "
            "t = time.perf_counter(); e(6); print(time.perf_counter() - t)")
    samples = []
    for _ in range(ENUMERATE_SAMPLES):
        child = python_c(runner, code, errors)
        samples.append(float(child.stdout) if child.code == 0 else float("nan"))
    return statistics.median(samples)


def save_trace(w, record: dict, errors: list[str]):
    """Write the trace file, after checking the exact counts against the
    previous traced run of this workload and seed, if there is one."""
    path = OUT / f"trace-{w.name}-seed{w.seed}.json"
    if path.exists():
        previous = json.loads(path.read_text())["counts"]
        if previous != record["counts"]:
            errors.append(f"exact counts differ from the previous traced run: {previous}")
        else:
            print("exact counts repeat the previous traced run", flush=True)
    path.write_text(json.dumps({"workload": w.name, "seed": w.seed, **record}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("params", "scan", "sudoku", "reduce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "critsets" / "cli.py").is_file():
        print(f"error: no critsets sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    host = machine()
    print("machine: " + json.dumps(host), flush=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # the spawner starts before the large imports below
    runner = Runner(tmp, deadline)
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        w = workloads.BUILDERS[args.workload](args.seed, tmp)
        if args.trace:
            metrics, results, errors = traced_run(runner, w, workloads.setup_op(), host)
        else:
            metrics, results = end_to_end(runner, w, args.seconds, workloads.setup_op())
            errors = []
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)

    for e in errors:
        print(f"traced run FAILED: {e}", flush=True)
    # the traced run, with its helper processes and checks, counts as one op
    failed = sum(r.error is not None for r in results) + bool(errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results) + args.trace,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

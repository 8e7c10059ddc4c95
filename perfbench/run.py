"""confhydro benchmark: four workloads, correctness gates, optional tracing.

Run one workload with one seed (what a comparison between two commits runs):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run all four and print every end-to-end metric by name and unit:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 1`` makes the separate traced run that reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One compute thread per process, set before numpy loads.  The two vCPUs of
# the machine the bounds were set on are hyperthreads of one core: an idle
# BLAS worker spinning on the sibling slowed the measured thread by up to a
# quarter, by an amount that changed from run to run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)

import tracing  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 7
IMPORT_REPS = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150
NPROC = len(os.sched_getaffinity(0))  # CPUs available, read before pinning
E2E_METRICS = {"setup_s": "s", "ref_wall_s": "s", "peak_rss_mb": "MB"}
# The host's speed drifts by up to 70% over tens of seconds.  A probe loop
# timed just before and after each operation, and each set-up child, measures
# that speed; ``ref_wall_s`` and ``setup_s`` rescale every time to the probe's
# time on the reference host (an Intel Xeon at 2.1 GHz, 2 vCPUs, when it ran
# fast).
PROBE_ITERATIONS = 150_000
PROBE_REF_S = 0.008
SETUP_CODE = """\
import sys, time
OUT = sys.argv[1]
t0 = time.perf_counter()
import confhydro
{warmup}
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Runner:
    """Runs operations one at a time and gates each output.

    CLI operations run as subprocesses (``in_process=False``) or through
    ``confhydro.cli.main`` in this process; library operations always run
    in this process.
    """

    def __init__(self, in_process: bool, tmp: Path):
        self.in_process = in_process
        self.tmp = tmp

    def run_pass(self, ops, spans=None) -> list:
        return [self.run_op(op, spans) for op in ops]

    def run_op(self, op, spans=None) -> Record:
        inputs = op.prepare()
        span = spans.span(f"op.{op.kind}") if spans is not None else nullcontext()
        out_file = self.tmp / f"{op.kind}.out"
        out_file.unlink(missing_ok=True)
        rec = Record(op.kind, op.label, 0.0)
        probe = probe_seconds()
        error = None
        t0 = time.perf_counter()
        try:
            with span:
                if op.argv is None:
                    out = op.call(inputs)
                else:
                    out = self._cli([*op.argv, "--output", str(out_file)])
        except Exception as exc:  # the program failed; count it and go on
            error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0
        # the host's speed while the operation ran: probes on both sides
        rec.probe_s = 0.5 * (probe + probe_seconds())
        if error is not None:
            problems = [error]
        else:
            rec.points, rec.integrals = op.points, op.integrals
            if op.argv is not None:
                text = out_file.read_text() if out_file.exists() else ""
                out = (out, text)
                rec.bytes_out = len(text.encode())
                rec.rows_out = _rows(text)
            problems = op.gate(out)
        rec.problems += [f"{op.label}: {p}" for p in problems]
        return rec

    def _cli(self, argv) -> int:
        if self.in_process:
            from confhydro import cli

            return cli.main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "confhydro.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode


def probe_seconds() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def _rows(text: str) -> int:
    if text.startswith("{"):
        try:
            return len(json.loads(text).get("rows", ()))
        except ValueError:
            return 0
    return max(text.count("\n") - 1, 0)


def setup_seconds(workload, tmp: Path) -> tuple:
    """Fresh-interpreter ``import confhydro`` plus the warm-up call.

    Returns the median over ``SETUP_REPS`` children of the time rescaled by
    the probe timed around each child, and the median of the raw times.
    """
    code = SETUP_CODE.format(warmup=workload.warmup)
    raw, ref = [], []
    for _ in range(SETUP_REPS):
        probe = probe_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp / "setup.out")],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        ref.append(seconds * 2.0 * PROBE_REF_S / (probe + probe_seconds()))
    return statistics.median(ref), statistics.median(raw)


def import_seconds() -> dict:
    """Cumulative import times from ``python -X importtime``, median of runs."""
    samples: dict = {}
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import confhydro"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in ("confhydro", "scipy.special", "numpy"):
                    samples.setdefault(name, []).append(int(parts[1]) * 1e-6)
    return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_model": cpu,
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "inputs": workload.sizes,
        "load": "closed loop, one client, one operation at a time",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def run_untraced(workload, seed: int, seconds: float, tmp: Path):
    """End-to-end metrics: set-up, then passes while they fit in ``seconds``.

    A pass's time is the sum of its operations' times.  ``wall_s`` is the
    median over passes of that sum as measured; ``ref_wall_s`` is the median
    of the sums after each operation is rescaled to the reference host's
    speed by the probe timed around it.
    """
    setup, setup_raw = setup_seconds(workload, tmp)
    runner = Runner(in_process=False, tmp=tmp)
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(workload.ops(seed, len(passes))))
        last = time.perf_counter() - t0
    records = [r for recs in passes for r in recs]

    def median_pass(time_of) -> float:
        return statistics.median(sum(time_of(r) for r in recs) for recs in passes)

    wall = median_pass(lambda r: r.seconds)
    metrics = {
        "setup_s": setup,
        "ref_wall_s": median_pass(lambda r: r.seconds * PROBE_REF_S / r.probe_s),
        "peak_rss_mb": peak_rss_mb(workload.cli),
    }
    detail = {k: (v, E2E_METRICS[k]) for k, v in metrics.items()}
    detail["wall_s"] = (wall, "s")
    detail["setup_raw_s"] = (setup_raw, "s")
    detail["probe_s_median"] = (statistics.median(r.probe_s for r in records), "s")
    detail["fail_frac"] = (sum(not r.ok for r in records) / len(records), "ratio")
    detail.update(workload.summary(records))
    detail["passes"] = (len(passes), "count")
    return metrics, detail, records, []


def run_traced(workload, seed: int, seconds: float, tmp: Path):
    """Per-layer metrics from traced passes of pass 0's inputs.

    Untraced and traced in-process passes alternate while they fit in
    ``seconds`` (at least two traced passes).  Span counts must repeat exactly
    between traced passes; every child span must lie within its parent.
    """
    imports = import_seconds()
    runner = Runner(in_process=True, tmp=tmp)
    ops = workload.ops(seed, 0)
    records, untraced, traced, tracers, first = [], [], [], [], None
    start = time.perf_counter()
    pair_s = 0.0
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start + pair_s <= seconds:
        t0 = time.perf_counter()
        recs = runner.run_pass(ops)
        untraced.append(sum(r.seconds for r in recs))
        records += recs
        tracer = tracing.Tracer()
        with tracer:
            recs = runner.run_pass(ops, tracer.spans)
        traced.append(sum(r.seconds for r in recs))
        tracers.append(tracer)
        records += recs
        first = first or recs
        pair_s = time.perf_counter() - t0
    problems = []
    for k, tracer in enumerate(tracers):
        problems += [f"traced pass {k}: {p}" for p in tracing.sanity_problems(tracer.spans)]
        if k:
            problems += [
                f"traced pass {k} vs 0: {p}"
                for p in tracing.count_mismatches(tracers[0].spans, tracer.spans)
            ]
    tracing.save(OUT / f"spans-{workload.name}-seed{seed}.npz", [t.spans for t in tracers])
    metrics = tracing.layer_values(tracing.summarize(tracers[0].spans))
    metrics["cli.bytes_out"] = sum(r.bytes_out for r in first)
    metrics["cli.rows_out"] = sum(r.rows_out for r in first)
    metrics.update(imports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    detail = {
        "traced_pass_s": (statistics.median(traced), "s"),
        "untraced_pass_s": (statistics.median(untraced), "s"),
        "spans_per_pass": (len(tracers[0].spans.start), "count"),
        "traced_passes": (len(traced), "count"),
    }
    return metrics, detail, records, problems


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    # the probe must run on the CPU the operations run on; children inherit
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = OUT / "tmp" / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, detail, records, problems = run(workload, args.seed, args.seconds, tmp)
    finally:
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()
    # the known defects, probed once, untimed and untraced: they show here
    # and not in ``failed``, because the workloads' operations avoid them
    probes = workload.defects()
    known = [f"{label}: {p}" for label, found in probes for p in found]
    if probes:
        detail["known_defects"] = (sum(bool(found) for _, found in probes), "count")
        detail["known_defect_probes"] = (len(probes), "count")
    units = E2E_METRICS if not args.trace else {n: u for n, u, _ in tracing.layer_metrics()}
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    failures = [p for r in records for p in r.problems]
    correct = not failures and not problems
    for p in (problems + failures)[:10]:
        print(f"FAIL {p}", file=sys.stderr)
    for p in known:
        print(f"KNOWN DEFECT {p}", file=sys.stderr)
    info = provenance(args, workload)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    for name, (value, unit) in detail.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    record = {
        "provenance": info,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "problems": problems,
        "failures": failures,
        "known_defects": known,
        "ops": [[r.label, r.seconds, r.ok] for r in records],
        "result": result,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("detail " + json.dumps({"provenance": info, "detail": record["detail"]}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            code = 1
            continue
        detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
        results[name] = (json.loads(lines[-1]), detail["detail"])
    for name, (result, detail) in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        shown = {**result["metrics"], **detail}
        for metric, v in shown.items():
            print(f"  {metric:<40} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": bool(results) and all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {name: r["metrics"] for name, (r, _) in results.items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "export", "grid", "normalize", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "confhydro" / "__init__.py").is_file():
        print(f"error: no confhydro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

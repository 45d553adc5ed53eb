"""Benchmark of the spinscape CLI, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload plane-map --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 1

A run generates one pass of jobs from the seed (see workloads.py), then
repeats the pass in this one process, one job at a time, until the
time is up. Every job is an in-process ``spinscape.cli.main([...])``
call that writes real files into a scratch directory under
``.bench_run/``; every file is checked (checks.py), and every pass must
write the same bytes as the first.

``--trace 0`` times passes with tracing off and reports the end-to-end
metrics. ``--trace 1`` alternates traced and untraced passes, reports
the per-layer metrics of the traced ones (tracing.py), requires their
work counts to repeat exactly, and reports the traced-minus-untraced
pass time as the tracing overhead. ``--workload all`` runs each
workload in its own process and prints every metric of every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON ``detail`` record with the run's provenance.
"""
from __future__ import annotations

import os

# One BLAS thread: jobs run one at a time, and threads only add noise on
# matrices of dimension <= 61. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 9


def _spec() -> dict:
    """BENCHMARK.json: the metric names and units this runner must emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_program():
    """Import spinscape from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "spinscape" / "__init__.py").is_file():
        print(f"error: no spinscape sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spinscape.cli

    if Path(spinscape.__file__).resolve().parent != (SRC / "spinscape").resolve():
        print(f"error: imported spinscape from {spinscape.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return spinscape.cli


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


@dataclass
class PassResult:
    """Timings, failures, check results and output digests of one pass."""

    job_s: list[float] = field(default_factory=list)
    failed: int = 0
    sym: list[checks.Symmetry] = field(default_factory=list)
    digests: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_pass(cli, jobs) -> PassResult:
    """Run every job once, timing only the CLI call, then check its files."""
    result = PassResult()
    for job in jobs:
        for path in job.outputs:
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except Exception:  # a crashing job is counted, not fatal
            traceback.print_exc()
            code = None
        result.job_s.append(time.perf_counter() - t0)
        result.digests.append(tuple(_digest(p) for p in job.outputs))
        if code != 0:
            print(f"job failed with exit code {code}: {' '.join(job.argv)}", file=sys.stderr)
            result.failed += 1
            continue
        try:
            result.sym.append(job.check())
        except checks.FAILURES as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            result.failed += 1
    return result


def corruption_detected(job) -> bool:
    """Damage each output of a job in turn; the check must reject every one."""
    for path in job.outputs:
        original = path.read_bytes()
        try:
            checks.corrupt(path)
            job.check()
        except checks.FAILURES:
            continue
        finally:
            path.write_bytes(original)
        return False
    return True


#: Run in a fresh interpreter: prints how long importing the program takes,
#: leaving out interpreter start-up, which is not the program's cost.
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import spinscape.cli; "
                "print(time.perf_counter() - t0)")


def setup(make_pass, seed: int, work: Path):
    """Time a fresh import of the program plus seeded input generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, check=True,
                               capture_output=True, text=True)
        t0 = time.perf_counter()
        rep_dir.mkdir()
        jobs = make_pass(random.Random(seed), rep_dir)
        times.append(float(child.stdout) + time.perf_counter() - t0)
    return _median(times), jobs


def provenance(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    cli = _load_program()
    workload = WORKLOADS[name]
    spec = _spec()
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    try:
        setup_s, jobs = setup(workload.make_pass, seed, work)

        tracer = tracing.Tracer()
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        layers: list[dict] = []
        start = time.perf_counter()
        while True:
            if trace and len(traced) <= len(plain):
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run_pass(cli, jobs))
                finally:
                    tracer.uninstall()
                layers.append(tracing.layer_metrics(tracer.spans))
            else:
                plain.append(run_pass(cli, jobs))
            done = plain + traced
            typical = _median([p.wall_s for p in done])
            enough = not trace or (len(traced) >= 2 and plain)
            if enough and time.perf_counter() - start + 0.5 * typical > seconds:
                break

        done = plain + traced
        attempted = sum(len(p.job_s) for p in done)
        failed = sum(p.failed for p in done)
        deterministic = all(p.digests == done[0].digests for p in done)
        self_test = corruption_detected(jobs[0]) if failed == 0 else False
        sym = [s for p in done for s in p.sym]
        sym_err = max((s.err for s in sym), default=0.0)
        sym_share = max((s.share for s in sym), default=0.0)
        counts_repeat = all(
            all(layer[k] == layers[0][k] for k in tracing.WORK_COUNTS) for layer in layers)
        correct = failed == 0 and deterministic and self_test and counts_repeat

        detail = {
            "workload": name,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "provenance": provenance(seed),
            "passes": {"timed": len(plain), "traced": len(traced)},
            "jobs_per_pass": len(jobs),
            "jobs": [" ".join(j.argv) for j in jobs],
            "job_count": attempted,
            "failed_frac": failed / attempted,
            "sym_err": sym_err,
            "sym_err_unit": workload.sym_unit,
            "sym_err_share_of_tol": sym_share,
            "outputs_identical_across_passes": deterministic,
            "corrupted_output_rejected": self_test,
            "work_counts_repeat": counts_repeat,
            "output_sha256": [list(d) for d in done[0].digests],
        }
        if trace:
            metrics = {k: _median([layer[k] for layer in layers]) for k in layers[0]}
            metrics["trace.overhead_s"] = (_median([p.wall_s for p in traced])
                                           - _median([p.wall_s for p in plain]))
            metrics["check.sym_err_share"] = sym_share
            metrics["check.failed_frac"] = failed / attempted
            wanted = spec["per_layer"]
            detail["absent"] = tracer.absent
            detail["hook_errors"] = tracer.hook_errors
            detail["work_counts"] = {k: layers[0][k] for k in tracing.WORK_COUNTS}
            spans_path = RUN_DIR / f"{name}.spans.csv"
            tracer.write(spans_path)
            detail["spans"] = str(spans_path.relative_to(ROOT))
        else:
            # each job's median over passes, then the median over the
            # pass's jobs: a plain median of all job times would sit on
            # the edge between two jobs of different cost. With one job
            # per pass (plane-map) this equals wall_s, and with two it is
            # the mean of the two jobs' medians.
            per_job = [_median([p.job_s[i] for p in plain]) for i in range(len(jobs))]
            metrics = {
                "setup_s": setup_s,
                "wall_s": _median([p.wall_s for p in plain]),
                "job_s.p50": _median(per_job),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
            detail["median_of"] = {"setup_s": SETUP_REPS, "wall_s": len(plain), "job_s.p50": len(plain) * len(jobs)}
            detail["pass_wall_s"] = [p.wall_s for p in plain]
        if sorted(metrics) != sorted(m["name"] for m in wanted):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps({
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                        for m in wanted},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_child(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in a fresh process; return its detail record and result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload {name} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: bool) -> None:
    """Run every workload in its own process and print all their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        detail, result = run_child(name, seed, seconds, trace)
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={detail['passes']}")
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if not trace:
            rows += [("failed_frac", detail["failed_frac"], "ratio"),
                     ("sym_err", detail["sym_err"], detail["sym_err_unit"])]
        for key, value, unit in rows:
            print(f"   {key:<42} {value:>14.6g} {unit}")
            combined["metrics"][f"{name}/{key}"] = {"value": value, "unit": unit}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()

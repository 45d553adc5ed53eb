"""Repeat the benchmark over many seeds and summarise its spread.

Usage, from the repository root:

    python3 bench/prove.py --runs 10 --traced --out bench/baseline.json

A proof runs ``bench/run.py --trace 0`` once per seed 1..runs for each
workload (``run_seconds`` from BENCHMARK.json) and prints, per
end-to-end metric, the median, the quartiles and their distance as a
share of the median next to the metric's bound. ``--proofs`` proofs run
one after the other, and each later proof's medians are compared with
the first's against the bounds.

With ``--traced``, each workload also gets one traced run per seed and
one more on seed 1. The work counts must be the same on every seed, so
that the spread over seeds is machine noise and not a changing amount
of work; the two runs on seed 1 must also give identical output bytes.
``writers.bytes`` is left out of the comparison across seeds, because
the printed width of a value depends on the value.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import tracing
from run import ROOT, run_child

SEED_INVARIANT = tuple(k for k in tracing.WORK_COUNTS if k != "writers.bytes")


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def timed_proof(names: list[str], runs: int, spec: dict, record: dict) -> tuple[dict, bool]:
    """One run per seed and workload; return the per-workload runs and summaries."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    proof: dict = {}
    ok = True
    for name in names:
        entries = []
        for seed in range(1, runs + 1):
            detail, result = run_child(name, seed, spec["run_seconds"], False)
            ok = ok and result["correct"] and result["failed"] == 0
            entries.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                            "failed": result["failed"], "sym_err": detail["sym_err"],
                            "median_of": detail["median_of"], "pass_wall_s": detail["pass_wall_s"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            record.setdefault("provenance", detail["provenance"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v:.4g}" for k, v in entries[-1]["metrics"].items()), flush=True)
        summary = {k: summarise([r["metrics"][k] for r in entries]) for k in bounds}
        for key, s in summary.items():
            verdict = "steady" if s["spread"] < bounds[key] / 3 else (
                "within bound" if s["spread"] <= bounds[key] else "TOO WIDE")
            # the spread of setup_s has no bound; only its median does
            ok = ok and (key == "setup_s" or s["spread"] <= bounds[key])
            print(f"  {name:<15} {key:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.3f} (bound {bounds[key]}) {verdict}",
                  flush=True)
        proof[name] = {"runs": entries, "summary": summary}
    return proof, ok


def traced_counts(name: str, runs: int, spec: dict) -> tuple[dict, bool]:
    """One traced run per seed, and a second on seed 1; compare their work counts."""
    per_seed = {}
    for seed in range(1, runs + 1):
        detail, result = run_child(name, seed, 1, True)
        per_seed[seed] = (detail, result)
    repeat, repeat_result = run_child(name, 1, 1, True)
    first, first_result = per_seed[1]
    same_counts = repeat["work_counts"] == first["work_counts"]
    same_bytes = repeat["output_sha256"] == first["output_sha256"]
    differs = {
        seed: {k: d["work_counts"][k] for k in SEED_INVARIANT
               if d["work_counts"][k] != first["work_counts"][k]}
        for seed, (d, _) in per_seed.items()
    }
    differs = {seed: diff for seed, diff in differs.items() if diff}
    correct = all(r["correct"] for _, r in per_seed.values()) and repeat_result["correct"]
    print(f"  {name:<15} traced on {runs} seeds: counts equal across seeds {not differs}; "
          f"seed 1 twice: counts identical {same_counts}, outputs identical {same_bytes}",
          flush=True)
    for seed, diff in differs.items():
        print(f"    seed {seed} differs from seed 1: {diff}", flush=True)
    return {
        "work_counts": first["work_counts"],
        "writers.bytes_by_seed": {s: d["work_counts"]["writers.bytes"] for s, (d, _) in per_seed.items()},
        "work_counts_equal_across_seeds": not differs,
        "work_counts_differing": differs,
        "work_counts_repeat_across_processes": same_counts,
        "outputs_identical_across_processes": same_bytes,
        "metrics": {k: v["value"] for k, v in first_result["metrics"].items()},
    }, correct and same_counts and same_bytes and not differs


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--proofs", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workload or names

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"run_seconds": spec["run_seconds"], "proofs": [], "traced": {}}
    ok = True
    for number in range(1, args.proofs + 1):
        print(f"== proof {number} of {args.proofs}", flush=True)
        proof, proof_ok = timed_proof(names, args.runs, spec, record)
        record["proofs"].append(proof)
        ok = ok and proof_ok
    for number, proof in enumerate(record["proofs"][1:], start=2):
        for name in names:
            for key, bound in bounds.items():
                first = record["proofs"][0][name]["summary"][key]["median"]
                change = proof[name]["summary"][key]["median"] / first - 1
                verdict = "ok" if change <= bound else "WORSE THAN BOUND"
                ok = ok and change <= bound
                print(f"  proof {number} vs 1: {name:<15} {key:<12} median {change:+.3f} "
                      f"(bound {bound}) {verdict}", flush=True)
    if args.traced:
        for name in names:
            record["traced"][name], traced_ok = traced_counts(name, args.runs, spec)
            ok = ok and traced_ok
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

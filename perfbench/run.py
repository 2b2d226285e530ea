"""Benchmark of the nrcodes verifier, run from the root of a checkout.

    python3 perfbench/run.py --workload verify|analyze --seed N --seconds S --trace 0|1

Steps, one run at a time:
  1. refuse to run if NRCODES_BUDGET is set, since it changes outcomes;
  2. generate the workload's inputs from the seed (not timed);
  3. a fresh interpreter runs passes over the inputs for S seconds, and
     at least MIN_PASSES, with tracing off;
  4. with --trace 1 instead, the fresh interpreter makes one untraced
     pass, the base of trace.overhead_s, then traces one pass (and set-up);
  5. set-up, with --trace 0 only: seven more fresh interpreters, four
     before the timed run and three after it, each import nrcodes and
     build the cached base codes; `setup_s` is the median time from
     process start to that point;
  6. every op of every pass is checked from definitions (checks.py), and
     wrong answers planted in a copy of the output must be caught.

The last line of stdout is the result as JSON: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  Everything the run writes
goes under .bench_work/ in the checkout.  README.md says why each
workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import checks
import inputs

# Minimum passes per untraced run.  `wall_s` is the median pass, and the
# recorded op latencies come from these passes only, so that their sample
# count is fixed.  A verify op is a claim: three passes give 144 samples,
# enough for a tail that lands on the second-scale claims.
MIN_PASSES = {"verify": 3, "analyze": 1}
# Set-up samples taken before and after the timed run, so that the median
# spans the machine's state over the whole run.
SETUP_SAMPLES = (4, 3)
WORKER_TIMEOUT_S = 170
UNAVAILABLE = -1

# per-layer metrics: (wrapped function, statistic)
LAYER_METRICS = (
    ("symmetry.find_equivalence", "self_s"),
    ("symmetry.find_equivalence", "calls"),
    ("symmetry.find_equivalence", "nodes"),
    ("symmetry.enumerate_perm_automorphisms", "self_s"),
    ("symmetry.enumerate_perm_automorphisms", "calls"),
    ("symmetry.enumerate_perm_automorphisms", "nodes"),
    ("symmetry.assemble_aut_generators", "self_s"),
    ("symmetry.assemble_aut_generators", "nodes"),
    ("symmetry.PermGroup.order", "self_s"),
    ("symmetry.translation_kernel", "self_s"),
    ("symmetry.translation_kernel", "calls"),
    ("symmetry.vertex_orbits", "self_s"),
    ("symmetry.verify_complete_transitivity", "self_s"),
    ("symmetry.orbits_on_sphere", "self_s"),
    ("spectrum.completely_regular_check", "self_s"),
    ("spectrum.distance_partition", "self_s"),
    ("spectrum.distance_distribution", "self_s"),
    ("spectrum.design_check", "self_s"),
    ("spectrum.feasible_distributions", "self_s"),
    ("spectrum.macwilliams_transform", "self_s"),
    ("codes.Code", "self_s"),
    ("codes.read_code", "self_s"),
    ("codes.golay24", "self_s"),
    ("codes.nordstrom_robinson", "self_s"),
    ("codes.puncture", "self_s"),
    ("report.run_verification", "self_s"),
    ("cli.main", "self_s"),
)
UNITS = {"self_s": "s", "calls": "count", "nodes": "count"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def environment(root: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nrcodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def spawn(root: Path, plan: Path, mode: str) -> float:
    """Run a fresh worker interpreter to its end; return its seconds from
    start to `ready`, which is the set-up time.  A worker still running
    after WORKER_TIMEOUT_S is killed."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), str(root), str(plan), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}"
                         f" (killed after {WORKER_TIMEOUT_S} s: code -9)")
    return ready


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least
    ten samples beyond it: the eleventh largest of n samples, at
    percentile 100 (n - 10) / n."""
    n = len(latencies)
    if n < 11:
        raise BenchError(f"{n} op samples are too few for a tail percentile")
    return 100 * (n - 10) / n, sorted(latencies)[n - 11]


def op_latencies(workload: str, passes: list[dict], work: Path) -> list[float]:
    """Op latencies of the first MIN_PASSES passes, so that the sample
    count, and with it the tail percentile, is fixed per workload.  A
    verify op is a claim, timed by the report's own wall_time field."""
    samples = []
    for k, p in enumerate(passes[:MIN_PASSES[workload]]):
        if workload == "verify":
            report = json.loads((work / f"report-untraced-{k}.json").read_text("utf-8"))
            samples += [float(e["wall_time"]) for e in report["entries"]]
        else:
            samples += [op["latency_s"] for op in p["ops"]]
    return samples


def check_passes(workload: str, mode: str, passes: list[dict], work: Path,
                 gen: list[dict], codes: dict) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, problem lines, self-test errors) over all passes."""
    attempted = failed = 0
    lines: list[str] = []
    for k, p in enumerate(passes):
        if workload == "verify":
            path = work / f"report-{mode}-{k}.json"
            report = json.loads(path.read_text("utf-8")) if path.exists() else None
            per_op = checks.check_verify(p["ops"][0], report, codes)
            if k == 0:
                first = (p["ops"][0], report)
        else:
            per_op = {inp["file"]: checks.check_analyze(op, inp)
                      for op, inp in zip(p["ops"], gen)}
        attempted += len(per_op)
        for name, problems in per_op.items():
            failed += bool(problems)
            lines += [f"pass {k} {name}: {msg}" for msg in problems]
    if failed:
        selftest = ["skipped: the program's own output has failures"]
    elif workload == "verify":
        selftest = checks.self_test_verify(*first, codes)
    else:
        selftest = checks.self_test_analyze(passes[0]["ops"], gen)
    return attempted, failed, lines, selftest


def layer_metrics(trace: dict, overhead_s: float) -> dict:
    layers = trace["layers"]
    metrics = {}
    for fn, stat in LAYER_METRICS:
        value = layers.get(fn, {}).get(stat, 0)
        if stat == "nodes" and not trace["nodes_available"]:
            value = UNAVAILABLE
        metrics[f"{fn}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    calls, hits = trace["search_calls"], trace["search_hits"]
    available = trace["search_available"] and calls > 0
    metrics["symmetry.search.hit_ratio"] = {
        "value": hits / calls if available else UNAVAILABLE, "unit": "ratio"}
    metrics["symmetry.search.calls"] = {
        "value": calls if trace["search_available"] else UNAVAILABLE, "unit": "count"}
    metrics["trace.errors"] = {
        "value": sum(s["errors"] for s in layers.values()), "unit": "count"}
    metrics["trace.uncovered_s"] = {"value": trace["uncovered_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "nrcodes" / "__init__.py").is_file():
        raise BenchError("no src/nrcodes here; run from the root of a checkout")
    if "NRCODES_BUDGET" in os.environ:
        raise BenchError("NRCODES_BUDGET is set; it changes search outcomes")
    sys.path.insert(0, str(root / "src"))
    import nrcodes

    env = environment(root, args)
    print("env:", json.dumps(env), flush=True)
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    codes = inputs.base_codes(nrcodes)
    gen = inputs.analyze_inputs(nrcodes, args.seed, work) if args.workload == "analyze" else []
    plan = work / "plan.json"
    plan.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds,
        "min_passes": MIN_PASSES[args.workload],
        "inputs": [{"file": g["file"]} for g in gen]}), encoding="utf-8")

    mode = "traced" if args.trace else "untraced"
    before, after = (0, 0) if args.trace else SETUP_SAMPLES
    setup = [spawn(root, plan, "probe") for _ in range(before)]
    spawn(root, plan, mode)
    setup += [spawn(root, plan, "probe") for _ in range(after)]
    result = json.loads((work / f"result-{mode}.json").read_text("utf-8"))
    src = str(root / "src" / "nrcodes")
    if not result["module"].startswith(src):
        raise BenchError(f"worker imported nrcodes from outside {src}")

    attempted, failed, problems, selftest = check_passes(
        args.workload, mode, result["passes"], work, gen, codes)
    for line in problems[:20] + [f"self-test: {e}" for e in selftest]:
        print(line)
    walls = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    summary = {
        "env": env, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "self_test_errors": selftest,
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "setup_samples_s": setup,
    }
    if args.trace:
        traced_s = next(p["wall_s"] for p in result["passes"] if p["traced"])
        metrics = layer_metrics(result["trace"], traced_s - walls[0])
        note = f"traced pass {traced_s:.2f} s after an untraced one of {walls[0]:.2f} s"
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        # Recorded but not in BENCHMARK.json: too unsteady to gate (README.md).
        latencies = op_latencies(args.workload, result["passes"], work)
        pct, tail_s = tail(latencies)
        p50_s = statistics.median(latencies)
        summary["op_latency"] = {"op_p50_s": p50_s, "op_tail_s": tail_s,
                                 "tail_percentile": pct, "samples": len(latencies)}
        note = (f"op_p50_s {p50_s:.4g} s, op_tail_s {tail_s:.4g} s "
                f"(p{pct:.4g} of {len(latencies)} op samples)")
    summary["metrics"] = metrics
    (work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"{len(walls)} untraced pass(es); {note}; {failed}/{attempted} ops failed "
          f"(error_rate {failed / attempted:g}); "
          f"self-test {'FAILED' if selftest else 'ok'}")
    return {"correct": failed == 0 and not selftest, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=MIN_PASSES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The timed process: one fresh interpreter per set-up sample or per run.

    python3 perfbench/worker.py <checkout> <plan.json> [probe|untraced|traced]

It imports nrcodes from `<checkout>/src`, builds the cached base codes and
prints `ready` on stdout; the parent times set-up from process start to
that line.  A `probe` stops there.  Otherwise it runs the plan's passes
over the generated inputs through `nrcodes.cli.main`, in-process, and
writes every op's latency, exit code and captured output to the plan's
result file.  An untraced run repeats passes until the plan's seconds have
elapsed and its minimum number of passes is done.  A traced run traces
set-up and its second of two passes, and writes the spans; the first
pass, untraced, is the base of the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(cli, argv: list[str]) -> dict:
    """One CLI call.  An exception, SearchBudgetExceeded included, is
    recorded with its traceback and the pass goes on; the parent counts
    the op as failed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc, error = None, traceback.format_exc()
    latency = time.perf_counter() - start
    return {"latency_s": latency, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def op_argvs(plan: dict, work: Path, mode: str, pass_no: int) -> list[list[str]]:
    if plan["workload"] == "verify":
        return [["verify", "all", "--json", str(work / f"report-{mode}-{pass_no}.json")]]
    return [["analyze", str(work / f["file"])] for f in plan["inputs"]]


def main() -> int:
    root, plan_path, mode = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(root / "src"))
    import nrcodes
    import nrcodes.cli

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    nrcodes.golay24()
    nrcodes.reed_muller_subcode()
    nrcodes.puncture(nrcodes.nordstrom_robinson(), 1)
    print("ready", flush=True)
    if mode == "probe":
        return 0

    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    work = plan_path.parent
    if tracer is not None:
        tracer.uninstall()
    passes = []
    first = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) == 1
        if traced:
            tracer.install()
        ops = []
        start = time.perf_counter()
        for idx, argv in enumerate(op_argvs(plan, work, mode, len(passes))):
            if traced:
                tracer.op = idx
            ops.append(run_op(nrcodes.cli, argv))
        end = time.perf_counter()
        passes.append({"wall_s": end - start, "traced": traced, "ops": ops})
        if traced:
            tracer.uninstall()
            summary = tracer.summary(start, end)
            break
        if tracer is None and len(passes) >= plan["min_passes"] \
                and end - first >= plan["seconds"]:
            break
    result = {
        "module": nrcodes.__file__,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = summary
        tracer.write(work / "spans.json")
    (work / f"result-{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

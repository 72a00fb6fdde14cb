"""Benchmark runner for latticealign.

    python3 perfbench/run.py --workload sweep-robust --seed 1 --seconds 56 --trace 0

Runs one workload as a single closed-loop caller (the next operation starts
only after the previous one finished) in one process, with BLAS pinned to
one thread.  It times set-up, runs one untimed warm-up operation, runs
operations for ``--seconds`` seconds (always at least the workload's fixed
quality-digest set), checks every output, and prints the metrics by name
with their units.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  ``--workload all`` runs every workload in turn.

With ``--trace 1`` the operations of an untraced pass are run a second time
with every function in ``perfbench.layers.WRAPPED`` wrapped; the per-layer
numbers come from that second pass, the difference between the two passes
is the tracing overhead, and both passes must give the same quality digest.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad arguments or the
library sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTDIR = ROOT / "perfbench" / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import ALL_WORKLOADS, WRAPPED  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"instance seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=56.0,
                    help="how long the timed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _self_command(args, workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), *extra]


def run_all(args) -> int:
    worst = 0
    for w in ALL_WORKLOADS:
        worst = max(worst, subprocess.run(_self_command(args, w), check=False).returncode)
    return worst


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_library() -> None:
    """Import latticealign from this checkout's sources, nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    init = SRC / "latticealign" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import latticealign

    if Path(latticealign.__file__).resolve() != init.resolve():
        print(f"error: imported latticealign from {latticealign.__file__}", file=sys.stderr)
        raise SystemExit(2)


def setup_in_child(args) -> float:
    """Set-up time of a fresh interpreter: imports, specs, channels, JSON."""
    cmd = _self_command(args, args.workload, "--setup-only")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ[THREAD_VARS[0]]),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_op(wl, j: int) -> dict:
    wl.instance(j)  # inputs exist before the clock starts
    t0 = time.perf_counter()
    try:
        rec = wl.op(j)
    except Exception:  # one failed operation must not end the run
        rec = {"error": traceback.format_exc()}
    rec["op_s"] = time.perf_counter() - t0
    if "error" not in rec:
        wl.capture(rec)
    return rec


def measure(wl, seconds: float, min_ops: int, tracer=None) -> tuple[list, list]:
    """Run operations until ``seconds`` have passed and ``min_ops`` are done.

    With a tracer every operation runs twice, untraced and then traced, so
    both passes see the same machine state and their difference is the
    tracing overhead.  Returns (untraced, traced) records.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    j = 0
    while j < min_ops or time.perf_counter() - start < seconds:
        untraced.append(run_op(wl, j))
        if tracer is not None:
            tracer.current_op = j
            tracer.install()
            try:
                traced.append(run_op(wl, j))
            finally:
                tracer.remove()
        j += 1
    return untraced, traced


def evaluate(wl, recs: list[dict]) -> list[str]:
    """Check every operation's output; returns the failures found."""
    failures = []
    for j, rec in enumerate(recs):
        if "error" in rec:
            problems = [rec["error"]]
        else:
            try:
                problems = wl.check(rec)
            except Exception:
                problems = [traceback.format_exc()]
        rec["ok"] = not problems
        failures.extend(f"op {j}: {p}" for p in problems)
    return failures


def quality(wl, recs: list[dict]) -> dict:
    """sha256 of the digest set's canonical output plus its design rates."""
    head = recs[: wl.digest_ops]
    if len(head) < wl.digest_ops or not all(r["ok"] for r in head):
        return {"sha256": None, "r_min": []}
    text = wl.digest_text(head)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "r_min": [r["r_min"] for r in head],
        "goodput": [wl.goodput(r) for r in head],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(wl, recs: list[dict], q: dict, setup_s: float) -> tuple[dict, dict]:
    """(metrics for the result line, workload-specific extras)."""
    import numpy as np

    ok = [r for r in recs if r["ok"]]
    busy = sum(r["op_s"] for r in recs)
    op_ms = np.array([r["op_s"] * 1e3 for r in ok] or [0.0])
    design_ms = np.array([r["design_ms"] for r in ok] or [0.0])
    p50, p75 = np.percentile(design_ms, [50, 75])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Operation and design costs vary 3-5x from channel to channel, so
    # medians: a mean or an upper percentile over the 70-120 operations of
    # one run follows the few slow instances a seed happens to draw.
    metrics = {
        "trial_ms_p50": _metric(np.median(op_ms), "ms"),
        "design_ms_p50": _metric(p50, "ms"),
        "design_r_min_mean": _metric(statistics.fmean(q["r_min"]) if q["r_min"] else 0.0,
                                     "bit"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    extras = {"trials_per_s": _metric(len(ok) / busy, "1/s"),
              "design_ms_p75": _metric(p75, "ms"),
              "failed_frac": _metric((len(recs) - len(ok)) / len(recs), "ratio"),
              "designs_timed": _metric(len(ok), "count")}
    goodputs = [g for g in q.get("goodput", []) if g is not None]
    if goodputs:
        extras["lattice_goodput_mean"] = _metric(statistics.fmean(goodputs), "bit")
    if ok and "draws" in ok[0]:
        extras["draws_per_s"] = _metric(
            sum(r["draws"] for r in ok) / sum(r["draw_s"] for r in ok), "1/s")
    return metrics, extras


def per_layer(tracer, untraced: list[dict], traced: list[dict], solve_log: dict) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for mod, attr in WRAPPED:
        name = f"{mod}.{attr}"
        t = totals[name]
        metrics[f"{name}.calls"] = _metric(t["calls"], "count")
        metrics[f"{name}.busy_s"] = _metric(t["busy_s"], "s")
        metrics[f"{name}.self_s"] = _metric(t["self_s"], "s")

    def ratio(num: str, den: float) -> float:
        return totals[num]["calls"] / den if den else 0.0

    designs = totals["solver.multi_start"]["calls"]
    solves = totals["solver.solve"]["calls"]
    metrics["solver.solve.calls_per_design"] = _metric(ratio("solver.solve", designs), "ratio")
    metrics["solver.decorrelator_robust.calls_per_design"] = _metric(
        ratio("solver.decorrelator_robust", designs), "ratio")
    metrics["solver.optimize_precoders.calls_per_solve"] = _metric(
        ratio("solver.optimize_precoders", solves), "ratio")
    metrics["baselines.distributive_ia_design.calls_per_trial"] = _metric(
        ratio("baselines.distributive_ia_design", len(traced)), "ratio")
    metrics["solver.nonconverged_frac"] = _metric(
        solve_log["nonconverged"] / solve_log["returned"] if solve_log["returned"] else 0.0,
        "ratio")
    busy_u = sum(r["op_s"] for r in untraced)
    busy_t = sum(r["op_s"] for r in traced)
    metrics["trace.ops"] = _metric(len(traced), "count")
    metrics["trace.spans"] = _metric(len(tracer.start), "count")
    metrics["trace.wall_s"] = _metric(busy_t, "s")
    metrics["trace.overhead_pct"] = _metric(100.0 * (busy_t / busy_u - 1.0), "%")
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>16.6g} {m['unit']}")


def report(args, facts: dict, metrics: dict, extras: dict, qualities: list[dict],
           failures: list[str], recs: list[dict], correct: bool) -> None:
    _print_metrics("metrics (as in the result line)", metrics)
    if extras:
        _print_metrics("workload-specific metrics", extras)
    for q in qualities:
        print(f"quality digest sha256={q['sha256']}")
        print("design r_min " + json.dumps(q["r_min"]))
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "metrics": metrics, "extras": extras,
        "quality": qualities, "failures": failures,
    }
    path = OUTDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": sum(not r["ok"] for r in recs),
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    t0 = time.perf_counter()
    load_library()
    from perfbench import workloads

    OUTDIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, str(OUTDIR))
    setup_here = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup_here))
        return 0
    setups = [setup_here] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(setups)
    facts = machine_facts()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(facts))

    run_op(wl, 0)  # warm-up: lazy imports and first-call caches, not timed
    if args.trace == 0:
        recs, _ = measure(wl, args.seconds, wl.digest_ops)
        failures = evaluate(wl, recs)
        q = quality(wl, recs)
        metrics, extras = end_to_end(wl, recs, q, setup_s)
        qualities = [q]
        correct = not failures and q["sha256"] is not None
    else:
        from perfbench.tracer import Tracer

        solve_log = {"returned": 0, "nonconverged": 0}

        def on_solve(result):
            solve_log["returned"] += 1
            solve_log["nonconverged"] += not result[2].converged

        tracer = Tracer(observe={"solver.solve": on_solve})
        untraced, traced = measure(wl, args.seconds, wl.digest_ops, tracer)
        failures = evaluate(wl, untraced) + evaluate(wl, traced)
        qualities = [quality(wl, untraced), quality(wl, traced)]
        if qualities[0]["sha256"] != qualities[1]["sha256"]:
            failures.append("traced and untraced runs give different quality digests")
        metrics = per_layer(tracer, untraced, traced, solve_log)
        _, extras = end_to_end(wl, untraced, qualities[0], setup_s)
        tracer.write(str(OUTDIR / f"trace-{args.workload}-seed{args.seed}.csv"))
        recs = untraced + traced
        correct = not failures and qualities[0]["sha256"] is not None

    report(args, facts, metrics, extras, qualities, failures, recs, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

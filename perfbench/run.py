"""modalred benchmark: one workload, one seed, measured from outside the program.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it (``{"info": ...}``) carries the deterministic counts and the
sha256 digest of the canonical outputs, for comparing two commits.  The run
exits 1 if any instance fails, and 2 without a result if there is no program
to measure.

Why the work runs in fresh interpreters: modalred keeps process-wide tables
that only grow (the hash-cons pool ``syntax._POOL``, ``syntax._EXPAND_MEMO``,
``_SIZE_MEMO``, ``_VARS_MEMO``, ``_DEPTH_MEMO`` and ``solver._NEG_MEMO``).
A ``modalred`` CLI user starts cold on every call; a warm second pass would
be faster for reasons no user sees, and its peak RSS would include the first
pass.  So every pass (``one_pass.py``) is a fresh interpreter, ``setup_s`` is
measured in fresh interpreters, and the traced run compares itself with
untraced passes, again fresh.  Nothing runs concurrently: this process
starts one child at a time and waits for it, and the children start no
threads or processes.

Why a run makes three passes over the same instances: on a shared
machine, neighbours slow a core by 30-60 % for seconds to minutes at a
time.  Every time is first scaled to the undisturbed reference machine
(``speed.py``); what the scaling misses, passes over identical inputs still
differ by, so each instance's latency is the median of its three, and
``wall_s`` is the sum of those plus the median time spent outside them.
The passes must agree exactly on every count and on the output digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import spans  # noqa: E402  (this directory is first on sys.path)
import speed  # noqa: E402
import workloads  # noqa: E402

IMPORTS_PER_PASS = 3
CHILD_TIMEOUT_S = 170
# prints the import time and the median reference-work time around it
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import speed; r = [speed.reference_s() for _ in range(5)]; "
    "t = time.perf_counter(); import modalred; t = time.perf_counter() - t; "
    "r += [speed.reference_s() for _ in range(5)]; print(t, sorted(r)[5])"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}

PASSES = 3


def child(args: list[str]) -> str:
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"perfbench: child run failed: {' '.join(args)}")
    return out.stdout


def import_time() -> float:
    """Time to import modalred in a fresh interpreter, scaled like every
    other time to the undisturbed reference machine."""
    seconds, reference = map(float, child(["-c", IMPORT_PROBE, str(SRC), str(HERE)]).split())
    return seconds * speed.REFERENCE_S / reference


def measure(args, traced: int) -> tuple[list[dict], list[float]]:
    """PASSES passes, with import timings spread between them so that they
    sample the machine's disturbance over the whole run."""
    import_time()  # the first import may write bytecode caches
    runs, imports = [], []
    seconds = str(args.seconds / PASSES)
    for _ in range(PASSES):
        imports += [import_time() for _ in range(IMPORTS_PER_PASS)]
        runs.append(json.loads(child([str(HERE / "one_pass.py"), args.workload, str(args.seed), seconds, str(traced)])))
    return runs, imports


def combine(runs: list[dict]) -> dict:
    """One measurement from identical passes."""
    first = runs[0]
    errors = [e for run in runs for e in run["errors"]]
    if any((run["counts"], run["digest"]) != (first["counts"], first["digest"]) for run in runs):
        errors.append("passes over the same instances disagree on counts or output digest")
    scaled = [
        [t * speed.REFERENCE_S / ref for t, ref in zip(run["latencies"], run["references"])]
        for run in runs
    ]
    latencies = [statistics.median(ts) for ts in zip(*scaled)]
    outside = statistics.median(
        (run["wall_s"] - sum(run["latencies"]) - run["sampling_s"]) * speed.REFERENCE_S / statistics.median(run["references"])
        for run in runs
    )
    return {
        "latencies": latencies,
        "wall_s": outside + sum(latencies),
        "failed": max(run["failed"] for run in runs),
        "errors": errors,
        "counts": first["counts"],
        "digest": first["digest"],
        "peak_rss_mib": max(run["peak_rss_mib"] for run in runs),
    }


def end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    latencies = run["latencies"]
    attempted = len(latencies)
    # inclusive: runs with few instances interpolate inside the sample
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if attempted > 1 else latencies[0]
    return {
        "setup_s": setup_s,
        "wall_s": run["wall_s"],
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * p90,
        "peak_rss_mib": run["peak_rss_mib"],
        "pass_ratio": (attempted - run["failed"]) / attempted,
    }


def per_layer(traced: list[dict], run: dict, untraced: dict, spans_path: Path) -> dict[str, float]:
    # one consistent snapshot: the least disturbed traced pass, whose spans
    # are written out one JSON object a line
    fastest = min(traced, key=lambda p: p["layers"]["trace.wall_s"])
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in fastest["spans"])
    metrics = dict(fastest["layers"])
    # the spans do not see these two; the workload reads them off return values
    metrics["syntax.alpha_size"] = run["counts"].get("syntax.alpha_size", 0)
    metrics["solver.budget_errors"] = run["counts"]["solver.budget_errors"]
    metrics["trace.overhead_s"] = run["wall_s"] - untraced["wall_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="modalred benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "modalred" / "__init__.py").is_file():
        print(f"perfbench: no modalred sources under {SRC}; run from the root of a modalred checkout", file=sys.stderr)
        return 2

    if args.trace:
        untraced = combine(measure(args, 0)[0])
        traced, _ = measure(args, 1)
        run = combine(traced)
        spans_path = SRC.parent / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = per_layer(traced, run, untraced, spans_path)
        print(f"perfbench: spans of the fastest traced pass in {spans_path}", file=sys.stderr)
        units = spans.PER_LAYER
        if (untraced["counts"], untraced["digest"]) != (run["counts"], run["digest"]):
            run["errors"].append("the traced and untraced runs disagree on counts or output digest")
    else:
        runs, imports = measure(args, 0)
        run = combine(runs)
        metrics = end_to_end(run, statistics.median(imports))
        units = END_TO_END_UNITS

    for line in run["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "instances": len(run["latencies"]),
            "counts": run["counts"], "digest": run["digest"]}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not run["errors"],
        "attempted": len(run["latencies"]),
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if run["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())

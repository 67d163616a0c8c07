"""One pass over a workload, in a fresh interpreter that ``run.py`` starts.

    python3 perfbench/one_pass.py WORKLOAD SEED SECONDS TRACED

Imports modalred from ``src/`` of the checkout, runs the workload's
instances once in one closed loop and prints one JSON object: latencies,
wall time, failures, counts, the output digest, the peak RSS of this process
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import spans  # noqa: E402  (this directory is first on sys.path)
import workloads  # noqa: E402


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import modalred
    from modalred import kripke, pipeline, reduction, solver, syntax

    if Path(modalred.__file__).resolve().parent != SRC / "modalred":
        raise SystemExit(f"imported modalred from {modalred.__file__}, not from {SRC}")
    return SimpleNamespace(syntax=syntax, reduction=reduction, solver=solver, kripke=kripke, pipeline=pipeline)


def main(argv: list[str]) -> dict:
    name, seed, seconds, traced = argv
    m = load_program()
    chosen = workloads.instances(name, int(seed), float(seconds))
    tracer = spans.Tracer() if traced == "1" else None
    if tracer:
        tracer.install()
    try:
        result = workloads.run(name, m, chosen, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    out = {
        "latencies": result.latencies,
        "references": result.references,
        "wall_s": result.wall_s,
        "sampling_s": result.sampling_s,
        "failed": result.failed,
        "errors": result.errors,
        "counts": result.counts,
        "digest": result.digest,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers = spans.layer_metrics(tracer)
        for key, value in result.counts.items():
            if key in layers and layers[key] != value:
                result.errors.append(f"{key}: the spans count {layers[key]}, return values give {value}")
        covered = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
        traced_wall = next(s.end - s.start for s in tracer.spans if s.name == "bench.run")
        if abs(covered - traced_wall) > 1e-6 * traced_wall + 1e-6:
            result.errors.append(f"layer self times add up to {covered} s, the traced wall time is {traced_wall} s")
        layers["trace.wall_s"] = traced_wall
        out["layers"] = layers
        t0 = tracer.spans[0].start
        out["spans"] = [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
             "instance": s.instance, "error": s.error, "attrs": s.attrs}
            for s in tracer.spans
        ]
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

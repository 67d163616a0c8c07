"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` rebinds the layer-entry names in the modules that call
them (``modalred.pipeline.sat_k_tableau``, ``modalred.reduction.close``,
``modalred.solver.expand_sugar``, ...) to wrappers that record a span: name,
start, end, parent span and instance id.  Self-recursive functions are only
rebound in their callers' modules (``expand_sugar`` in ``solver`` and
``kripke``, never in ``syntax``), so one call is one span.  Spans stay in
memory until the run ends; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

# module -> names rebound there; the span is named after the function's home
# module and name, e.g. ``pipeline.sat_k_tableau`` records ``solver.sat_k_tableau``
TRACE_POINTS = {
    "modalred.pipeline": (
        "check_instance", "encode_star", "encode_alpha", "is_true_qbf", "sat_k_tableau",
        "substitute", "quantifier_tree", "model_check", "close", "frame_class_check",
        "extend_model", "star_equivalence_violations",
    ),
    "modalred.reduction": (
        "encode_star", "encode_alpha", "substitute", "is_true_qbf", "evaluate", "close",
        "model_check_all", "quantifier_tree", "extend_model", "star_equivalence_violations",
    ),
    "modalred.solver": ("expand_sugar", "sat_k_tableau", "sat_bounded"),
    "modalred.kripke": (
        "expand_sugar", "model_check", "model_check_all", "close", "frame_class_check",
        "model_to_json",
    ),
    "modalred.syntax": ("parse_qbf",),
}

LAYERS = ("syntax", "qbf", "reduction", "solver", "kripke", "pipeline", "bench")

# every per-layer metric and its unit, in the order they are printed
PER_LAYER = {
    "solver.tableau_alpha_s": "s",
    "solver.tableau_alpha_nodes": "count",
    "solver.tableau_star_s": "s",
    "solver.tableau_star_nodes": "count",
    "solver.tableau_nodes_max": "count",
    "solver.tableau_depth_max": "count",
    "solver.nodes_per_s": "1/s",
    "solver.witness_worlds": "count",
    "solver.bounded_s": "s",
    "solver.bounded_decisions": "count",
    "solver.budget_errors": "count",
    "kripke.model_check_s": "s",
    "kripke.worlds_evaluated": "count",
    "kripke.close_s": "s",
    "kripke.frame_class_s": "s",
    "kripke.json_s": "s",
    "reduction.quantifier_tree_s": "s",
    "reduction.extend_model_s": "s",
    "reduction.star_equivalence_s": "s",
    "reduction.extended_worlds": "count",
    "reduction.encode_s": "s",
    "reduction.encode_alpha_calls": "count",
    "syntax.substitute_s": "s",
    "syntax.expand_sugar_s": "s",
    "syntax.parse_s": "s",
    "syntax.alpha_size": "count",
    "qbf.is_true_qbf_s": "s",
    "qbf.evaluate_calls": "count",
    "pipeline.check_instance_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    parent: int
    instance: int
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.instance = -1
        self.alphas: dict[int, object] = {}  # id -> alpha encodings seen
        self.saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> Span:
        record = Span(name, self.stack[-1] if self.stack else -1, self.instance)
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        observe = OBSERVERS.get(fn.__name__)
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record.error = type(exc).__name__
                raise
            finally:
                tracer._close(record)
            if observe is not None:
                observe(tracer, record, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, names in TRACE_POINTS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self.saved.append((module, name, original))
                setattr(module, name, self.wrap(original))

    def uninstall(self) -> None:
        while self.saved:
            module, name, original = self.saved.pop()
            setattr(module, name, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


# Observers read counts off arguments and return values after the span has
# closed, so their cost lands in the caller's self time, not the layer's.


def _seen_alpha(tracer, record, args, result):
    tracer.alphas[id(result)] = result


def _tableau(tracer, record, args, verdict):
    record.attrs = {
        "alpha": id(args[0]) in tracer.alphas,
        "nodes": verdict.nodes,
        "depth": verdict.depth,
        "worlds": len(verdict.witness.frame.worlds) if verdict.satisfiable else 0,
    }


def _bounded(tracer, record, args, verdict):
    record.attrs = {"decisions": verdict.nodes}


def _checked(tracer, record, args, result):
    record.attrs = {"worlds": len(args[0].frame.worlds)}


def _extended(tracer, record, args, model):
    record.attrs = {"worlds": len(model.frame.worlds)}


OBSERVERS = {
    "encode_alpha": _seen_alpha,
    "sat_k_tableau": _tableau,
    "sat_bounded": _bounded,
    "model_check": _checked,
    "model_check_all": _checked,
    "extend_model": _extended,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (self time, seconds) and counts from the spans."""
    own = tracer.self_times()
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    star_s = alpha_s = 0.0
    for s, t in zip(tracer.spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        by_layer[s.layer] += t
        if s.name == "solver.sat_k_tableau":
            if s.attrs.get("alpha"):
                alpha_s += t
            else:
                star_s += t
    tableau = [s.attrs for s in tracer.spans if s.name == "solver.sat_k_tableau" and s.attrs]

    def total(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    def attr_sum(names: tuple[str, ...], key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in tracer.spans if s.name in names)

    nodes = sum(a["nodes"] for a in tableau)
    metrics = {
        "solver.tableau_alpha_s": alpha_s,
        "solver.tableau_alpha_nodes": sum(a["nodes"] for a in tableau if a["alpha"]),
        "solver.tableau_star_s": star_s,
        "solver.tableau_star_nodes": sum(a["nodes"] for a in tableau if not a["alpha"]),
        "solver.tableau_nodes_max": max((a["nodes"] for a in tableau), default=0),
        "solver.tableau_depth_max": max((a["depth"] for a in tableau), default=0),
        "solver.nodes_per_s": nodes / (alpha_s + star_s) if nodes else 0.0,
        "solver.witness_worlds": sum(a["worlds"] for a in tableau),
        "solver.bounded_s": total("solver.sat_bounded"),
        "solver.bounded_decisions": attr_sum(("solver.sat_bounded",), "decisions"),
        "kripke.model_check_s": total("kripke.model_check", "kripke.model_check_all"),
        "kripke.worlds_evaluated": attr_sum(("kripke.model_check", "kripke.model_check_all"), "worlds"),
        "kripke.close_s": total("kripke.close"),
        "kripke.frame_class_s": total("kripke.frame_class_check"),
        "kripke.json_s": total("kripke.model_to_json"),
        "reduction.quantifier_tree_s": total("reduction.quantifier_tree"),
        "reduction.extend_model_s": total("reduction.extend_model"),
        "reduction.star_equivalence_s": total("reduction.star_equivalence_violations"),
        "reduction.extended_worlds": attr_sum(("reduction.extend_model",), "worlds"),
        "reduction.encode_s": total("reduction.encode_star", "reduction.encode_alpha"),
        "reduction.encode_alpha_calls": calls.get("reduction.encode_alpha", 0),
        "syntax.substitute_s": total("syntax.substitute"),
        "syntax.expand_sugar_s": total("syntax.expand_sugar"),
        "syntax.parse_s": total("syntax.parse_qbf"),
        "qbf.is_true_qbf_s": total("qbf.is_true_qbf"),
        "qbf.evaluate_calls": calls.get("qbf.evaluate", 0),
        "pipeline.check_instance_self_s": total("pipeline.check_instance"),
    }
    for layer, t in by_layer.items():
        metrics[f"{layer}.self_s"] = t
    return metrics

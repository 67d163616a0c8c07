"""The four workloads: their inputs, their closed loop and their checks.

Every workload turns ``(seed, seconds)`` into a fixed list of instances: a
deterministic stream is cut where the estimated cost at the baseline reaches
``seconds``.  The work of a run therefore depends on the seed and the run
length only, never on how fast the machine or the program is, so counts and
output digests repeat exactly and ``wall_s`` compares like with like across
commits.  The estimates only size the corpus; nothing is timed by them.

The loop is closed and single-threaded: instance k+1 starts when instance k
is done.  The program sees only formula text, which it parses itself, and
every verdict is compared with the benchmark's own reference in ``corpus``.
Program functions are looked up as module attributes at call time, so the
traced run (``spans.py``) can rebind them.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field

import corpus
import speed
from corpus import Instance

BOUNDED_WORLDS = 4
CLOSURES = (("transitive", "GL"), ("reflexive_transitive", "Grz"), ("reflexive_symmetric", "KTB"))


@dataclass
class Result:
    """What one pass over a workload's instances produced."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    # reference-work seconds around each instance, and the sampling's own cost
    references: list[float] = field(default_factory=list)
    sampling_s: float = 0.0

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a check."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def instances(name: str, seed: int, seconds: float) -> list[tuple[Instance, bool]]:
    return take(WORKLOADS[name].stream(random.Random(seed)), seconds)


def take(stream, seconds: float) -> list[tuple[Instance, bool]]:
    """The longest prefix of ``stream`` whose estimated cost fits ``seconds``
    (at least one instance), each paired with its reference truth."""
    chosen = []
    budget = 0.0
    for instance, estimate in stream:
        budget += estimate
        if chosen and budget > seconds:
            break
        chosen.append((instance, corpus.truth(instance.prefix, instance.matrix)))
    return chosen


# ---------------------------------------------------------------------------
# verify: pipeline.check_instance over an acceptance-shaped corpus
# ---------------------------------------------------------------------------


def verify_stream(rng: random.Random):
    # The corpus shape of ``modalred verify --n-max 2 --count 100
    # --matrix-size-max-n1 5``: every n = 1 instance, then seeded n = 2
    # (estimated seconds per instance at the baseline).  With about 100
    # n = 2 instances per 316 n = 1, the median is an n = 1 instance and the
    # 90th percentile an n = 2 one, each well inside its cluster.
    for instance in corpus.n1_instances(5):
        yield instance, 0.004
    while True:
        yield corpus.random_instance(rng, 2, 9), 0.037


def verify_prepare(m) -> dict:
    # c2 exactly as run_verify computes it, from the corpus's first instance
    first = m.syntax.parse_qbf(corpus.n1_instances(1)[0].text)
    star, _ = m.reduction.encode_star(first)
    alpha = m.reduction.encode_alpha(first)
    star_size = m.syntax.formula_size(star)
    return {"c2": -(-m.syntax.formula_size(alpha) // star_size**2), "records": []}


def verify_step(m, state: dict, index: int, instance: Instance, truth: bool, result: Result):
    f = m.syntax.parse_qbf(instance.text)
    record = m.pipeline.check_instance(f, index, state["c2"])
    state["records"].append(record)
    if str(record.get("error", "")).startswith("unknown"):
        result.add("solver.budget_errors", 1)
    expect(record["is_true"] == truth, "is_true disagrees with the reference")
    expect(record["star_sat"] == truth, "star verdict disagrees with the reference")
    expect(record["alpha_sat"] == truth, "alpha verdict disagrees with the reference")
    expect(record["pass"] is True, "check_instance reports a failed check")
    result.add("syntax.alpha_size", record["alpha_size"])
    result.add("reduction.extended_worlds", record.get("extended_worlds") or 0)


def verify_finish(m, state: dict, result: Result) -> bytes:
    report = m.pipeline.VerifyReport(params={}, c1=0, c2=state["c2"], records=state["records"])
    return m.pipeline.report_lines(report).encode()


# ---------------------------------------------------------------------------
# frontier: the alpha tableau on n = 3
# ---------------------------------------------------------------------------


def frontier_stream(rng: random.Random):
    # The tableau's node count depends mostly on the prefix and the truth
    # value, so (prefix, truth) cells cycle in a fixed order and every seed
    # gets the same mix; the seed draws the matrices, each cell drawing until
    # the reference gives its truth value.
    cells = [("".join(p), truth) for p in itertools.product("AE", repeat=3) for truth in (True, False)]
    for prefix, truth in itertools.cycle(cells):
        while True:
            matrix = corpus.random_matrix(rng, 3, 9)
            if corpus.truth(prefix, matrix) == truth:
                break
        yield Instance(prefix, matrix), 0.32


def frontier_step(m, state: dict, index: int, instance: Instance, truth: bool, result: Result):
    f = m.syntax.parse_qbf(instance.text)
    m.reduction.encode_star(f)
    alpha = m.reduction.encode_alpha(f)
    verdict = m.solver.sat_k_tableau(alpha)
    expect(verdict.satisfiable == truth, "alpha verdict disagrees with the reference")
    state["alphas"].append(alpha)
    state["lines"].append(f"{index} {verdict.satisfiable} {verdict.nodes} {verdict.depth}\n")
    result.add("solver.tableau_alpha_nodes", verdict.nodes)
    result.peak("solver.tableau_nodes_max", verdict.nodes)
    result.peak("solver.tableau_depth_max", verdict.depth)
    if verdict.satisfiable:
        result.add("solver.witness_worlds", len(verdict.witness.frame.worlds))


def alpha_finish(m, state: dict, result: Result) -> bytes:
    # sizes are counted after the timed phase, so they cost the loop nothing
    result.counts["syntax.alpha_size"] = sum(m.syntax.formula_size(a) for a in state["alphas"])
    return "".join(state["lines"]).encode()


# ---------------------------------------------------------------------------
# witness: the model side of the reduction on true n = 3..5, no tableau
# ---------------------------------------------------------------------------


# estimated seconds of one witness instance at the baseline, per n, to be
# scaled by (quantifier tree worlds) ** 1.3
WITNESS_COST = {3: 0.004, 4: 0.006, 5: 0.012}


def witness_stream(rng: random.Random):
    # Prefixes cycle in a fixed order so every seed gets the same mix of tree
    # shapes, which set the cost; the seed draws the matrices, and a prefix
    # keeps drawing until the reference finds the formula true.  The order
    # sorts on the reversed prefix, E first: small trees come first and the
    # outermost quantifier alternates, so a pass that ends early in the 32
    # prefixes of n = 5 still mixes tree sizes.  Rounds run n = 3 and 4 three
    # times each for every n = 5, so no single big model dominates a pass and
    # the upper percentiles rest on more than a handful of instances.
    cycles = {
        n: itertools.cycle(sorted(("".join(p) for p in itertools.product("EA", repeat=n)), key=lambda p: [c == "A" for c in reversed(p)]))
        for n in WITNESS_COST
    }
    while True:
        for n in (3, 4, 3, 4, 3, 4, 5):
            prefix = next(cycles[n])
            while True:
                matrix = corpus.random_matrix(rng, n, 9)
                if corpus.truth(prefix, matrix):
                    break
            yield Instance(prefix, matrix), WITNESS_COST[n] * corpus.tree_worlds(prefix) ** 1.3


def witness_step(m, state: dict, index: int, instance: Instance, truth: bool, result: Result):
    expect(truth, "witness instances must be true")
    f = m.syntax.parse_qbf(instance.text)
    star, ctx = m.reduction.encode_star(f)
    tree = m.reduction.quantifier_tree(f)
    expect(len(tree.frame.worlds) == corpus.tree_worlds(instance.prefix), "quantifier tree has the wrong size")
    expect(m.kripke.model_check(tree, tree.root, star), "quantifier tree refutes the star encoding")
    for mode, cls in CLOSURES:
        expect(m.kripke.frame_class_check(m.kripke.close(tree.frame, mode), cls), f"{mode} closure is not {cls}")
    extended = m.reduction.extend_model(tree, ctx)
    alpha = m.reduction.encode_alpha(f)
    expect(m.kripke.model_check(extended, extended.root, alpha), "extended model refutes the alpha encoding")
    expect(not m.reduction.star_equivalence_violations(tree, extended, ctx), "ladder equivalence violated")
    text = m.kripke.model_to_json(extended)
    state["alphas"].append(alpha)
    state["lines"].append(text)
    result.add("reduction.tree_worlds", len(tree.frame.worlds))
    result.add("reduction.extended_worlds", len(extended.frame.worlds))


# ---------------------------------------------------------------------------
# oracle: star tableau against the bounded-model oracle on n = 1 and 2
# ---------------------------------------------------------------------------


# estimated seconds per n = 2 instance at the baseline, nearly all of it in
# sat_bounded(star, 4), which exhausts the bound on both prefixes (their
# quantifier trees need 5 and 7 worlds)
ORACLE_N2_COST = {"AA": 0.3, "AE": 0.45}


def oracle_stream(rng: random.Random):
    # Each round: every seventh n = 1 instance (46 of 316, both quantifiers,
    # all sizes, the same for every seed), then four seeded n = 2 instances
    # of each prefix.  The n = 1 latencies cluster by the model size the
    # oracle stops at (1-2 worlds, 3 worlds, none within the bound); with the
    # slow n = 2 instances the median falls inside the 3-world cluster and
    # the 90th percentile inside the n = 2 one, away from the gaps between
    # clusters.  EE and EA prefixes are left out: at bound 4 a false EE
    # instance takes 35-40 s (31,518 DPLL decisions) and an EA one 4.5-5.5 s,
    # longer than a whole pass.
    while True:
        for instance in corpus.n1_instances(5)[::7]:
            yield instance, 0.043
        for _ in range(4):
            for prefix, cost in ORACLE_N2_COST.items():
                yield Instance(prefix, corpus.random_matrix(rng, 2, 9)), cost


def oracle_step(m, state: dict, index: int, instance: Instance, truth: bool, result: Result):
    f = m.syntax.parse_qbf(instance.text)
    star, _ = m.reduction.encode_star(f)
    tableau = m.solver.sat_k_tableau(star)
    expect(tableau.satisfiable == truth, "star verdict disagrees with the reference")
    result.add("solver.tableau_star_nodes", tableau.nodes)
    if tableau.satisfiable:
        witness = tableau.witness
        expect(m.kripke.model_check(witness, witness.root, star), "tableau witness refutes the star encoding")
        result.add("solver.witness_worlds", len(witness.frame.worlds))
    bounded = m.solver.sat_bounded(star, BOUNDED_WORLDS)
    result.add("solver.bounded_decisions", bounded.nodes)
    if bounded.satisfiable:
        expect(truth, "bounded oracle found a model of a false instance")
        expect(m.kripke.model_check(bounded.witness, bounded.witness.root, star), "bounded witness refutes the star encoding")
    else:
        # the quantifier tree is a model, so one within the bound must be found
        expect(not truth or corpus.tree_worlds(instance.prefix) > BOUNDED_WORLDS, "bounded oracle missed a small model")
    state["lines"].append(f"{index} {tableau.satisfiable} {tableau.nodes} {bounded.satisfiable} {bounded.nodes} {bounded.depth}\n")


def lines_finish(m, state: dict, result: Result) -> bytes:
    return "".join(state["lines"]).encode()


def new_state(m) -> dict:
    return {"alphas": [], "lines": []}


@dataclass(frozen=True)
class Workload:
    stream: object
    prepare: object
    step: object
    finish: object


WORKLOADS = {
    "verify": Workload(verify_stream, verify_prepare, verify_step, verify_finish),
    "frontier": Workload(frontier_stream, new_state, frontier_step, alpha_finish),
    "witness": Workload(witness_stream, new_state, witness_step, alpha_finish),
    "oracle": Workload(oracle_stream, new_state, oracle_step, lines_finish),
}


def run(name: str, m, instances: list[tuple[Instance, bool]], tracer=None) -> Result:
    """One closed-loop pass; ``m`` holds the program's modules by name."""
    workload = WORKLOADS[name]
    result = Result()
    clock = time.perf_counter
    sampler = speed.Sampler()
    before = []
    with tracer.span("bench.run") if tracer else contextlib.nullcontext():
        start = clock()
        state = workload.prepare(m)
        for index, (instance, truth) in enumerate(instances):
            before.append(sampler.tick())
            began = clock()
            try:
                if tracer:
                    tracer.instance = index
                    with tracer.span("bench.instance"):
                        workload.step(m, state, index, instance, truth, result)
                else:
                    workload.step(m, state, index, instance, truth, result)
            except m.solver.SolverBudgetError as exc:
                result.add("solver.budget_errors", 1)
                _fail(result, index, instance, exc)
            except Exception as exc:  # any crash is a failed instance, not a dead run
                _fail(result, index, instance, exc)
            result.latencies.append(clock() - began)
        sampler.sample()
        result.wall_s = clock() - start
    result.references = [speed.around(sampler.samples, k) for k in before]
    result.sampling_s = sampler.spent
    result.digest = hashlib.sha256(workload.finish(m, state, result)).hexdigest()
    result.counts["instances"] = len(instances)
    result.counts["true_instances"] = sum(truth for _, truth in instances)
    result.counts.setdefault("solver.budget_errors", 0)
    return result


def _fail(result: Result, index: int, instance: Instance, exc: Exception) -> None:
    result.failed += 1
    if len(result.errors) < 10:
        result.errors.append(f"#{index} {instance.text}: {type(exc).__name__}: {exc}")

"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from itertools import islice

from hypothesis import strategies as st

from modalred import kripke
from modalred.kripke import BaseWorld, GadgetWorld, KripkeFrame, KripkeModel, close, world_id_str
from modalred.pipeline import random_matrix
from modalred.qbf import prenex_join, universal_closure
from modalred.syntax import (
    MAnd,
    MBox,
    MBoxLe,
    MBoxPow,
    MDia,
    MFalse,
    MImp,
    MNot,
    MOr,
    MTrue,
    MVar,
    ModalFormula,
    QAnd,
    QExists,
    QFalse,
    QForall,
    QImp,
    QOr,
    QVar,
    QbfFormula,
    _fold,
    _require_int,
)


def qbf_leaves():
    return st.one_of(
        st.builds(QVar, st.integers(min_value=1, max_value=5)),
        st.just(QFalse()),
    )


def qbf_formulas(max_leaves: int = 20):
    return st.recursive(
        qbf_leaves(),
        lambda sub: st.one_of(
            st.builds(QAnd, sub, sub),
            st.builds(QOr, sub, sub),
            st.builds(QImp, sub, sub),
            st.builds(QForall, st.integers(min_value=1, max_value=5), sub),
            st.builds(QExists, st.integers(min_value=1, max_value=5), sub),
        ),
        max_leaves=max_leaves,
    )


def qbf_size(f: QbfFormula) -> int:
    """Symbol count of a QBF: 1 per leaf, 1 per connective or quantifier."""
    return _fold(f, lambda g, sizes: 1 + sum(sizes), {})


def random_closed_qbf(rng: random.Random, max_size: int, var_count: int = 3) -> QbfFormula:
    """Random closed QBF (quantifiers may sit anywhere) of size <= max_size.

    Draws a random formula, closes it universally, and retries until the
    closed formula fits the size bound.
    """
    _require_int("max_size", max_size)
    while True:
        target = rng.choice(list(range(1, max_size + 1)))

        def build(size: int) -> QbfFormula:
            if size <= 1:
                if rng.random() < 0.25:
                    return QFalse()
                return QVar(rng.randint(1, var_count))
            op = rng.choice(("and", "or", "imp", "forall", "exists"))
            if op in ("forall", "exists"):
                body = build(size - 1)
                index = rng.randint(1, var_count)
                return QForall(index, body) if op == "forall" else QExists(index, body)
            left_size = rng.randint(1, max(size - 2, 1))
            right_size = max(size - 1 - left_size, 1)
            pair = (build(left_size), build(right_size))
            return {"and": QAnd, "or": QOr, "imp": QImp}[op](*pair)

        candidate = universal_closure(build(target))
        if qbf_size(candidate) <= max_size:
            return candidate


def random_modal_formula(rng: random.Random, max_size: int, var_count: int = 3) -> ModalFormula:
    """Random modal formula for solver cross-validation.

    ``var_count=0`` gives variable-free (constant) formulas, the shape of the
    hardness instances this toolkit produces.
    """
    _require_int("max_size", max_size)
    sizes = list(range(1, max_size + 1))
    target = rng.choice(sizes)

    def build(size: int) -> ModalFormula:
        if size <= 1:
            roll = rng.random()
            if var_count and roll < 0.6:
                return MVar(rng.randint(1, var_count))
            if roll < 0.8:
                return MFalse()
            return MTrue()
        op = rng.choice(("not", "box", "dia", "and", "or", "imp"))
        if op in ("not", "box", "dia"):
            body = build(size - 1)
            return {"not": MNot, "box": MBox, "dia": MDia}[op](body)
        left_size = rng.randint(1, size - 2) if size > 2 else 1
        right_size = max(size - 1 - left_size, 1)
        left = build(left_size)
        right = build(right_size)
        if op == "and":
            return MAnd((left, right))
        if op == "or":
            return MOr(left, right)
        return MImp(left, right)

    return build(target)


def frontier_recipe(n_max: int):
    """The alpha tableau's frontier QBFs up to ``n_max`` quantifiers: three
    per n, each a prefix letter from "AE" per variable and then a matrix of
    size at most 9, drawn from ``random.Random(1)``; n = 2, 3 and 4 are
    drawn in sequence, and each n >= 5 starts from ``Random(1)``."""
    rng = random.Random(1)
    for n in range(2, n_max + 1):
        if n >= 5:
            rng = random.Random(1)
        for _ in range(3):
            prefix = [(rng.choice("AE"), i) for i in range(1, n + 1)]
            yield prenex_join(prefix, random_matrix(rng, n, 9))


def cnf_frontier_recipe(n_max: int):
    """Frontier QBFs whose matrix grows with n: four per even n = 6, 8, ..
    up to ``n_max``, drawn in sequence from one ``random.Random(1)``.  The
    prefix alternates A p1 . E p2 . A p3 ..., and the matrix is a 3-CNF of
    round(n / 2) clauses, nested to the left; each clause draws three
    distinct variables (``rng.sample``) and then negates each, as
    ``p -> false``, when ``rng.random() < 0.5``."""
    rng = random.Random(1)
    for n in range(6, n_max + 1, 2):
        prefix = [("AE"[1 - i % 2], i) for i in range(1, n + 1)]
        for _ in range(4):
            matrix = None
            for _ in range(round(n / 2)):
                literals = [QVar(v) for v in rng.sample(range(1, n + 1), 3)]
                literals = [QImp(p, QFalse()) if rng.random() < 0.5 else p for p in literals]
                clause = QOr(QOr(literals[0], literals[1]), literals[2])
                matrix = clause if matrix is None else QAnd(matrix, clause)
            yield prenex_join(prefix, matrix)


def modal_leaves():
    return st.one_of(
        st.builds(MVar, st.integers(min_value=1, max_value=5)),
        st.just(MFalse()),
        st.just(MTrue()),
    )


def modal_formulas(max_leaves: int = 20):
    """Core modal formulas (no sugar); n-ary conjunctions have >= 2 items."""
    return st.recursive(
        modal_leaves(),
        lambda sub: st.one_of(
            st.builds(MNot, sub),
            st.builds(MBox, sub),
            st.builds(MDia, sub),
            st.builds(MOr, sub, sub),
            st.builds(MImp, sub, sub),
            st.builds(lambda items: MAnd(tuple(items)), st.lists(sub, min_size=2, max_size=4)),
        ),
        max_leaves=max_leaves,
    )


def dia_power(n: int, f: ModalFormula) -> ModalFormula:
    """dia^n f as the parser reads it: ``f`` under n nested diamonds."""
    for _ in range(n):
        f = MDia(f)
    return f


def sugared_modal_formulas(max_leaves: int = 12):
    return st.recursive(
        modal_leaves(),
        lambda sub: st.one_of(
            st.builds(MNot, sub),
            st.builds(MBox, sub),
            st.builds(MDia, sub),
            st.builds(MOr, sub, sub),
            st.builds(MImp, sub, sub),
            st.builds(lambda items: MAnd(tuple(items)), st.lists(sub, min_size=2, max_size=3)),
            st.builds(MBoxLe, st.integers(min_value=0, max_value=3), sub),
            st.builds(MBoxPow, st.integers(min_value=0, max_value=3), sub),
            # box+ and dia^n as the parser reads them
            st.builds(lambda f: MBoxLe(1, f), sub),
            st.builds(dia_power, st.integers(min_value=0, max_value=3), sub),
        ),
        max_leaves=max_leaves,
    )


def make_random_model(rng: random.Random, world_count: int, var_count: int = 2) -> KripkeModel:
    worlds = [BaseWorld(0, frozenset(), i) for i in range(world_count)]
    relation = frozenset(
        (u, v) for u in worlds for v in worlds if rng.random() < 0.45
    )
    valuation = {
        k: frozenset(w for w in worlds if rng.random() < 0.5)
        for k in range(1, var_count + 1)
    }
    frame = KripkeFrame(frozenset(worlds), relation)
    return KripkeModel(frame, valuation, worlds[0])


def all_small_models(world_count: int, var_count: int = 1):
    """Every pointed model with exactly ``world_count`` worlds (all relations,
    all valuations, root fixed to world 0 by symmetry)."""
    worlds = [BaseWorld(0, frozenset(), i) for i in range(world_count)]
    pairs = [(u, v) for u in worlds for v in worlds]
    for rel_bits in range(1 << len(pairs)):
        relation = frozenset(p for i, p in enumerate(pairs) if rel_bits >> i & 1)
        frame = KripkeFrame(frozenset(worlds), relation)
        for val_bits in range(1 << (world_count * var_count)):
            valuation = {
                k + 1: frozenset(
                    worlds[i]
                    for i in range(world_count)
                    if val_bits >> (k * world_count + i) & 1
                )
                for k in range(var_count)
            }
            yield KripkeModel(frame, valuation, worlds[0])


def fold_steps(monkeypatch, module) -> list:
    """The nodes that the walkers of ``module`` fold from now on, one entry
    per step of ``module._fold``."""
    steps, fold = [], module._fold

    def counting(root, combine, memo):
        def step(g, kids):
            steps.append(g)
            return combine(g, kids)

        return fold(root, step, memo)

    monkeypatch.setattr(module, "_fold", counting)
    return steps


def mask_steps(monkeypatch) -> list:
    """The nodes that model checking adds to a mask table from now on, in
    the order ``kripke._eval_masks`` adds them; a call without a table fills
    a fresh one, whose nodes count too."""
    steps, evaluate = [], kripke._eval_masks

    def recording(f, var_masks, pred, memo=None):
        table = {} if memo is None else memo
        known = len(table)  # tables only grow, in insertion order
        try:
            return evaluate(f, var_masks, pred, table)
        finally:
            steps.extend(islice(table, known, None))

    monkeypatch.setattr(kripke, "_eval_masks", recording)
    return steps


def paper_extended_model(base: KripkeModel, ctx) -> tuple[KripkeModel, dict]:
    """The extended model as the paper builds it: a fresh F_m copy below
    every base world lacking p_m, for m = 1..2n+2, then the transitive
    closure of the whole frame, built from pairs.  The copies' worlds are
    fresh base worlds, numbered after the base's serials.  Beside the model
    comes the map that forgets the copies: it sends each copy's world to the
    ``GadgetWorld`` it copies and each base world to itself.  A base that is
    not upward persistent or holds a gadget world is refused in
    ``extend_model``'s words."""
    edges = list(base.frame.relation)
    for u, v in sorted(edges, key=lambda e: (world_id_str(e[0]), world_id_str(e[1]))):
        for index, members in base.valuation.items():
            if u in members and v not in members:
                raise ValueError(
                    f"valuation is not upward persistent: p{index} holds at"
                    f" {world_id_str(u)} but not at its successor {world_id_str(v)}"
                )
    if not all(isinstance(w, BaseWorld) for w in base.frame.worlds):
        raise ValueError("extend_model expects a quantifier-tree model")
    image = {w: w for w in base.frame.worlds}
    serial = max(w.serial for w in image) + 1
    for m in range(1, ctx.var_count + 1):
        gadget = [*(GadgetWorld(m, f"a{i}") for i in range(m + 1)), GadgetWorld(m, "b")]
        for w in sorted(base.frame.worlds - base.valuation.get(m, frozenset()), key=world_id_str):
            copy = [BaseWorld(m, frozenset(), serial + i) for i in range(m + 2)]
            serial += m + 2
            image.update(zip(copy, gadget))
            *a, b = copy
            edges += [(w, a[0]), (a[0], b), (b, b)] + [(a[i], a[i + 1]) for i in range(m)]
    frame = close(KripkeFrame(frozenset(image), edges), "transitive")
    return KripkeModel(frame, dict(base.valuation), base.root), image

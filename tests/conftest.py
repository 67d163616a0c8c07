"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from modalred.kripke import BaseWorld, KripkeFrame, KripkeModel
from modalred.qbf import universal_closure
from modalred.syntax import (
    MAnd,
    MBox,
    MBoxLe,
    MBoxPlus,
    MBoxPow,
    MDia,
    MDiaPow,
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
            st.builds(MBoxPlus, sub),
            st.builds(MBoxLe, st.integers(min_value=0, max_value=3), sub),
            st.builds(MBoxPow, st.integers(min_value=0, max_value=3), sub),
            st.builds(MDiaPow, st.integers(min_value=0, max_value=3), sub),
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

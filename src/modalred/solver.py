"""K-satisfiability: a tableau decision procedure and a bounded-model oracle.

``sat_k_tableau`` is a single-branch depth-first tableau with on-the-fly
successor generation: saturate a world label propositionally (conjunctions
first, then disjunctions, ties broken by subformula position), then spawn one
successor per diamond, carrying the boxed formulas.  Sound and complete for K
over finite tree models; satisfiable verdicts come with a tree witness whose
depth is at most the modal depth of the query.  Labels are memoized, so
repeated sub-labels (ubiquitous in the ladder encodings) are decided once.

``sat_bounded`` is the independent oracle: an exhaustive search for a pointed
model with at most ``max_worlds`` worlds, run as a propositional encoding of
the satisfaction relation (truth bits per subformula and world, relation
bits, valuation bits) under a small deterministic DPLL.  Satisfiable verdicts
are absolute; unsatisfiable ones only mean "no model within the bound".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .kripke import BaseWorld, KripkeFrame, KripkeModel
from .syntax import (
    MAnd,
    MBox,
    MDia,
    MFalse,
    MImp,
    MNot,
    MOr,
    MTrue,
    MVar,
    ModalFormula,
    _fold,
    expand_sugar,
    modal_vars,
)

__all__ = [
    "SatVerdict",
    "SolverBudgetError",
    "sat_k_tableau",
    "sat_bounded",
    "DEFAULT_TABLEAU_BUDGET",
]

DEFAULT_TABLEAU_BUDGET = 10_000_000


@dataclass(frozen=True)
class SatVerdict:
    """Outcome of a satisfiability query.

    ``engine`` is "tableau" or "bounded"; for the bounded engine ``bound``
    records the world limit and an unsatisfiable verdict is only
    bound-relative.  ``nodes`` and ``depth`` are search statistics.
    """

    satisfiable: bool
    witness: Optional[KripkeModel]
    engine: str
    bound: Optional[int]
    nodes: int
    depth: int

    @property
    def conclusive(self) -> bool:
        """Whether an unsatisfiable verdict rules out all models."""
        return self.engine == "tableau" or self.satisfiable


class SolverBudgetError(Exception):
    """Node budget exhausted; the query outcome is unknown, never guessed."""


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------


def _nnf(f: ModalFormula, positive: bool, memo: dict) -> ModalFormula:
    key = (f, positive)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, MVar):
        result = f if positive else MNot(f)
    elif isinstance(f, MFalse):
        result = MFalse() if positive else MTrue()
    elif isinstance(f, MTrue):
        result = MTrue() if positive else MFalse()
    elif isinstance(f, MNot):
        result = _nnf(f.body, not positive, memo)
    elif isinstance(f, MAnd):
        parts = tuple(_nnf(g, positive, memo) for g in f.items)
        if positive:
            result = MAnd(parts)
        else:
            result = parts[0]
            for g in parts[1:]:
                result = MOr(result, g)
    elif isinstance(f, MOr):
        if positive:
            result = MOr(_nnf(f.left, True, memo), _nnf(f.right, True, memo))
        else:
            result = MAnd((_nnf(f.left, False, memo), _nnf(f.right, False, memo)))
    elif isinstance(f, MImp):
        if positive:
            result = MOr(_nnf(f.left, False, memo), _nnf(f.right, True, memo))
        else:
            result = MAnd((_nnf(f.left, True, memo), _nnf(f.right, False, memo)))
    elif isinstance(f, MBox):
        result = (
            MBox(_nnf(f.body, True, memo))
            if positive
            else MDia(_nnf(f.body, False, memo))
        )
    elif isinstance(f, MDia):
        result = (
            MDia(_nnf(f.body, True, memo))
            if positive
            else MBox(_nnf(f.body, False, memo))
        )
    else:
        raise TypeError(f"unexpanded or non-modal node: {f!r}")
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------

class _Tableau:
    """Bit-level tableau state machine for one query.

    Every formula that can ever enter a label (subformulas of the query NNF,
    closed under the negations needed for semantic branching) gets a local
    bit; labels and saturation states are ints.  Saturation drains
    conjunctions, checks literal clashes, and unit-propagates disjunctions
    whose one side is already refuted; then diamonds are probed against the
    current boxes (a sound lookahead, since boxes only grow along a branch),
    and only then does the search branch on the first open disjunction,
    asserting the negated left disjunct on the right branch.  Saturated
    states are memoized for the lifetime of the query.
    """

    KTRUE, KFALSE, KLIT, KAND, KOR, KBOX, KDIA = range(7)

    def __init__(self, budget: int):
        self.budget = budget
        self.nodes = 0
        self.max_depth = 0
        self.ids: dict = {}
        self.kind: list[int] = []
        self.payload: list = []
        self.partner: list[int] = []  # clashing literal bit, or 0
        self.body_bit: list[int] = []  # box/dia body bit, or 0
        self.cache: dict = {}
        self.nnf_memo: dict = {}

    def register(self, f: ModalFormula) -> int:
        known = self.ids.get(f)
        if known is not None:
            return known
        index = len(self.kind)
        self.ids[f] = index
        self.kind.append(-1)
        self.payload.append(None)
        self.partner.append(0)
        self.body_bit.append(0)
        if isinstance(f, MTrue):
            self.kind[index] = self.KTRUE
        elif isinstance(f, MFalse):
            self.kind[index] = self.KFALSE
        elif isinstance(f, (MVar, MNot)):
            self.kind[index] = self.KLIT
            self.payload[index] = f.index if isinstance(f, MVar) else -f.body.index
            other = MNot(f) if isinstance(f, MVar) else f.body
            self.partner[index] = 1 << self.register(other)
        elif isinstance(f, MAnd):
            self.kind[index] = self.KAND
            mask = 0
            for item in f.items:
                mask |= 1 << self.register(item)
            self.payload[index] = mask
        elif isinstance(f, MOr):
            self.kind[index] = self.KOR
            left = 1 << self.register(f.left)
            right = 1 << self.register(f.right)
            not_left = 1 << self.register(_nnf(f.left, False, self.nnf_memo))
            not_right = 1 << self.register(_nnf(f.right, False, self.nnf_memo))
            self.payload[index] = (left, right, not_left, not_right)
        elif isinstance(f, MBox):
            self.kind[index] = self.KBOX
            self.body_bit[index] = 1 << self.register(f.body)
        elif isinstance(f, MDia):
            self.kind[index] = self.KDIA
            self.body_bit[index] = 1 << self.register(f.body)
        else:
            raise TypeError(f"not in negation normal form: {f!r}")
        return index

    def solve(self, mask: int, depth: int):
        """Witness tree (true variables, children) for the label, or None."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise SolverBudgetError(f"tableau node budget of {self.budget} exhausted")
        if depth > self.max_depth:
            self.max_depth = depth
        kind = self.kind
        payload = self.payload
        seen = 0
        literals = 0
        ors = 0
        boxes = 0
        dias = 0
        pending = mask
        while True:
            while pending:
                low = pending & -pending
                pending &= pending - 1
                if seen & low:
                    continue
                seen |= low
                i = low.bit_length() - 1
                k = kind[i]
                if k == self.KAND:
                    pending |= payload[i] & ~seen
                elif k == self.KLIT:
                    if seen & self.partner[i]:
                        return None
                    literals |= low
                elif k == self.KOR:
                    ors |= low
                elif k == self.KBOX:
                    boxes |= low
                elif k == self.KDIA:
                    dias |= low
                elif k == self.KFALSE:
                    return None
                # KTRUE: nothing to do
            forced = 0
            keep = 0
            m = ors
            while m:
                low = m & -m
                m &= m - 1
                left, right, not_left, not_right = payload[low.bit_length() - 1]
                if seen & left or seen & right:
                    continue  # satisfied, drop
                left_dead = seen & not_left
                right_dead = seen & not_right
                if left_dead and right_dead:
                    return None
                if left_dead:
                    forced |= right
                elif right_dead:
                    forced |= left
                else:
                    keep |= low
            ors = keep
            pending = forced & ~seen
            if not pending:
                break
        state = literals | ors | boxes | dias
        hit = self.cache.get(state, _MISSING)
        if hit is not _MISSING:
            return hit
        box_bodies = 0
        m = boxes
        while m:
            low = m & -m
            m &= m - 1
            box_bodies |= self.body_bit[low.bit_length() - 1]
        # diamond probing doubles as the closing rule when no disjunction is open
        result: object = ()
        children = []
        m = dias
        while m:
            low = m & -m
            m &= m - 1
            child = self.solve(self.body_bit[low.bit_length() - 1] | box_bodies, depth + 1)
            if child is None:
                result = None
                break
            children.append(child)
        if result is not None and ors:
            low = ors & -ors
            left, right, not_left, not_right = payload[low.bit_length() - 1]
            result = self.solve(state | left, depth)
            if result is None:
                result = self.solve(state | not_left | right, depth)
        elif result is not None:
            result = (self._true_vars(literals), tuple(children))
        self.cache[state] = result
        return result

    def _true_vars(self, literals: int) -> frozenset[int]:
        out = set()
        m = literals
        while m:
            low = m & -m
            m &= m - 1
            value = self.payload[low.bit_length() - 1]
            if value > 0:
                out.add(value)
        return frozenset(out)


_MISSING = object()


# Above this many worlds the tree unfolding of a witness is not materialized;
# the witness is emitted in its shared (dag) form instead, which is equally a
# model of the query and stays bounded by the search size.
WITNESS_TREE_LIMIT = 100_000


def _unfolded_size(tree, memo: dict) -> int:
    key = id(tree)
    hit = memo.get(key)
    if hit is not None:
        return hit
    _, children = tree
    result = 1 + sum(_unfolded_size(c, memo) for c in children)
    memo[key] = result
    return result


def _tree_to_model(tree, variables: frozenset[int]) -> KripkeModel:
    worlds: list[BaseWorld] = []
    edges: list[tuple[BaseWorld, BaseWorld]] = []
    serial = itertools.count()
    share = _unfolded_size(tree, {}) > WITNESS_TREE_LIMIT
    placed: dict[int, BaseWorld] = {}

    def build(node, depth: int) -> BaseWorld:
        if share and id(node) in placed:
            return placed[id(node)]
        literals, children = node
        w = BaseWorld(depth, frozenset(literals), next(serial))
        worlds.append(w)
        placed[id(node)] = w
        for child in children:
            cw = build(child, depth + 1)
            edges.append((w, cw))
        return w

    root = build(tree, 0)
    frame = KripkeFrame(frozenset(worlds), frozenset(edges))
    valuation = {
        v: frozenset(w for w in worlds if v in w.assignment) for v in sorted(variables)
    }
    return KripkeModel(frame, valuation, root)


def sat_k_tableau(f: ModalFormula, budget: int = DEFAULT_TABLEAU_BUDGET) -> SatVerdict:
    """Decide K-satisfiability of ``f``; sound and complete.

    Raises SolverBudgetError when the node budget runs out.
    """
    tableau = _Tableau(budget)
    root = _nnf(expand_sugar(f), True, tableau.nnf_memo)
    tree = tableau.solve(1 << tableau.register(root), 0)
    if tree is None:
        return SatVerdict(False, None, "tableau", None, tableau.nodes, tableau.max_depth)
    witness = _tree_to_model(tree, modal_vars(f))
    return SatVerdict(True, witness, "tableau", None, tableau.nodes, tableau.max_depth)


# ---------------------------------------------------------------------------
# Bounded-model oracle
# ---------------------------------------------------------------------------


class _Cnf:
    def __init__(self):
        self.count = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.count += 1
        return self.count

    def add(self, *lits: int) -> None:
        self.clauses.append(tuple(lits))


def _encode(f: ModalFormula, k: int):
    """Propositional encoding of "f holds at world 0 of a k-world model"."""
    # the fold's memo holds the distinct subformulas in the order it combined
    # them (depth-first post-order); that order numbers the CNF variables
    subs: dict = {}
    _fold(f, lambda g, _: g, subs)
    cnf = _Cnf()
    truth = {(g, i): cnf.new_var() for g in subs for i in range(k)}
    rel = {(i, j): cnf.new_var() for i in range(k) for j in range(k)}
    for g in subs:
        for i in range(k):
            t = truth[(g, i)]
            if isinstance(g, MVar):
                pass  # free bit: the valuation itself
            elif isinstance(g, MFalse):
                cnf.add(-t)
            elif isinstance(g, MTrue):
                cnf.add(t)
            elif isinstance(g, MNot):
                b = truth[(g.body, i)]
                cnf.add(-t, -b)
                cnf.add(t, b)
            elif isinstance(g, MAnd):
                parts = [truth[(item, i)] for item in g.items]
                for b in parts:
                    cnf.add(-t, b)
                cnf.add(t, *(-b for b in parts))
            elif isinstance(g, MOr):
                l, r = truth[(g.left, i)], truth[(g.right, i)]
                cnf.add(-t, l, r)
                cnf.add(t, -l)
                cnf.add(t, -r)
            elif isinstance(g, MImp):
                l, r = truth[(g.left, i)], truth[(g.right, i)]
                cnf.add(-t, -l, r)
                cnf.add(t, l)
                cnf.add(t, -r)
            elif isinstance(g, MBox):
                # t <-> AND_j (rel(i,j) -> body@j); bad_j <-> rel(i,j) & ~body@j
                bad = []
                for j in range(k):
                    b = truth[(g.body, j)]
                    x = cnf.new_var()
                    bad.append(x)
                    cnf.add(-x, rel[(i, j)])
                    cnf.add(-x, -b)
                    cnf.add(x, -rel[(i, j)], b)
                for x in bad:
                    cnf.add(-t, -x)
                cnf.add(t, *bad)
            elif isinstance(g, MDia):
                good = []
                for j in range(k):
                    b = truth[(g.body, j)]
                    y = cnf.new_var()
                    good.append(y)
                    cnf.add(-y, rel[(i, j)])
                    cnf.add(-y, b)
                    cnf.add(y, -rel[(i, j)], -b)
                cnf.add(-t, *good)
                for y in good:
                    cnf.add(t, -y)
            else:
                raise TypeError(f"unexpanded or non-modal node: {g!r}")
    cnf.add(truth[(f, 0)])
    return cnf, truth, rel


def _dpll(cnf: _Cnf) -> tuple[Optional[dict[int, bool]], int]:
    """Deterministic DPLL with unit propagation; returns (model, decisions)."""
    assignment: dict[int, bool] = {}
    trail: list[int] = []
    decisions = 0

    def value(lit: int) -> Optional[bool]:
        v = assignment.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def assign(lit: int) -> None:
        assignment[abs(lit)] = lit > 0
        trail.append(abs(lit))

    def propagate() -> bool:
        # full sweeps until fixpoint; clause sets are small
        changed = True
        while changed:
            changed = False
            for clause in cnf.clauses:
                unassigned = None
                count = 0
                satisfied = False
                for lit in clause:
                    v = value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        unassigned = lit
                        count += 1
                        if count > 1:
                            break
                if satisfied or count > 1:
                    continue
                if count == 0:
                    return False
                assign(unassigned)
                changed = True
        return True

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            assignment.pop(trail.pop())

    def solve() -> bool:
        nonlocal decisions
        mark = len(trail)
        if not propagate():
            undo_to(mark)
            return False
        var = None
        for v in range(1, cnf.count + 1):
            if v not in assignment:
                var = v
                break
        if var is None:
            return True
        for choice in (False, True):
            decisions += 1
            mark2 = len(trail)
            assign(var if choice else -var)
            if solve():
                return True
            undo_to(mark2)
        undo_to(mark)
        return False

    if solve():
        return dict(assignment), decisions
    return None, decisions


def sat_bounded(f: ModalFormula, max_worlds: int) -> SatVerdict:
    """Exhaustive search for a pointed model with at most ``max_worlds``
    worlds.  Satisfiable verdicts are absolute; unsatisfiable means only
    "no model within the bound"."""
    if not isinstance(max_worlds, int) or max_worlds < 1:
        raise ValueError(f"max_worlds must be a positive integer, got {max_worlds!r}")
    g = expand_sugar(f)
    total_decisions = 0
    for k in range(1, max_worlds + 1):
        cnf, truth, rel = _encode(g, k)
        model_bits, decisions = _dpll(cnf)
        total_decisions += decisions
        if model_bits is None:
            continue
        variables = sorted(modal_vars(g))
        worlds = [
            BaseWorld(
                0,
                frozenset(
                    v
                    for v in variables
                    if model_bits.get(truth.get((MVar(v), j)), False)
                ),
                j,
            )
            for j in range(k)
        ]
        edges = frozenset(
            (worlds[i], worlds[j])
            for i in range(k)
            for j in range(k)
            if model_bits.get(rel[(i, j)], False)
        )
        frame = KripkeFrame(frozenset(worlds), edges)
        valuation = {
            v: frozenset(w for j, w in enumerate(worlds)
                         if model_bits.get(truth.get((MVar(v), j)), False))
            for v in variables
        }
        witness = KripkeModel(frame, valuation, worlds[0])
        return SatVerdict(True, witness, "bounded", max_worlds, total_decisions, k)
    return SatVerdict(False, None, "bounded", max_worlds, total_decisions, max_worlds)

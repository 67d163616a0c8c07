"""The reduction machinery: from closed prenex QBF to modal formulas.

``encode_star`` turns ``Q1 p1 ... Qn pn . matrix`` into a conjunction of six
modal conjuncts over the variables p_1..p_n and the level markers
q_0..q_{n+1} (written as p_{n+1}..p_{2n+2}).  Reading q_i as "at least i
quantifiers have been opened", the conjuncts say:

  (1) the root is at level exactly 0 and all p_i start out false;
  (2) levels are downward closed: q_i -> q_{i-1}, for i = 1..n+1;
  (3) from a level i-1 world, an existential quantifier can be opened:
      some successor sits at level exactly i;
  (4) a universal quantifier opens both ways: successors at level exactly i
      with p_i true and with p_i false;
  (5) once a variable's value is chosen it persists: at any q_i world, each
      p_j with j <= i keeps its value in all successors at level i+1 that are
      still below the top marker (the ~q_{n+1} guard is what later keeps the
      constraint away from gadget copies);
  (6) at level exactly n the matrix holds.

``alpha(k)`` is the variable-free ladder formula that is refutable at a world
exactly when a fresh copy of the k-rung gadget hangs below it; substituting
alpha(1)..alpha(2n+2) for p_1..p_{2n+2} (``encode_alpha``) removes all
variables while preserving satisfiability.  ``quantifier_tree`` and
``extend_model`` build the witness models for the two directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import kripke
# model_check_all, evaluate and is_true_qbf are not called here any more;
# perfbench's traced run still rebinds this module's names for them
from .kripke import BaseWorld, GadgetWorld, KripkeFrame, KripkeModel, close, model_check_all  # noqa: F401
from .qbf import _truth_tables, evaluate, free_vars, is_prenex, is_true_qbf, prenex_split  # noqa: F401
from .syntax import (
    MAnd,
    MBox,
    MBoxLe,
    MBoxPow,
    MDia,
    MFalse,
    MImp,
    MTrue,
    MVar,
    ModalFormula,
    MOr,
    QAnd,
    QbfFormula,
    QExists,
    QFalse,
    QImp,
    QOr,
    QVar,
    _fold,
    _require_int,
    conj,
    neg,
    substitute,
)

__all__ = [
    "EncodingContext",
    "prepare_context",
    "encode_star",
    "alpha",
    "encode_alpha",
    "quantifier_tree",
    "frame_fm",
    "frame_fm_plus",
    "extend_model",
    "star_equivalence_violations",
]


@dataclass(frozen=True)
class EncodingContext:
    """Bookkeeping for one encoding: quantifier prefix and variable renaming.

    The level markers q_0..q_{n+1} are written as ordinary variables via
    q_i = p_{n+1+i}, so the encoded formula uses indices 1..2n+2 only.
    """

    n: int
    quantifiers: tuple[tuple[str, int], ...]
    matrix: QbfFormula

    @property
    def renaming(self) -> dict[int, int]:
        return {i: self.n + 1 + i for i in range(self.n + 2)}

    def q_index(self, i: int) -> int:
        if not 0 <= i <= self.n + 1:
            raise ValueError(f"q index out of range: {i}")
        return self.n + 1 + i

    @property
    def var_count(self) -> int:
        """Total variable count of the encoding, 2n+2."""
        return 2 * self.n + 2


def prepare_context(f: QbfFormula) -> EncodingContext:
    """Validate the canonical input shape: quantifier i binds p_i."""
    if not is_prenex(f):
        raise ValueError("encoding input must be prenex")
    prefix, matrix = prenex_split(f)
    if not prefix:
        raise ValueError("encoding input needs at least one quantifier")
    for position, (_, index) in enumerate(prefix, start=1):
        if index != position:
            raise ValueError(
                f"quantifier {position} must bind p{position}, binds p{index}"
            )
    n = len(prefix)
    bad = free_vars(matrix) - set(range(1, n + 1))
    if bad:
        names = ", ".join(f"p{i}" for i in sorted(bad))
        raise ValueError(f"matrix variables must lie in p1..p{n}; found {names}")
    return EncodingContext(n=n, quantifiers=tuple(prefix), matrix=matrix)


def _matrix_to_modal(f: QbfFormula, kids) -> ModalFormula:
    """Fold step: the modal copy of a quantifier-free node."""
    if isinstance(f, QVar):
        return MVar(f.index)
    if isinstance(f, QFalse):
        return MFalse()
    if isinstance(f, QAnd):
        return MAnd(kids)
    if isinstance(f, QOr):
        return MOr(*kids)
    if isinstance(f, QImp):
        return MImp(*kids)
    raise TypeError(f"matrix must be quantifier-free: {f!r}")


def encode_star(f: QbfFormula) -> tuple[ModalFormula, EncodingContext]:
    """The six-conjunct modal encoding of a closed prenex QBF.

    Depth sugar is kept as box<= / box^ nodes so dumps show the intended
    shape; expand_sugar flattens it for checking and size counting.
    """
    ctx = prepare_context(f)
    n = ctx.n

    def q(i: int) -> ModalFormula:
        return MVar(ctx.q_index(i))

    def p(i: int) -> ModalFormula:
        return MVar(i)

    def at_level(i: int) -> ModalFormula:
        return MAnd((q(i), neg(q(i + 1))))

    c1 = MAnd((q(0), neg(q(1))) + tuple(neg(p(i)) for i in range(1, n + 1)))
    c2 = MBoxLe(n, conj([MImp(q(i), q(i - 1)) for i in range(1, n + 2)]))
    c3 = MBoxLe(
        n - 1,
        conj(
            [
                MImp(at_level(i - 1), MDia(at_level(i)))
                for (kind, i) in ctx.quantifiers
                if kind == "E"
            ]
        ),
    )
    c4 = MBoxLe(
        n - 1,
        conj(
            [
                MImp(
                    at_level(i - 1),
                    MAnd(
                        (
                            MDia(MAnd((q(i), neg(q(i + 1)), p(i)))),
                            MDia(MAnd((q(i), neg(q(i + 1)), neg(p(i))))),
                        )
                    ),
                )
                for (kind, i) in ctx.quantifiers
                if kind == "A"
            ]
        ),
    )
    def guard(i: int) -> ModalFormula:
        # a successor at level i+1 that is still a base-layer world
        return MAnd((q(i + 1), neg(q(n + 1))))

    c5 = MBoxLe(
        n - 1,
        conj(
            [
                MImp(
                    q(i),
                    MAnd(
                        (
                            conj(
                                [
                                    MImp(p(j), MBox(MImp(guard(i), p(j))))
                                    for j in range(1, i + 1)
                                ]
                            ),
                            conj(
                                [
                                    MImp(neg(p(j)), MBox(MImp(guard(i), neg(p(j)))))
                                    for j in range(1, i + 1)
                                ]
                            ),
                        )
                    ),
                )
                for i in range(1, n)
            ]
        ),
    )
    c6 = MBoxPow(n, MImp(at_level(n), _fold(ctx.matrix, _matrix_to_modal, {})))
    return MAnd((c1, c2, c3, c4, c5, c6)), ctx


def alpha(k: int) -> ModalFormula:
    """The variable-free ladder formula
    [](<>^k []false & ~<>^{k+1} []false -> [](<>true -> <>[]false))."""
    _require_int("alpha index", k)
    blind = MBox(MFalse())

    def dias(count: int, body: ModalFormula) -> ModalFormula:
        for _ in range(count):
            body = MDia(body)
        return body

    rung = MAnd((dias(k, blind), neg(dias(k + 1, blind))))
    escape = MBox(MImp(MDia(MTrue()), MDia(blind)))
    return MBox(MImp(rung, escape))


def encode_alpha(f: QbfFormula) -> ModalFormula:
    """Variable-free encoding: substitute alpha(i) for p_i in encode_star."""
    return _alpha_of_star(*encode_star(f))


def _alpha_of_star(star: ModalFormula, ctx: EncodingContext) -> ModalFormula:
    """The variable-free encoding of the formula whose star encoding and
    context ``encode_star`` returned as ``star`` and ``ctx``."""
    mapping = {i: alpha(i) for i in range(1, ctx.var_count + 1)}
    return substitute(star, mapping)


# ---------------------------------------------------------------------------
# Witness models
# ---------------------------------------------------------------------------


def quantifier_tree(f: QbfFormula) -> KripkeModel:
    """Witness tree for a true formula: branch on A, choose on E.

    Worlds are classical assignments; each level resolves one quantifier.
    The valuation covers both the assignment variables (p_k true where the
    assignment holds it) and the renamed level markers (q_i true at levels
    >= i), so the result model-checks encode_star at its root.
    """
    ctx = prepare_context(f)
    tables, weight = _truth_tables(f, frozenset())
    if not tables[f] & 1:
        raise ValueError("quantifier tree exists only for true formulas")
    n = ctx.n
    worlds: list[BaseWorld] = []
    edges: list[tuple[BaseWorld, BaseWorld]] = []
    # (the suffix Q_{level+1} ... matrix, level, assignment, its table bit,
    # parent world); worlds are numbered as they are popped, in pre-order
    stack = [(f, 0, frozenset(), 0, None)]
    while stack:
        g, level, assignment, bit, parent = stack.pop()
        w = BaseWorld(level, assignment, len(worlds))
        worlds.append(w)
        if parent is not None:
            edges.append((parent, w))
        if level == n:
            continue
        children = [(assignment, bit), (assignment | {g.index}, bit | weight[g.index])]
        if isinstance(g, QExists):
            # prefer the child without the variable when both work
            children = [c for c in children if tables[g.body] >> c[1] & 1][:1]
        stack.extend((g.body, level + 1, *c, w) for c in reversed(children))
    frame = KripkeFrame(frozenset(worlds), edges)
    valuation: dict[int, frozenset[BaseWorld]] = {}
    for k in range(1, n + 1):
        valuation[k] = frozenset(w for w in worlds if k in w.assignment)
    for i in range(n + 2):
        valuation[ctx.q_index(i)] = frozenset(w for w in worlds if w.level >= i)
    return KripkeModel(frame, valuation, worlds[0])


def _gadget_edges(m: int, host: BaseWorld | None):
    """Worlds and raw (pre-closure) edges of one F_m copy."""
    a = [GadgetWorld(m, f"a{i}", host) for i in range(m + 1)]
    b = GadgetWorld(m, "b", host)
    worlds = [b, *a]
    edges = [(a[0], b), (b, b)]
    edges += [(a[i], a[i + 1]) for i in range(m)]
    return worlds, edges, a[0]


def frame_fm(m: int) -> KripkeFrame:
    """The gadget frame F_m: an irreflexive ladder a_0 -> ... -> a_m with a
    reflexive side world b below a_0, transitively closed."""
    _require_int("gadget index", m)
    worlds, edges, _ = _gadget_edges(m, None)
    return close(KripkeFrame(frozenset(worlds), edges), "transitive")


def frame_fm_plus(m: int) -> KripkeFrame:
    """F_m plus the reflexive entry world c_m with c_m -> a_0."""
    _require_int("gadget index", m)
    worlds, edges, a0 = _gadget_edges(m, None)
    c = GadgetWorld(m, "c", None)
    worlds = [*worlds, c]
    edges = [*edges, (c, c), (c, a0)]
    return close(KripkeFrame(frozenset(worlds), edges), "transitive")


def extend_model(base: KripkeModel, ctx: EncodingContext) -> KripkeModel:
    """Attach an F_m copy below every base world where p_m is false, for every
    m = 1..2n+2, and transitively close the whole relation.

    The base valuation must be upward persistent (true variables stay true
    along edges); that is what confines each alpha_m refutation to exactly
    the base worlds refuting p_m.

    The closed frame is written row by row in closed form, never built from
    pairs and closed afterwards.  Every base id sorts before every gadget id,
    so the base worlds keep their positions and the gadget worlds follow,
    sorted once by id (a copy's ids end in its host's id).  In a copy,
    a_i sees a_j for j > i, a_0 sees b and b sees itself; a base world sees
    its reach in the base frame (its rows closed alone) and every copy
    hosted at itself or at a world of that reach.
    """
    base_frame = base.frame
    base_worlds, base_ids = base_frame.order, base_frame.ids
    masks = [(index, kripke._mask(base_frame.position, members)) for index, members in base.valuation.items()]
    for i, j in kripke._pairs(base_frame.succ):
        for index, mask in masks:
            if mask >> i & 1 and not mask >> j & 1:
                raise ValueError(
                    f"valuation is not upward persistent: p{index} holds at"
                    f" {base_ids[i]} but not at its successor {base_ids[j]}"
                )
    if not all(isinstance(w, BaseWorld) for w in base_worlds):
        raise ValueError("extend_model expects a quantifier-tree model")
    holders = dict(masks)
    # each copy: its host's position and, once sorted, the positions of its
    # a_0..a_m and then b
    copies: list[tuple[int, list[int]]] = []
    entries = []  # (id, world, rung slots of its copy, rung): rung m + 1 is b
    for m in range(1, ctx.var_count + 1):
        parts = [f"a{i}" for i in range(m + 1)] + ["b"]
        held = holders.get(m, 0)
        for h, host in enumerate(base_worlds):
            if held >> h & 1:
                continue
            slots = [0] * (m + 2)
            copies.append((h, slots))
            entries += [
                (f"gadget:m{m}:{part}@{base_ids[h]}", GadgetWorld(m, part, host), slots, rung)
                for rung, part in enumerate(parts)
            ]
    entries.sort(key=itemgetter(0))
    size = len(base_worlds)
    for k, (_, _, slots, rung) in enumerate(entries, start=size):
        slots[rung] = k
    rows = kripke._close_rows(list(base_frame.succ)) + [0] * len(entries)
    hosted = [0] * size  # the worlds of the copies below each base world
    for h, (*ladder, b) in copies:
        rows[b] = 1 << b
        above = 0  # the rungs above the current one
        for k in reversed(ladder):
            rows[k] = above
            above |= 1 << k
        rows[ladder[0]] |= 1 << b
        hosted[h] |= above | 1 << b
    for i in range(size):
        row = rows[i] | hosted[i]
        for j in kripke._bits(rows[i]):
            row |= hosted[j]
        rows[i] = row
    order = base_worlds + tuple(world for _, world, _, _ in entries)
    position = {w: i for i, w in enumerate(order)}
    ids = base_ids + tuple(wid for wid, _, _, _ in entries)
    # the frozenset reuses the hashes the position dict stored
    frame = KripkeFrame.__new__(KripkeFrame)._fill(frozenset(position), order, position, tuple(rows), ids)
    return KripkeModel(frame, dict(base.valuation), base.root)


def star_equivalence_violations(
    base: KripkeModel, extended: KripkeModel, ctx: EncodingContext
) -> list[tuple[kripke.WorldId, int]]:
    """Check the key equivalence of the extension at every world.

    alpha_m must be refuted at a world of the extended model exactly when
    that world is a base world refuting p_m.  Returns all (world, m) pairs
    violating this, for m = 1..2n+2; empty means the equivalence holds.
    """
    order, position = extended.frame.order, extended.frame.position
    n = len(order)
    full = (1 << n) - 1
    memo: dict = {}  # the alpha formulas share []false, the <>^k chains and the escape box
    base_worlds = kripke._mask(position, base.frame.worlds & extended.frame.worlds)
    violations = []
    for m in range(1, ctx.var_count + 1):
        satisfied = kripke._eval_masks(alpha(m), {}, extended.frame._pred, memo)
        holders = kripke._mask(position, base.valuation.get(m, frozenset()) & extended.frame.worlds)
        wrong = (full & ~satisfied) ^ (base_worlds & ~holders)
        violations.extend((order[i], m) for i in kripke._bits(wrong))
    return violations

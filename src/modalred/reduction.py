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
      constraint away from gadget worlds);
  (6) at level exactly n the matrix holds.

``alpha(k)`` is the variable-free ladder formula that is refutable at a world
exactly when a fresh copy of the k-rung gadget hangs below it; substituting
alpha(1)..alpha(2n+2) for p_1..p_{2n+2} (``encode_alpha``) removes all
variables while preserving satisfiability.  ``quantifier_tree`` and
``extend_model`` build the witness models for the two directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    MNot,
    MTrue,
    MVar,
    ModalFormula,
    MOr,
    QAnd,
    QbfFormula,
    QExists,
    QFalse,
    QForall,
    QImp,
    QOr,
    QVar,
    _fold,
    _require_int,
    conj,
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
    prefix, matrix = prenex_split(f)
    if not is_prenex(matrix):  # the matrix is prenex when it holds no quantifier
        raise ValueError("encoding input must be prenex")
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


# conjuncts (1)-(5) and the level-n test of each quantifier prefix, and the
# modal copy of each matrix node, built once per process: the star encodings
# of one prefix differ in conjunct (6) alone
_PREFIXES: dict = {}
_MATRICES: dict = {}


def encode_star(f: QbfFormula) -> tuple[ModalFormula, EncodingContext]:
    """The six-conjunct modal encoding of a closed prenex QBF.

    Depth sugar is kept as box<= / box^ nodes so dumps show the intended
    shape; model checking evaluates it in place, and expand_sugar flattens
    it for the tableau and size counting.
    """
    ctx = prepare_context(f)
    shared = _PREFIXES.get(ctx.quantifiers)
    if shared is None:
        shared = _PREFIXES[ctx.quantifiers] = _prefix_conjuncts(ctx)
    *conjuncts, level_n = shared
    c6 = MBoxPow(ctx.n, MImp(level_n, _fold(ctx.matrix, _matrix_to_modal, _MATRICES)))
    return MAnd((*conjuncts, c6)), ctx


def _prefix_conjuncts(ctx: EncodingContext) -> tuple[ModalFormula, ...]:
    """Conjuncts (1)-(5) of ``ctx``'s encoding and its level-n test, which
    depend on the quantifier prefix alone."""
    n = ctx.n

    def q(i: int) -> ModalFormula:
        return MVar(ctx.q_index(i))

    def p(i: int) -> ModalFormula:
        return MVar(i)

    def at_level(i: int) -> ModalFormula:
        return MAnd((q(i), MNot(q(i + 1))))

    c1 = MAnd((q(0), MNot(q(1))) + tuple(MNot(p(i)) for i in range(1, n + 1)))
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
                            MDia(MAnd((q(i), MNot(q(i + 1)), p(i)))),
                            MDia(MAnd((q(i), MNot(q(i + 1)), MNot(p(i))))),
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
        return MAnd((q(i + 1), MNot(q(n + 1))))

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
                                    MImp(MNot(p(j)), MBox(MImp(guard(i), MNot(p(j)))))
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
    return c1, c2, c3, c4, c5, at_level(n)


# alpha(k) by k, built once per process; a ladder is a hash-consed node, so
# the table hands out the node that building it again would give.  F_m by m
# likewise: every call of frame_fm and every F_m block of an extended model
# reads the one frame
_LADDERS: dict = {}
_GADGETS: dict = {}


def alpha(k: int) -> ModalFormula:
    """The variable-free ladder formula
    [](<>^k []false & ~<>^{k+1} []false -> [](<>true -> <>[]false))."""
    _require_int("alpha index", k)  # before the lookup: True == 1 would find alpha(1)
    ladder = _LADDERS.get(k)
    if ladder is None:
        blind = MBox(MFalse())

        def dias(count: int, body: ModalFormula) -> ModalFormula:
            for _ in range(count):
                body = MDia(body)
            return body

        rung = MAnd((dias(k, blind), MNot(dias(k + 1, blind))))
        escape = MBox(MImp(MDia(MTrue()), MDia(blind)))
        ladder = _LADDERS[k] = MBox(MImp(rung, escape))
    return ladder


def encode_alpha(f: QbfFormula) -> ModalFormula:
    """Variable-free encoding: encode_star with alpha(i) substituted for
    every variable p_i of the encoding."""
    star, ctx = encode_star(f)
    return substitute(star, {i: alpha(i) for i in range(1, ctx.var_count + 1)})


# ---------------------------------------------------------------------------
# Witness models
# ---------------------------------------------------------------------------


def quantifier_tree(f: QbfFormula) -> KripkeModel:
    """Witness tree for a true formula: branch on A, choose on E.

    Worlds are classical assignments; each level resolves one quantifier.
    The valuation covers both the assignment variables (p_k true where the
    assignment holds it) and the renamed level markers (q_i true at levels
    >= i), so the result model-checks encode_star at its root.  The choices
    are ``_tree_choices(f)``, taken in the same pre-order.
    """
    ctx = prepare_context(f)
    choices = iter(_tree_choices(f))
    n = ctx.n
    worlds: list[BaseWorld] = []
    edges: list[tuple[BaseWorld, BaseWorld]] = []
    # (the suffix Q_{level+1} ... matrix, level, assignment, parent world);
    # worlds are numbered as they are popped, in pre-order
    stack = [(f, 0, frozenset(), None)]
    while stack:
        g, level, assignment, parent = stack.pop()
        w = BaseWorld(level, assignment, len(worlds))
        worlds.append(w)
        if parent is not None:
            edges.append((parent, w))
        if level == n:
            continue
        children = [assignment, assignment | {g.index}]
        if isinstance(g, QExists):
            children = [children[next(choices)]]
        stack.extend((g.body, level + 1, a, w) for a in reversed(children))
    frame = KripkeFrame(frozenset(worlds), edges)
    valuation: dict[int, frozenset[BaseWorld]] = {}
    for k in range(1, n + 1):
        valuation[k] = frozenset(w for w in worlds if k in w.assignment)
    for i in range(n + 2):
        valuation[ctx.q_index(i)] = frozenset(w for w in worlds if w.level >= i)
    return KripkeModel(frame, valuation, worlds[0])


def _tree_choices(f: QbfFormula) -> tuple[bool, ...]:
    """The child each existential world of the quantifier tree of the true
    prenex ``f`` keeps, in pre-order: False for the one without the
    variable, preferred when both work, True for the one with it.  They are
    read off the truth tables ``is_true_qbf(f)`` has just built.  With the
    prefix they fix the tree: A branches twice, E keeps one child, and the
    valuation follows from the assignments and levels."""
    tables, weight = _truth_tables(f, frozenset())
    if not tables[f] & 1:
        raise ValueError("quantifier tree exists only for true formulas")
    choices = []
    stack = [(f, 0)]  # (the suffix below a world, its table bit)
    while stack:
        g, bit = stack.pop()
        if isinstance(g, QForall):
            stack += [(g.body, bit | weight[g.index]), (g.body, bit)]
        elif isinstance(g, QExists):
            choices.append(not tables[g.body] >> bit & 1)
            stack.append((g.body, bit | weight[g.index] if choices[-1] else bit))
    return tuple(choices)


def _gadget_edges(m: int):
    """Worlds and raw (pre-closure) edges of F_m."""
    a = [GadgetWorld(m, f"a{i}") for i in range(m + 1)]
    b = GadgetWorld(m, "b")
    worlds = [b, *a]
    edges = [(a[0], b), (b, b)]
    edges += [(a[i], a[i + 1]) for i in range(m)]
    return worlds, edges, a[0]


def frame_fm(m: int) -> KripkeFrame:
    """The gadget frame F_m: an irreflexive ladder a_0 -> ... -> a_m with a
    reflexive side world b below a_0, transitively closed."""
    _require_int("gadget index", m)  # before the lookup: True == 1 would find F_1
    frame = _GADGETS.get(m)
    if frame is None:
        worlds, edges, _ = _gadget_edges(m)
        frame = _GADGETS[m] = close(KripkeFrame(frozenset(worlds), edges), "transitive")
    return frame


def frame_fm_plus(m: int) -> KripkeFrame:
    """F_m plus the reflexive entry world c_m with c_m -> a_0."""
    _require_int("gadget index", m)
    worlds, edges, a0 = _gadget_edges(m)
    c = GadgetWorld(m, "c")
    worlds = [*worlds, c]
    edges = [*edges, (c, c), (c, a0)]
    return close(KripkeFrame(frozenset(worlds), edges), "transitive")


def extend_model(base: KripkeModel, ctx: EncodingContext, table: Optional[dict] = None) -> KripkeModel:
    """Add one F_m block, for every m = 1..2n+2 that some base world lacks,
    seen by exactly the base worlds where p_m is false, with the whole
    relation transitively closed.

    The paper hangs a fresh F_m copy below each such world instead.
    Forgetting the copies' hosts is a bounded morphism from that model onto
    this one, so both satisfy the same modal formulas at each base world
    (Blackburn, de Rijke & Venema, Modal Logic, 2001, section 2.1).  The
    base valuation must be upward persistent (true variables stay true
    along edges); that is what confines each alpha_m refutation to exactly
    the base worlds refuting p_m.

    The extension depends on ``base`` and ``ctx.var_count`` alone: a
    ``table`` dict keeps it under that pair, so equal bases share one model
    and the masks its frame keeps.  Without one, nothing is retained.
    """
    if table is None:
        return _extend(base, ctx)
    key = (base, ctx.var_count)
    extended = table.get(key)
    if extended is None:
        extended = table[key] = _extend(base, ctx)
    return extended


def _extend(base: KripkeModel, ctx: EncodingContext) -> KripkeModel:
    """``extend_model`` without a table.

    The closed frame is written row by row, never built from pairs and
    closed afterwards.  Each F_m is one block after the base worlds, in id
    order: the worlds, ids and rows of ``frame_fm(m)``, the rows shifted to
    the block's start.  A base world sees its reach in the base frame and
    every F_m whose p_m fails at it.  Where p_m fails in a world's reach,
    persistence makes it fail at the world too, so the rows are closed.
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
    full = (1 << len(base_worlds)) - 1
    order, ids = list(base_worlds), list(base_ids)
    rows = kripke._close_rows(list(base_frame.succ))
    # no gadget world sees a base world: a base world's predecessors are
    # those of the closed base rows
    pred = list(kripke._transpose(rows))
    # the blocks in id order: gadget:m10: sorts before gadget:m1:
    for m in sorted(range(1, ctx.var_count + 1), key=lambda m: f"gadget:m{m}:"):
        lacking = full & ~holders.get(m, 0)
        if not lacking:
            continue
        gadget, start = frame_fm(m), len(order)
        order += gadget.order
        ids += gadget.ids
        rows += [row << start for row in gadget.succ]
        pred += [row << start | lacking for row in gadget._pred]
        block = ((1 << len(gadget.order)) - 1) << start
        for i in kripke._bits(lacking):
            rows[i] |= block
    position = {w: i for i, w in enumerate(order)}
    # the frozenset reuses the hashes the position dict stored
    frame = KripkeFrame.__new__(KripkeFrame)._fill(
        frozenset(position), tuple(order), position, tuple(rows), tuple(ids), tuple(pred)
    )
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
    base_worlds = kripke._mask(position, base.frame.worlds & extended.frame.worlds)
    violations = []
    for m in range(1, ctx.var_count + 1):
        # alpha(m) is variable-free: the frame's table shares it, and every
        # subformula, with the alpha encoding checked on the same frame
        satisfied = kripke._model_mask(extended, alpha(m))
        holders = kripke._mask(position, base.valuation.get(m, frozenset()) & extended.frame.worlds)
        wrong = (full & ~satisfied) ^ (base_worlds & ~holders)
        violations.extend((order[i], m) for i in kripke._bits(wrong))
    return violations

"""K-satisfiability: a tableau decision procedure and a bounded-model oracle.

``sat_k_tableau`` is a single-branch depth-first tableau with on-the-fly
successor generation: saturate a world label propositionally (conjunctions
first, then disjunctions, ties broken by subformula position), then branch on
the lowest open disjunction, or with none open spawn one successor per diamond,
carrying the boxed formulas.  A refuted label returns its core, the bits of
the label that its refutation used, and a branch whose first side is refuted
by a core without that side is refuted by that core alone: the search jumps
back over the rest of the branch (dependency-directed backjumping, Horrocks
& Patel-Schneider, J. Logic Comput. 9(3), 1999).  Sound and complete for K
over finite tree models; satisfiable verdicts come with a shared (DAG) witness
whose depth is at most the modal depth of the query.  One memo table, keyed by
saturated state, answers a label whose saturation reaches a state met before
without searching it again, so repeated sub-labels (ubiquitous in the ladder
encodings) are searched once.  A stored core of two bits is a nogood: a state
that misses the memo but holds both bits of one is refuted by it without a
search (Giunchiglia & Tacchella, Ann. Math. Artif. Intell. 33, 2001).  A
diamond's successor label is looked up before it is saturated, among the
successors of the same diamond searched before it: one decided satisfiable
that contains the label answers with its result, since a world that
satisfies a set of formulas satisfies every subset of it, and a refuted
one's core that the label contains refutes it (subsumption, Giunchiglia &
Tacchella, and Horrocks & Patel-Schneider, as above).  A memo, nogood or
subsumption hit still counts as a search node.  A branch child does not
saturate its label from scratch: it resumes from its parent's saturated
state, and a disjunction pass reads only the disjunctions that a bit seen
since the last pass is a side or a negated side of, as a watched clause is
read only when one of its watched literals falls (Moskewicz et al., "Chaff",
DAC 2001).  The memo, the nogoods, the successor lists and the bit numbering
make a ``TableauContext``: a lone query gets a fresh one, and queries that
share one reuse each other's states and successors, since in K whether a set
of formulas is satisfiable does not depend on the query it came from.  A
satisfiable state's result is a pair (true variables, children), and a memo
or subsumption hit hands back a stored pair, so the results form a DAG; the
witness has one world per distinct result.  Both engines return only
what their witness is built from: ``SatVerdict.witness`` builds the model the
first time it is read, so a verdict whose witness nobody reads builds none.
Labels are bit sets: one explicit-stack pass numbers the query's NNF in
depth-first pre-order (which fixes which disjunction is branched on and the
diamond order), and saturation reads one mask per formula kind.  What that
pass reads depends on each formula alone, so it is kept in process-wide
tables keyed by hash-consed node, like ``syntax._EXPAND_MEMO``, and built at
most once per process: the negation normal forms of a formula and of its
negation (one ``syntax._fold`` step gives both), the mark of the formulas
that may spawn a successor world (a diamond in their propositional top
level, a second fold), and one record per NNF formula with its kind, its
successors and its side order.  A disjunction whose left side may spawn and
whose right side may not is branched right side first, so the search tries
the side that builds no world before the one that does (the choice of
branch, Horrocks & Patel-Schneider, J. Logic Comput. 9(3), 1999).  In the
variable-free encoding that side is the box of a negated ladder, and the
order cuts the search several times over.  The numbering, the memo, the
nogoods and the successor lists belong to the context, the budget and the
counters to one query.
Nothing in this module recurses: the search is one loop over explicit
frames, one per label between the root and the label being searched.  A
branch frame waits for a side of its disjunction, a diamond frame for the
child of its current diamond, so a formula nested or branching far past the
interpreter's recursion limit gets an answer.

``sat_bounded`` is the independent oracle: an exhaustive search for a pointed
model with at most ``max_worlds`` worlds, run as a propositional encoding of
the satisfaction relation under a small deterministic conflict-driven
search.  Satisfiable verdicts are absolute; unsatisfiable ones only mean "no
model within the bound".  Each subformula is defined by its polarity
(Plaisted & Greenbaum, J. Symb. Comput. 2(3), 1986): the root occurs
positively, ``~`` and the left side of ``->`` flip the polarity, and the
truth bit t of a node that occurs only positively implies its definition,
the definition implies the t of one that occurs only negatively, and a node
that occurs both ways gets both halves.  So a model's truth bits need not be
the truths of their formulas, but its valuation and relation satisfy the
query.  A positive box is one clause per relation pair, ~t@i | ~R(i, j) |
body@j, and a negative diamond its dual; only a positive diamond or a
negative box must find a successor, and only it gets an auxiliary x per
pair (x -> R(i, j), x -> body@j, or ~body@j for a box) and a closing clause
over them.  The CNF grows one world at a time under one search, and each
world numbers its own variables (``_Layout``).  World w adds its
definitions, the per-pair clauses and auxiliaries of every pair that
involves it, which hold at any bound.  Only the closing clauses (t@i -> OR x
for a diamond, ~t@i -> OR x for a box, over j < k) depend on the world
count k: those of k = w + 1 are guarded by a selector s_w, the unit
~s_{w-1} switches off the ones before, and the search assumes s_w at level
1 (Eén & Sörensson, ENTCS 89(4), 2003), so what it learned at smaller k
carries over.  It decides the variables of the first k worlds in the
order a one-shot encoding of k worlds numbers them, ``False`` first, and
counts decisions only.  Unit propagation watches two literals per clause
(Moskewicz et al., "Chaff", DAC 2001).  A conflict is analysed to its first
unique implication point and learned, and the search jumps back to the
level where that clause asserts (Marques-Silva & Sakallah, "GRASP", IEEE
Trans. Comput. 48(5), 1999; Zhang et al., ICCAD 2001); no restarts, no
clause deletion.  Learned clauses follow from the CNF, so the model found
is the lexicographically first model of k's encoding, the one a
chronological DPLL finds with far more decisions.  Worlds 1 .. k-1 are
interchangeable, and swap clauses break that symmetry (lex-leader, Crawford
et al., KR 1996): the truth column of each non-root world w - 1 is
lexicographically at most that of w, in decision order.  Swapping two
non-root worlds of the first model gives a model, no smaller, whose first
changed truth bit is one of world w - 1; so that bit is ``False`` in the
first model, which satisfies the swap clauses: they prune only later
models, and the witness stays the same.  The search is one loop and does
not recurse however deep it goes.
"""

from __future__ import annotations

import collections
import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from .kripke import BaseWorld, KripkeModel, _assigned_model, _bits
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
    _require_int,
    expand_sugar,
    modal_vars,
)

__all__ = [
    "SatVerdict",
    "SolverBudgetError",
    "TableauContext",
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
    bound-relative.  ``nodes`` and ``depth`` are search statistics;
    ``memo_hits`` counts the tableau's label visits whose saturated state
    its memo table answered, ``nogood_hits`` those whose state missed the
    memo but held a stored two-bit core, and ``subsumption_hits`` the
    successor labels that a stored successor of the same diamond answered
    before saturation (all three are counted in ``nodes`` too);
    ``branches`` counts the labels that branched on a disjunction and
    ``backjumps`` those of them refuted by their first side's core alone.
    All five stay 0 for the bounded engine.  ``witness`` is the model of a
    satisfiable query (None otherwise), built by the engine's ``build`` the
    first time it is read; later reads return the same model.
    """

    satisfiable: bool
    engine: str
    bound: Optional[int]
    nodes: int
    depth: int
    memo_hits: int = 0
    branches: int = 0
    backjumps: int = 0
    nogood_hits: int = 0
    subsumption_hits: int = 0
    build: Optional[Callable[[], KripkeModel]] = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def witness(self) -> Optional[KripkeModel]:
        return self.build() if self.satisfiable else None

    @property
    def conclusive(self) -> bool:
        """Whether an unsatisfiable verdict rules out all models."""
        return self.engine == "tableau" or self.satisfiable


class SolverBudgetError(Exception):
    """Node budget exhausted; the query outcome is unknown, never guessed."""


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------


def _nnf_step(f, kids) -> tuple[ModalFormula, ModalFormula]:
    """The negation normal forms of ``f`` and of ``~f`` from those of the
    children of ``f``: one ``syntax._fold`` step."""
    if isinstance(f, MVar):
        return f, MNot(f)
    if isinstance(f, MFalse):
        return f, MTrue()
    if isinstance(f, MTrue):
        return f, MFalse()
    if isinstance(f, MNot):
        return kids[0][::-1]
    if isinstance(f, MAnd):
        negation = kids[0][1]
        for _, g in kids[1:]:
            negation = MOr(negation, g)
        return MAnd(tuple(g for g, _ in kids)), negation
    if isinstance(f, (MOr, MImp)):
        (left, not_left), (right, not_right) = kids
        if isinstance(f, MImp):
            left, not_left = not_left, left
        return MOr(left, right), MAnd((not_left, not_right))
    if isinstance(f, MBox):
        return MBox(kids[0][0]), MDia(kids[0][1])
    if isinstance(f, MDia):
        return MDia(kids[0][0]), MBox(kids[0][1])
    raise TypeError(f"unexpanded or non-modal node: {f!r}")


def _spawn_step(f, kids) -> bool:
    """Whether the NNF formula ``f`` may spawn a successor world: a diamond
    in its propositional top level, reached through conjuncts and both sides
    of a disjunction but never into a box or diamond body.  One
    ``syntax._fold`` step."""
    return isinstance(f, MDia) or isinstance(f, (MAnd, MOr)) and any(kids)


# Process-wide tables keyed by hash-consed node, which grow with the pool as
# ``syntax._EXPAND_MEMO`` does: the NNF pair of every formula, the may-spawn
# mark of every NNF formula, and the record of every NNF formula a tableau
# has numbered.
_NNF_MEMO: dict = {}
_SPAWN_MEMO: dict = {}
_RECORDS: dict = {}

# The kind of an NNF formula, the index of its mask in ``_Tableau``; ``MTrue``
# is of no kind that saturation reads.
_NOT, _VAR, _AND, _OR, _BOX, _DIA, _FALSE, _TRUE = range(8)
_KINDS = {MNot: _NOT, MVar: _VAR, MAnd: _AND, MOr: _OR, MBox: _BOX, MDia: _DIA, MFalse: _FALSE, MTrue: _TRUE}


def _nnf(f: ModalFormula) -> tuple[ModalFormula, ModalFormula]:
    return _fold(f, _nnf_step, _NNF_MEMO)


def _record(f: ModalFormula) -> tuple:
    """(kind, successors in stack order, sides) of the NNF formula ``f``,
    stored in ``_RECORDS``.  The successors are the clashing literal, the
    body, the conjuncts, or both sides of a disjunction and then their
    negations; ``sides`` lists the successors whose bits make the formula's
    ``data``, for a disjunction in the order (first, second, not first, not
    second).  The first side is the left one unless the left side may spawn
    a successor world and the right side may not.  Only ``f`` itself is
    built: a successor gets its record when the numbering reaches it."""
    kind = _KINDS[type(f)]
    if kind == _OR:
        successors = (f.left, f.right, _nnf(f.left)[1], _nnf(f.right)[1])
    elif kind == _AND:
        successors = f.items
    elif kind == _VAR:
        successors = (MNot(f),)
    elif kind in (_FALSE, _TRUE):
        successors = ()
    else:
        successors = (f.body,)
    sides = successors
    if kind == _OR and _fold(f.left, _spawn_step, _SPAWN_MEMO) and not _fold(f.right, _spawn_step, _SPAWN_MEMO):
        sides = (f.right, f.left, successors[3], successors[2])
    record = _RECORDS[f] = (kind, successors[::-1], sides)
    return record


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------

# A context starts afresh before a query joins it when its memo holds more
# than this many states, which bounds its memory and the width of its label
# ints.
_CONTEXT_MEMO_CAP = 8_000


class TableauContext:
    """What the queries that share one context share: the bit numbering, the
    kind masks, ``data``, the watch rows, the memo, the nogoods and the
    successor lists.

    Every formula that can ever enter a label (subformulas of a query's NNF,
    closed under the negations needed for semantic branching) gets a bit;
    labels and saturation states are ints.  ``join`` numbers a query's
    formulas in depth-first pre-order from its root by one walk over their
    records (``_record``): a record fixes a formula's kind, its successors
    and the side order of a disjunction, and depends on the formula alone,
    so it is built once per process and shared by every query, as are the
    NNF pairs it is read from.  A formula numbered by an earlier query keeps
    its bit, and so does everything reachable from it, so the walk stops at
    it: a query extends the numbering with the formulas it has not seen, in
    the order a fresh walk would give them.  ``data`` holds per bit what
    saturation needs, the clashing literal, the body or the conjunct bits,
    or a disjunction's (first, second, not first, not second) side bits,
    and ``watch`` holds per bit the disjunctions that have it as one of
    those four.  One mask per kind (``lits``, ``ands``, ``ors``, ``boxes``,
    ``dias``, ``falses``) tells which bits are of that kind; ``var_bits``
    marks the literals that are variables.

    ``cache`` is the memo, keyed by saturated state (a label with no
    conjunction and no ``false`` bit), which holds a satisfiable state's
    result (a tuple) or a refuted state's core (an int, a non-empty subset
    of the key).  In K a state's satisfiability, a world that witnesses it
    and a core that refutes it do not depend on the query it came from, so
    the memo serves every query of the context (global caching: Goré &
    Nguyen, TABLEAUX 2007; Donini & Massacci, Artif. Intell. 124(1), 2000).
    An entry is only stored for a state decided in full, so a query cut
    short by its budget leaves the context sound.  A stored core of two
    bits is also a nogood: any set of formulas that holds both is refuted.
    ``firsts`` marks the lower bits of those cores and ``partners`` holds,
    per bit, the higher bits it makes a core with, so a state is checked
    with one mask test per lower bit it holds.  Longer cores are not
    indexed: in a context shared by many queries, the ones with the same
    two lowest bits pile up, and scanning them cost more than the nodes
    they saved.

    The successor lists hold, per diamond bit position, the successor
    labels of that diamond (its body and the bodies of the boxes beside it)
    that a search decided.  ``sat_rows`` lists the satisfiable ones with
    their results, and ``sat_ors`` is the OR of those labels, so a label
    with a bit outside it is rejected by one test.  ``core_rows`` lists the
    cores of the refuted ones, each a subset of its label; a core's key bit
    is its highest bit other than the diamond's body, or the body for a
    core of the body alone, and ``core_keys`` is the OR of those key bits,
    so a label that holds none of them is rejected by one test (a key bit
    is one that a label must hold to contain the core; an AND of the cores
    would shrink to the body bit, which every label holds).  A satisfiable
    label answers any label it contains, and a core refutes any label that
    contains it, whatever query stored it.  Entries are stored only for
    successors decided in full.  Before a query joins, the context starts
    afresh, nogoods and successor lists included, when its memo holds more
    than ``_CONTEXT_MEMO_CAP`` states; a fresh context is where every lone
    query starts.
    """

    def __init__(self):
        self.bits: dict = {}  # formula -> bit
        self.formulas: list = []  # bit position -> formula
        self.data: list = []
        self.watch: list = []  # bit position -> the disjunctions it is a side of
        self.masks = [0] * len(_KINDS)
        self.cache: dict = {}  # saturated state -> result or core
        self.firsts = 0  # the lower bits of the two-bit cores
        self.partners: list = []  # bit position -> the higher bits of its cores
        # diamond position -> its satisfiable successor labels with their
        # results, and the OR of those labels; the cores of its refuted
        # successors, and the OR of their key bits
        self.sat_rows: dict = collections.defaultdict(list)
        self.sat_ors: list = []
        self.core_rows: dict = collections.defaultdict(list)
        self.core_keys: list = []
        self._name_masks()

    def _name_masks(self) -> None:
        masks = self.masks
        self.var_bits = masks[_VAR]
        self.lits = masks[_NOT] | masks[_VAR]
        self.ands, self.ors, self.boxes, self.dias, self.falses = masks[_AND:_TRUE]

    def join(self, root: ModalFormula) -> int:
        """Number the formulas of the sugar-free query ``root`` that the
        context lacks, after starting afresh if its memo is over the cap,
        and return the bit of its NNF."""
        if len(self.cache) > _CONTEXT_MEMO_CAP:
            self.__init__()
        bits, formulas, masks = self.bits, self.formulas, self.masks
        start = len(formulas)
        nnf = _nnf(root)[0]
        stack = [nnf]
        while stack:
            f = stack.pop()
            if f not in bits:  # a numbered formula's closure is numbered
                kind, successors, _ = _RECORDS.get(f) or _record(f)
                bit = bits[f] = 1 << len(formulas)
                masks[kind] |= bit
                formulas.append(f)
                stack.extend(successors)
        data, watch = self.data, self.watch
        watch += [0] * (len(formulas) - start)
        self.partners += [0] * (len(formulas) - start)
        self.sat_ors += [0] * (len(formulas) - start)
        self.core_keys += [0] * (len(formulas) - start)
        for f in formulas[start:]:
            kind, _, sides = _RECORDS[f]
            sides = tuple(map(bits.get, sides))
            if kind == _OR:
                data.append(sides)
                bit = bits[f]
                for side in sides:
                    watch[side.bit_length() - 1] |= bit
            else:
                data.append(functools.reduce(operator.or_, sides, 0))
        self._name_masks()
        return bits[nnf]


class _Tableau:
    """Bit-level tableau search for one query over a ``TableauContext``.

    Saturation drains conjunctions, checks newly seen literals for clashes,
    and unit-propagates disjunctions whose one side is already refuted; then
    the search branches on the lowest-bit open disjunction at once, first on
    its first side, then on the negated first side with the second.  A
    label with no open disjunction spawns a child per diamond in bit order,
    and its children make its result.  Saturation reads the sides
    symmetrically, so the side order moves only the branch order.

    A refuted label answers with its core, the bits of the label that its
    refutation used (dependency-directed backjumping, Horrocks &
    Patel-Schneider, J. Logic Comput. 9(3), 1999).  Saturation records, for
    the bits it derives, the seen bits they came from: a conjunct comes from
    its conjunction, a forced side from its disjunction and the negated
    side that killed it.  A clash, a ``false`` or a dead disjunction is
    refuted by the bits involved, traced back to the label's own
    (``_lift``).  A refuted diamond child refutes the label by the diamond
    and the boxes whose bodies the child's core used; the diamond is always
    in it, since boxes alone spawn no world.  If the first side's core does
    not hold that side, the core refutes the label alone, and the second
    side is skipped: a backjump.  A refutation already visible before a
    branch, such as a diamond that fails beside the boxes, has a core
    without the branch's sides, so every branch above it backjumps.  A
    second side's core that holds neither the negated first side nor the
    second refutes the label alone too; otherwise the label's core is the
    two cores less their sides' bits, with the disjunction.  Backjumping
    skips work only under labels refuted anyway, so a query gets the verdict
    of the search that tries every branch.  A satisfiable label's result no
    longer depends on its saturated state alone: a successor label may get
    the result of a larger one stored before it, so the witness depends on
    what the search, and the queries before it in the context, stored.  It
    is a model all the same, and the same search gives the same witness.

    ``solve`` is one loop.  For each label it counts the node (budget and
    depth included), saturates the label and looks its saturated state up
    in the context's memo, which holds the outcome of every state searched
    in full: a core in the state's bits, traced back to the label's on the
    way out.  A label met again saturates to the same state, so the state
    alone is the key; a refutation found while saturating depends on the
    label and is not stored.  A state the memo misses is refuted by a
    stored two-bit core it holds, if any, and that answer is not stored
    either.  ``memo_hits`` counts the states the memo answered,
    ``nogood_hits`` those a nogood refuted, ``subsumption_hits`` the
    successor labels that the successor lists answered, ``branches`` the
    labels that branched and ``backjumps`` those of them that backjumped.
    The tableau holds only its context and its query's budget and counters;
    the loop keeps the tables and the counts in locals and writes the
    counters back when it returns or raises.

    Any other label pushes a frame and hands its first child to the loop.
    A branch frame holds the state, its steps, the disjunction, its first
    side, the second side's bits (the negated first side and the second),
    the open disjunctions handed on and, once known, the first side's core.
    A diamond frame holds the state, its steps, the children so far, the
    current diamond, those still to visit, the boxes and their bodies.  A
    child's result goes to the top frame, which backjumps, tries its second
    side, refutes by its diamond and boxes, or takes its next diamond; a
    frame that is done stores its result under its state and is popped, and
    its result goes on, lifted, to the frame below.

    A diamond frame forms its child's label, the diamond's body and the
    boxes' bodies, when it is pushed and when it takes its next diamond.
    Before the label is counted or saturated, the frame looks it up in the
    context's successor lists of that diamond: the latest stored satisfiable
    label that contains it answers with its result, or else the first stored
    core that it contains refutes it by that core, which is in label bits
    already, so the frame's box loop lifts it unchanged.  A hit counts as a
    node and goes straight to the frame; it is not stored again.  The frame
    stores the result of every child it searched: a satisfiable label with
    its result, or a refuted one's core.  The lookup is made only where a
    successor label is formed, not at every node, so a label of a branch
    pays nothing for it.  The satisfiable lists are scanned latest first: in
    a context shared by many queries, the latest labels are the current
    query's, and the first stored superset lay about 75 entries deep where
    the latest lies about one (on ``verify``'s n = 1 instances).

    A branch child's label is its parent's saturated state plus one side's
    bits.  Saturating that state again finds no clash, no conjunction and
    no disjunction to drop or force, so the child starts from it, with the
    parent's open disjunctions and only the side's bits pending.  Both sides
    satisfy the disjunction branched on, so it is not handed on.  A
    disjunction pass reads, in bit order, the disjunctions that are new
    since the last pass or that a bit seen since then is a side bit of; every
    other open disjunction stays open, as nothing it reads has changed.  So
    the saturated state, the steps and every core equal those of saturating
    the label from scratch.  A diamond child starts a new world and
    saturates from scratch.
    """

    def __init__(self, context: TableauContext, budget: int):
        self.context = context
        self.budget = budget
        self.nodes = 0
        self.max_depth = 0
        self.memo_hits = 0
        self.branches = 0
        self.backjumps = 0
        self.nogood_hits = 0
        self.subsumption_hits = 0

    def solve(self, root: int):
        """(true variables, children) if the label ``root`` is satisfiable,
        else its core: the bits of the label that its refutation used, a
        non-zero int."""
        context = self.context
        data, watch, partners, formulas = context.data, context.watch, context.partners, context.formulas
        lits, falses, ands, or_bits = context.lits, context.falses, context.ands, context.ors
        box_bits, dia_bits, var_bits = context.boxes, context.dias, context.var_bits
        kept = lits | box_bits | dia_bits  # with the open disjunctions, what a saturated state keeps
        cache = context.cache
        lookup = cache.get
        firsts = context.firsts
        sat_rows, sat_ors = context.sat_rows, context.sat_ors
        core_rows, core_keys = context.core_rows, context.core_keys
        budget = self.budget
        nodes = max_depth = memo_hits = branches = backjumps = nogood_hits = subsumption_hits = 0
        stack = []  # the frames of the labels between the root and the next one
        # the next label is ``seen | mask``, resumed with the open disjunctions ``ors``
        mask, seen, ors, depth = root, 0, 0, 0
        hit = False  # whether the result handed on is a stored successor's

        def subsumed(label, i):
            """The stored answer for ``label``, a successor of the diamond at
            bit position ``i``: the result of the latest stored satisfiable
            one that contains it, or else the core of the first stored
            refuted one that it contains; else None."""
            stored = sat_ors[i]
            if label | stored == stored:
                for stored, result in reversed(sat_rows[i]):
                    if label | stored == stored:
                        return result
            if label & core_keys[i]:
                for core in core_rows[i]:
                    if core | label == label:
                        return core
            return None

        try:
            while True:
                nodes += 1
                if nodes > budget:
                    raise SolverBudgetError(f"tableau node budget of {budget} exhausted")
                if depth > max_depth:
                    max_depth = depth
                steps = []  # (bits derived, the seen bits they came from), in order
                fresh = 0  # the bits seen since the last disjunction pass
                pending = mask
                clash = 0
                while pending:
                    while pending:
                        seen |= pending
                        fresh |= pending
                        clash = pending & falses
                        if clash:
                            break
                        m = pending & lits
                        while m:
                            low = m & -m
                            m ^= low
                            clash = seen & data[low.bit_length() - 1]
                            if clash:
                                clash |= low
                                break
                        if clash:
                            break
                        ors |= pending & or_bits
                        m = pending & ands
                        pending = 0
                        while m:
                            low = m & -m
                            m ^= low
                            new = data[low.bit_length() - 1] & ~(seen | pending)
                            if new:
                                pending |= new
                                steps.append((new, low))
                    if clash:
                        break
                    # only a new disjunction or one that a fresh bit is a side
                    # or a negated side of can change; every other open one
                    # stays open
                    m = ors & fresh
                    if m != ors:
                        while fresh:
                            i = fresh.bit_length() - 1
                            m |= watch[i]
                            fresh ^= 1 << i
                        m &= ors
                    fresh = 0
                    keep = ors ^ m
                    while m:
                        low = m & -m
                        m ^= low
                        left, right, not_left, not_right = data[low.bit_length() - 1]
                        if seen & (left | right):
                            continue  # satisfied, drop
                        left_dead = seen & not_left
                        right_dead = seen & not_right
                        if left_dead and right_dead:
                            clash = low | left_dead | right_dead
                            break
                        if left_dead:
                            if not pending & right:
                                pending |= right
                                steps.append((right, low | left_dead))
                        elif right_dead:
                            if not pending & left:
                                pending |= left
                                steps.append((left, low | right_dead))
                        else:
                            keep |= low
                    if clash:
                        break
                    ors = keep
                if clash:
                    result = _lift(clash, steps)
                else:
                    state = seen & kept | ors
                    result = lookup(state)
                    if result is not None:
                        memo_hits += 1
                        if result.__class__ is int:
                            result = _lift(result, steps)
                    else:
                        m = state & firsts
                        while m:
                            low = m & -m
                            m ^= low
                            second = state & partners[low.bit_length() - 1]
                            if second:
                                nogood_hits += 1
                                result = _lift(low | second & -second, steps)
                                break
                        else:
                            if ors:
                                # both sides satisfy the disjunction, so the
                                # children get the open ones without it
                                branches += 1
                                low = ors & -ors
                                first, second, not_first, _ = data[low.bit_length() - 1]
                                ors ^= low
                                stack.append([state, steps, None, low, first, not_first | second, ors, 0])
                                mask, seen = first, state
                                continue
                            m = state & dia_bits
                            if not m:
                                true_vars = frozenset(formulas[i].index for i in _bits(state & var_bits))
                                result = cache[state] = (true_vars, ())
                            else:
                                boxes = state & box_bits
                                bodies = 0
                                b = boxes
                                while b:
                                    i = b.bit_length() - 1
                                    bodies |= data[i]
                                    b ^= 1 << i
                                low = m & -m
                                stack.append([state, steps, [], low, m ^ low, boxes, bodies])
                                depth += 1
                                i = low.bit_length() - 1
                                mask = data[i] | bodies
                                result = subsumed(mask, i)
                                if result is None:
                                    seen = ors = 0
                                    continue
                                # a stored successor answers the child: a
                                # node, whose answer goes to the diamond frame
                                nodes += 1
                                if nodes > budget:
                                    raise SolverBudgetError(f"tableau node budget of {budget} exhausted")
                                if depth > max_depth:
                                    max_depth = depth
                                subsumption_hits += 1
                                hit = True
                # hand the result to the frames above, the latest first, until
                # one of them has another label to search
                while stack:
                    frame = stack.pop()
                    children = frame[2]
                    if children is None:  # a branch frame: [state, steps, None, low, first, added, ors, core]
                        if result.__class__ is int:
                            core = frame[7]
                            if core:
                                # a second side refuted without its own bits refutes alone
                                added = frame[5]
                                if result & added:
                                    result = core | result & ~added
                            elif result & frame[4]:
                                frame[7] = result & ~frame[4] | frame[3]
                                stack.append(frame)
                                mask, seen, ors = frame[5], frame[0], frame[6]
                                break
                            else:
                                # the first side's refutation holds without it: backjump
                                backjumps += 1
                    else:  # a diamond frame: [state, steps, children, low, rest, boxes, bodies]
                        i = frame[3].bit_length() - 1
                        if hit:
                            hit = False  # stored already
                        elif result.__class__ is int:
                            core_rows[i].append(result)
                            # a core's key bit, one a label must hold to
                            # contain it: its highest bit besides the body
                            key = result & ~data[i] or result
                            core_keys[i] |= 1 << key.bit_length() - 1
                        else:
                            label = data[i] | frame[6]
                            sat_rows[i].append((label, result))
                            sat_ors[i] |= label
                        if result.__class__ is int:
                            # the diamond and the boxes whose bodies the child's
                            # core used; boxes alone spawn no world, so the
                            # diamond stays
                            core = frame[3]
                            b = frame[5]
                            while b:
                                i = b.bit_length() - 1
                                box = 1 << i
                                if result & data[i]:
                                    core |= box
                                b ^= box
                            result = core
                        else:
                            children.append(result)
                            m = frame[4]
                            if m:
                                low = frame[3] = m & -m
                                frame[4] = m ^ low
                                stack.append(frame)
                                i = low.bit_length() - 1
                                mask = data[i] | frame[6]
                                result = subsumed(mask, i)
                                if result is None:
                                    seen = ors = 0
                                    break
                                nodes += 1
                                if nodes > budget:
                                    raise SolverBudgetError(f"tableau node budget of {budget} exhausted")
                                subsumption_hits += 1
                                hit = True
                                continue
                            true_vars = frozenset(formulas[i].index for i in _bits(frame[0] & var_bits))
                            result = (true_vars, tuple(children))
                        depth -= 1
                    cache[frame[0]] = result
                    if result.__class__ is int:
                        rest = result & (result - 1)
                        if rest and not rest & (rest - 1):  # a core of two bits is a nogood
                            low = result ^ rest
                            firsts |= low
                            partners[low.bit_length() - 1] |= rest
                        result = _lift(result, frame[1])
                else:
                    return result
        finally:
            context.firsts = firsts
            self.nodes, self.max_depth, self.memo_hits = nodes, max_depth, memo_hits
            self.branches, self.backjumps, self.nogood_hits = branches, backjumps, nogood_hits
            self.subsumption_hits = subsumption_hits


def _lift(core: int, steps: list) -> int:
    """The bits of a label that the bits ``core`` of its saturation came
    from: each derived bit is replaced by its origin, latest first."""
    for new, origin in reversed(steps):
        if core & new:
            core = core & ~new | origin
    return core


def _tree_to_model(tree, variables: frozenset[int]) -> KripkeModel:
    """The model with one world per distinct result reachable from ``tree``,
    numbered in depth-first pre-order; a result reached again gets an edge
    to its world, which keeps the depth of its first visit."""
    worlds: list[BaseWorld] = []
    edges: list[tuple[BaseWorld, BaseWorld]] = []
    placed: dict[int, BaseWorld] = {}
    stack = [(tree, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        w = placed.get(id(node))
        if w is None:
            true_vars, children = node
            w = placed[id(node)] = BaseWorld(depth, true_vars, len(worlds))
            worlds.append(w)
            stack.extend((child, w, depth + 1) for child in reversed(children))
        if parent is not None:
            edges.append((parent, w))
    return _assigned_model(worlds, edges, variables)


def sat_k_tableau(
    f: ModalFormula, budget: int = DEFAULT_TABLEAU_BUDGET, context: Optional[TableauContext] = None
) -> SatVerdict:
    """Decide K-satisfiability of ``f``; sound and complete.

    The query searches in ``context`` when one is given, and in a fresh one
    otherwise, so a lone query searches alike whatever ran before it.  In a
    shared context the verdict is the same, but the counters and the
    witness may depend on the queries before it.  Raises SolverBudgetError
    when the node budget runs out, and ValueError when ``budget`` is not a
    positive integer.
    """
    _require_int("budget", budget)
    if context is None:
        context = TableauContext()
    root = context.join(expand_sugar(f))
    tableau = _Tableau(context, budget)
    tree = tableau.solve(root)
    satisfiable = isinstance(tree, tuple)
    build = (lambda: _tree_to_model(tree, modal_vars(f))) if satisfiable else None
    counters = (
        tableau.nodes, tableau.max_depth, tableau.memo_hits, tableau.branches, tableau.backjumps, tableau.nogood_hits,
        tableau.subsumption_hits,
    )
    return SatVerdict(satisfiable, "tableau", None, *counters, build)


# ---------------------------------------------------------------------------
# Bounded-model oracle
# ---------------------------------------------------------------------------


def _subformulas(f: ModalFormula) -> list[ModalFormula]:
    """The distinct subformulas of ``f`` in the order ``syntax._fold``
    combines them: depth-first post-order, ``f`` last."""
    memo: dict = {}
    _fold(f, lambda g, _: g, memo)
    return list(memo)


def _polarities(subs: list[ModalFormula]) -> dict:
    """Bit 1 for each of ``subs`` (``_subformulas`` order) that occurs
    positively, bit 2 for each that occurs negatively (see the module
    docstring); reversed, post-order reaches a node after all its parents."""
    polarity = dict.fromkeys(subs, 0)
    polarity[subs[-1]] = 1
    for g in reversed(subs):
        p = polarity[g]
        flipped = (p & 1) << 1 | p >> 1
        if isinstance(g, MNot):
            polarity[g.body] |= flipped
        elif isinstance(g, MImp):
            polarity[g.left] |= flipped
            polarity[g.right] |= p
        elif isinstance(g, MOr):
            polarity[g.left] |= p
            polarity[g.right] |= p
        elif isinstance(g, MAnd):
            for item in g.items:
                polarity[item] |= p
        elif isinstance(g, (MBox, MDia)):
            polarity[g.body] |= p
    return polarity


class _Layout:
    """The variables and clauses of the growing CNF, numbered world by world.

    Each of ``subs`` (the query's distinct subformulas, in depth-first
    post-order) gets the halves of its definition that its ``polarity``
    needs; the constants keep their unit either way.  ``modal`` numbers the
    positive diamonds and negative boxes, the only nodes with auxiliaries.
    World w's block holds the truth at w of each of ``subs``, the relation
    pairs that involve w ((w, 0) .. (w, w), then (0, w) .. (w - 1, w)), the
    auxiliaries of ``modal`` for them, the selector s_w and the swap
    variables, so the search's arrays grow with the worlds, not with the
    bound.  ``order`` lists the variables of the worlds so far
    as a one-shot encoding of that many worlds numbers them, and
    ``cells[i][j]`` holds the relation variable of (i, j) and the distance
    between its auxiliaries."""

    def __init__(self, subs: list[ModalFormula]):
        self.subs = subs
        self.index = {g: n for n, g in enumerate(subs)}
        self.polarity = polarity = _polarities(subs)
        self.modal: dict = {}
        for g in subs:
            if isinstance(g, (MBox, MDia)) and polarity[g] & (1 if isinstance(g, MDia) else 2):
                self.modal[g] = len(self.modal)
        self.blocks: list[int] = []  # first variable of each world's block
        self.count = self.selector = 0

    def add_world(self) -> list[list[int]]:
        """Number world w, the next one, and return what it adds (see the
        module docstring); the closing clauses are guarded by ``~s_w``, and
        the root (at w = 0) or the unit ``~s_{w-1}`` comes first."""
        subs, index, blocks, polarity = self.subs, self.index, self.blocks, self.polarity
        w, base, size = len(blocks), self.count + 1, len(subs)
        blocks.append(base)
        pairs = [(w, j) for j in range(w + 1)] + [(i, w) for i in range(w)]
        rel, width = base + size, len(pairs)
        self.cells = cells = [
            [(blocks[max(i, j)] + size + (j if i >= j else i + j + 1), 2 * max(i, j) + 1) for j in range(w + 1)]
            for i in range(w + 1)
        ]
        truths = [blocks[i] + n for n in range(size) for i in range(w + 1)]
        self.order = truths + [r + q * d for q in range(len(self.modal) + 1) for row in cells for r, d in row]
        select = rel + width * (len(self.modal) + 1)
        clauses: list[list[int]] = [[-self.selector]] if w else [[base + size - 1]]
        add = clauses.append
        for n, g in enumerate(subs):
            t, positive, negative = base + n, polarity[g] & 1, polarity[g] & 2
            if isinstance(g, MVar):
                pass  # free bit: the valuation itself
            elif isinstance(g, MFalse):
                add([-t])
            elif isinstance(g, MTrue):
                add([t])
            elif isinstance(g, MNot):
                b = base + index[g.body]
                if positive:
                    add([-t, -b])
                if negative:
                    add([t, b])
            elif isinstance(g, MAnd):
                parts = [base + index[item] for item in g.items]
                if positive:
                    clauses += [[-t, b] for b in parts]
                if negative:
                    add([t, *(-b for b in parts)])
            elif isinstance(g, (MOr, MImp)):
                # l -> r is ~l | r: only the sign of the left literal differs
                l = (-1 if isinstance(g, MImp) else 1) * (base + index[g.left])
                r = base + index[g.right]
                if positive:
                    add([-t, l, r])
                if negative:
                    clauses += [[t, -l], [t, -r]]
            elif isinstance(g, (MBox, MDia)):
                # a positive box: t@i -> (rel(i, j) -> body@j) per pair, a
                # negative diamond its dual, at any bound; a positive diamond:
                # x -> rel(i, j) & body@j per pair, a negative box the same
                # with ~body@j, and t@i -> OR x (~t@i for a box) over exactly
                # w + 1 worlds
                sign, body = 1 if isinstance(g, MDia) else -1, index[g.body]
                if (negative if sign > 0 else positive):
                    for p, (i, j) in enumerate(pairs):
                        add([sign * (blocks[i] + n), -(rel + p), -sign * (blocks[j] + body)])
                if g in self.modal:
                    q = self.modal[g] + 1
                    for p, (i, j) in enumerate(pairs):
                        x = rel + q * width + p
                        clauses += [[-x, rel + p], [-x, sign * (blocks[j] + body)]]
                    for i, row in enumerate(cells):
                        add([-sign * (blocks[i] + n), *[r + q * d for r, d in row], -select])
            else:
                raise TypeError(f"unexpanded or non-modal node: {g!r}")
        self.count = self.selector = select
        if w >= 2:
            # the truth column of w - 1 is lexicographically at most that of
            # w; swap variable select + 1 + n means "equal on subs[:n]"
            add([select + 1])
            for n in range(size):
                e, a, b = select + 1 + n, blocks[w - 1] + n, base + n
                clauses += [[-e, -a, b], [-e, a, b, e + 1], [-e, -a, -b, e + 1]]
            self.count += size + 1
        return clauses


class _Search:
    """Deterministic conflict-driven search over a CNF that may grow
    between calls to ``solve`` (see the module docstring).

    ``add`` takes clauses at level 0, where the search rests between calls,
    and drops what level 0 decides for good: a satisfied clause, a false
    literal; a clause left with one literal is asserted.  ``solve`` may
    assume one literal at level 1; a learned clause that asserts at level 0
    takes it back, and it is made again.  A conflict at level 0 makes
    ``consistent`` False for good, one at the assumption's level refutes
    the assumption.  A clause is unit when exactly one of its positions is
    unassigned and the others are false: a repeated literal counts once per
    position."""

    def __init__(self, count: int = 0):
        # value[lit] is the truth of literal lit (None while unassigned), -v
        # indexing from the end; watches[lit] holds the clauses watching lit
        # at position 0 or 1, visited when lit becomes false
        self.value: list[Optional[bool]] = [None]
        self.watches: list[list[list[int]]] = [[]]
        self.level = [0]  # decision level of each assigned variable
        self.reason: list[Optional[list[int]]] = [None]  # clause that implied it
        self.seen = [False]
        self.trail: list[int] = []
        self.consistent = True
        self.decisions = 0
        self.grow(count)

    def grow(self, count: int) -> None:
        """Make room for the variables up to ``count``: the slots of the new
        negative literals go between the positive and the negative ones."""
        extra, n = count + 1 - len(self.level), len(self.level) - 1
        self.value[n + 1:n + 1] = [None] * (2 * extra)
        self.watches[n + 1:n + 1] = [[] for _ in range(2 * extra)]
        self.level += [0] * extra
        self.reason += [None] * extra
        self.seen += [False] * extra

    def add(self, clauses: list[list[int]]) -> None:
        value, watches, trail = self.value, self.watches, self.trail
        head = len(trail)
        for c in clauses:
            if len(c) < 2 or value[c[0]] is not None or value[c[1]] is not None:
                # what holds at level 0 holds for good
                c = [lit for lit in c if value[lit] is not False]
                if any(map(value.__getitem__, c)):
                    continue
                if len(c) < 2:
                    if c:
                        value[c[0]], value[-c[0]] = True, False
                        self.level[abs(c[0])] = 0
                        trail.append(c[0])
                    else:
                        self.consistent = False
                    continue
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        if self.propagate(head, 0) is not None:
            self.consistent = False

    def propagate(self, head: int, depth: int) -> Optional[list[int]]:
        """Assign the unit consequences of trail[head:] at level ``depth``;
        the falsified clause on conflict, else None."""
        value, watches, level, reason, trail = self.value, self.watches, self.level, self.reason, self.trail
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches[false_lit]
            kept = []
            for at, c in enumerate(watching):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                other = c[0]
                if value[other]:
                    kept.append(c)
                    continue
                for pos in range(2, len(c)):
                    lit = c[pos]
                    if value[lit] is not False:
                        c[1], c[pos] = lit, false_lit
                        watches[lit].append(c)
                        break
                else:
                    kept.append(c)
                    if value[other] is False:
                        kept.extend(watching[at + 1:])
                        watches[false_lit] = kept
                        return c
                    value[other], value[-other] = True, False
                    var = abs(other)
                    level[var] = depth
                    reason[var] = c
                    trail.append(other)
            watches[false_lit] = kept
        return None

    def solve(self, order, assumption: int = 0) -> Optional[list[Optional[bool]]]:
        """``value`` at the lexicographically first model over ``order``
        (``False`` first) under ``assumption`` (0 for none), where the search
        then stays; else None, back at level 0."""
        value, level, reason, trail, seen = self.value, self.level, self.reason, self.trail, self.seen
        marks: list[int] = []  # trail length when each level above 0 began
        rank = [len(order)] * len(level)  # position in order, past its end for the rest
        for pos, v in enumerate(order):
            rank[v] = pos
        at = 0  # every variable of order[:at] is assigned
        lit, why = assumption, None  # the next literal to set, and its reason
        while self.consistent:
            if not lit:
                if assumption and not marks:
                    lit = assumption  # back at level 0: assume again
                else:
                    while at < len(order) and value[order[at]] is not None:
                        at += 1
                    if at == len(order):
                        return value
                    self.decisions += 1
                    lit = -order[at]
            if value[lit] is False:
                break  # the assumption is refuted at level 0
            if why is None:
                marks.append(len(trail))  # a decision or the assumption opens a level
            depth = len(marks)
            value[lit], value[-lit] = True, False
            level[abs(lit)] = depth
            reason[abs(lit)] = why
            trail.append(lit)
            conflict = self.propagate(len(trail) - 1, depth)
            lit, why = 0, None
            if conflict is None:
                continue
            if depth <= (1 if assumption else 0):
                # at level 0 the CNF is refuted for good, at 1 the assumption
                self.consistent = depth > 0
                break
            # 1UIP: resolve the conflict clause with the reasons of its
            # current-level literals, latest first, until one of them is left
            learned = [0]  # position 0 is the asserting literal
            open_count = 0
            pos = len(trail)
            clause = conflict
            pivot = 0
            while True:
                for q in clause:
                    v = abs(q)
                    if v != pivot and not seen[v] and level[v]:
                        seen[v] = True
                        if level[v] == depth:
                            open_count += 1
                        else:
                            learned.append(q)
                pos -= 1
                while not seen[abs(trail[pos])]:
                    pos -= 1
                pivot = abs(trail[pos])
                seen[pivot] = False
                open_count -= 1
                if not open_count:
                    break
                clause = reason[pivot]
            learned[0] = -trail[pos]
            back = 0
            for pos in range(1, len(learned)):
                v = abs(learned[pos])
                seen[v] = False
                if level[v] > back:
                    back = level[v]
                    learned[1], learned[pos] = learned[pos], learned[1]
            mark = marks[back]
            for undone in trail[mark:]:
                value[undone] = value[-undone] = None
            at = min(map(rank.__getitem__, map(abs, trail[mark:])))
            del trail[mark:]
            del marks[back:]
            if len(learned) > 1:
                self.watches[learned[0]].append(learned)
                self.watches[learned[1]].append(learned)
            lit, why = learned[0], learned
        mark = marks[0] if marks else len(trail)
        for undone in trail[mark:]:
            value[undone] = value[-undone] = None
        del trail[mark:]
        return None


def sat_bounded(f: ModalFormula, max_worlds: int) -> SatVerdict:
    """Exhaustive search for a pointed model with at most ``max_worlds``
    worlds.  Satisfiable verdicts are absolute; unsatisfiable means only
    "no model within the bound"."""
    _require_int("max_worlds", max_worlds)
    g = expand_sugar(f)
    subs = _subformulas(g)
    variables = modal_vars(g)
    layout = _Layout(subs)
    search = _Search()
    for k in range(1, max_worlds + 1):
        clauses = layout.add_world()
        search.grow(layout.count)
        search.add(clauses)
        value = search.solve(layout.order, layout.selector)
        if value is not None:
            blocks, index = layout.blocks, layout.index
            worlds = [
                BaseWorld(0, frozenset(v for v in variables if value[blocks[j] + index[MVar(v)]]), j)
                for j in range(k)
            ]
            edges = [(worlds[i], worlds[j]) for i in range(k) for j in range(k) if value[layout.cells[i][j][0]]]
            build = functools.partial(_assigned_model, worlds, edges, variables)
            return SatVerdict(True, "bounded", max_worlds, search.decisions, k, build=build)
        if not search.consistent:
            break  # no model at any bound
    return SatVerdict(False, "bounded", max_worlds, search.decisions, max_worlds)

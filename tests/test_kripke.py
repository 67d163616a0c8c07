"""Frames, models, closures, frame classes, validity search, serialization."""

import json
import random
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dia_power, make_random_model, mask_steps, random_modal_formula, sugared_modal_formulas
from modalred import kripke, syntax
from modalred.kripke import (
    BaseWorld,
    GadgetWorld,
    KripkeFrame,
    KripkeModel,
    ValuationBudgetError,
    close,
    frame_class_check,
    frame_from_json,
    frame_to_dot,
    frame_to_json,
    frame_validates,
    model_check,
    model_check_all,
    model_from_json,
    model_to_json,
    wgrz_axiom,
    world_id_from_str,
    world_id_str,
)
from modalred.syntax import (
    MAnd,
    MBox,
    MBoxLe,
    MBoxPow,
    MDia,
    MFalse,
    MNot,
    MTrue,
    MVar,
    expand_sugar,
    parse_modal,
    parse_qbf,
    render,
)
from modalred.reduction import encode_alpha, encode_star, extend_model, quantifier_tree, star_equivalence_violations
from modalred.solver import sat_bounded, sat_k_tableau


def _w(i):
    return BaseWorld(0, frozenset(), i)


def chain_frame(n):
    worlds = [_w(i) for i in range(n)]
    rel = frozenset((worlds[i], worlds[i + 1]) for i in range(n - 1))
    return KripkeFrame(frozenset(worlds), rel), worlds


class TestModelCheck:
    def test_blind_world_satisfies_box_false(self):
        frame, worlds = chain_frame(1)
        model = KripkeModel(frame, {}, worlds[0])
        assert model_check(model, worlds[0], MBox(MFalse()))

    def test_reflexive_singleton(self):
        w = _w(0)
        frame = KripkeFrame(frozenset([w]), frozenset([(w, w)]))
        model = KripkeModel(frame, {}, w)
        assert model_check(model, w, MDia(MTrue()))
        assert not model_check(model, w, MBox(MFalse()))

    def test_unknown_world_rejected(self):
        frame, worlds = chain_frame(2)
        model = KripkeModel(frame, {}, worlds[0])
        with pytest.raises(ValueError):
            model_check(model, _w(99), MTrue())

    def test_model_check_all(self):
        frame, worlds = chain_frame(3)
        model = KripkeModel(frame, {1: frozenset([worlds[1]])}, worlds[0])
        assert model_check_all(model, MVar(1)) == frozenset([worlds[1]])
        assert model_check_all(model, MDia(MVar(1))) == frozenset([worlds[0]])


@given(sugared_modal_formulas(max_leaves=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_model_check_respects_sugar(f, seed):
    model = make_random_model(random.Random(seed), world_count=4, var_count=3)
    expanded = expand_sugar(f)
    for w in model.frame.worlds:
        assert model_check(model, w, f) == model_check(model, w, expanded)


def _naive_check(model, w, f, memo=None):
    # straightforward recursive reference for differential testing; ``memo``
    # keeps each world's successors and each (world, subformula) answer, and
    # calls on one model may share it
    from modalred.syntax import MAnd, MBox, MDia, MFalse, MImp, MNot, MOr, MTrue, MVar

    if memo is None:
        memo = {}
    if (w, f) in memo:
        return memo[w, f]
    if "succ" not in memo:
        memo["succ"] = {}
        for u, v in model.frame.relation:
            memo["succ"].setdefault(u, []).append(v)
    succ = memo["succ"].get(w, [])
    if isinstance(f, MVar):
        result = w in model.valuation.get(f.index, frozenset())
    elif isinstance(f, MFalse):
        result = False
    elif isinstance(f, MTrue):
        result = True
    elif isinstance(f, MNot):
        result = not _naive_check(model, w, f.body, memo)
    elif isinstance(f, MAnd):
        result = all(_naive_check(model, w, g, memo) for g in f.items)
    elif isinstance(f, MOr):
        result = _naive_check(model, w, f.left, memo) or _naive_check(model, w, f.right, memo)
    elif isinstance(f, MImp):
        result = (not _naive_check(model, w, f.left, memo)) or _naive_check(model, w, f.right, memo)
    elif isinstance(f, MBox):
        result = all(_naive_check(model, v, f.body, memo) for v in succ)
    elif isinstance(f, MDia):
        result = any(_naive_check(model, v, f.body, memo) for v in succ)
    else:
        raise TypeError(f)
    memo[w, f] = result
    return result


@given(sugared_modal_formulas(max_leaves=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_model_check_matches_naive_reference(f, seed):
    model = make_random_model(random.Random(seed), world_count=4, var_count=3)
    expanded = expand_sugar(f)
    for w in model.frame.worlds:
        assert model_check(model, w, f) == _naive_check(model, w, expanded)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_constant_formulas_are_valuation_independent(seed):
    rng = random.Random(seed)
    model_a = make_random_model(rng, world_count=4, var_count=2)
    # same frame, different valuation
    model_b = KripkeModel(
        model_a.frame,
        {k: frozenset(w for w in model_a.frame.worlds if rng.random() < 0.5) for k in (1, 2)},
        model_a.root,
    )
    f = parse_modal("[] (<> true -> <> [] false)")
    assert model_check(model_a, model_a.root, f) == model_check(model_b, model_b.root, f)


class TestClose:
    def test_transitive_chain(self):
        frame, worlds = chain_frame(3)
        closed = close(frame, "transitive")
        assert (worlds[0], worlds[2]) in closed.relation
        assert len(closed.relation) == 3

    def test_reflexive_transitive_of_empty(self):
        worlds = [_w(0), _w(1)]
        frame = KripkeFrame(frozenset(worlds), frozenset())
        closed = close(frame, "reflexive_transitive")
        assert closed.relation == frozenset((w, w) for w in worlds)

    def test_reflexive_symmetric_edge(self):
        a, b = _w(0), _w(1)
        frame = KripkeFrame(frozenset([a, b]), frozenset([(a, b)]))
        closed = close(frame, "reflexive_symmetric")
        assert closed.relation == frozenset([(a, a), (b, b), (a, b), (b, a)])

    def test_reflexive_symmetric_is_not_transitive(self):
        frame, worlds = chain_frame(3)
        closed = close(frame, "reflexive_symmetric")
        assert (worlds[0], worlds[2]) not in closed.relation

    def test_bad_mode(self):
        frame, _ = chain_frame(2)
        with pytest.raises(ValueError):
            close(frame, "euclidean")


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(
    ["transitive", "reflexive_transitive", "reflexive_symmetric"]
))
@settings(max_examples=150, deadline=None)
def test_close_idempotent_and_monotone(seed, mode):
    model = make_random_model(random.Random(seed), world_count=5)
    frame = model.frame
    closed = close(frame, mode)
    assert frame.relation <= closed.relation
    assert close(closed, mode).relation == closed.relation


def _naive_closure(frame, mode):
    """Fixpoint over relation pairs, sharing no code with ``close``."""
    pairs = set(frame.relation)
    if mode != "transitive":
        pairs |= {(w, w) for w in frame.worlds}
    while True:
        if mode == "reflexive_symmetric":
            implied = {(v, u) for u, v in pairs}
        else:
            implied = {(u, x) for u, v in pairs for y, x in pairs if v == y}
        if implied <= pairs:
            return frozenset(pairs)
        pairs |= implied


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(
    ["transitive", "reflexive_transitive", "reflexive_symmetric"]
))
@settings(max_examples=150, deadline=None)
def test_close_is_the_smallest_closure(seed, mode):
    # the 0.45 edge density of random models makes cycles and self-loops common
    rng = random.Random(seed)
    frame = make_random_model(rng, world_count=rng.randint(1, 8)).frame
    assert close(frame, mode).relation == _naive_closure(frame, mode)


@pytest.mark.parametrize("mode", ["transitive", "reflexive_transitive", "reflexive_symmetric"])
@pytest.mark.parametrize("seed", range(25))
def test_closed_frames_behave_like_pair_frames(seed, mode):
    # close builds its frame from bit rows; its pairs exist only once read
    rng = random.Random(seed)
    frame = make_random_model(rng, world_count=rng.randint(1, 8)).frame
    naive = _naive_closure(frame, mode)
    reference = KripkeFrame(frame.worlds, naive)
    closed = close(frame, mode)
    assert hash(closed) == hash(reference)  # before anything reads closed.relation
    assert closed == reference and reference == closed
    assert len({closed, reference}) == 1
    assert closed.relation == naive
    assert closed.worlds == frame.worlds
    for u in frame.worlds:
        for v in frame.worlds:
            assert ((u, v) in closed.relation) == ((u, v) in naive)
    root = min(frame.worlds, key=world_id_str)
    assert KripkeModel(closed, {}, root) == KripkeModel(reference, {}, root)
    if naive:
        assert closed != KripkeFrame(frame.worlds, naive - {min(naive, key=repr)})


def test_frames_are_read_only():
    frame, worlds = chain_frame(3)
    for f in (frame, close(frame, "transitive")):
        for name in ("worlds", "relation", "order", "position", "succ", "ids", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, frozenset())
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)
    closed = close(frame, "transitive")
    with pytest.raises(FrozenInstanceError):
        closed.relation = frozenset()  # before the pairs are derived
    assert (worlds[0], worlds[2]) in closed.relation


def test_model_check_deep_formula():
    # 5000 nested boxes, far past Python's default recursion limit of 1000
    w = _w(0)
    frame = KripkeFrame(frozenset([w]), frozenset([(w, w)]))
    f = MBoxPow(5000, MVar(1))
    assert model_check(KripkeModel(frame, {1: frozenset([w])}, w), w, f)
    assert not model_check(KripkeModel(frame, {}, w), w, f)


def random_tree_frame(rng, size):
    worlds = [_w(i) for i in range(size)]
    rel = set()
    for i in range(1, size):
        rel.add((worlds[rng.randrange(i)], worlds[i]))
    return KripkeFrame(frozenset(worlds), frozenset(rel))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=7))
@settings(max_examples=150, deadline=None)
def test_tree_closures_land_in_their_frame_classes(seed, size):
    frame = random_tree_frame(random.Random(seed), size)
    assert frame_class_check(close(frame, "transitive"), "GL")
    assert frame_class_check(close(frame, "reflexive_transitive"), "Grz")
    assert frame_class_check(close(frame, "reflexive_symmetric"), "KTB")


class TestFrameClassCheck:
    def test_strict_chain_is_gl(self):
        frame, _ = chain_frame(3)
        assert frame_class_check(close(frame, "transitive"), "GL")

    def test_reflexive_point_is_not_gl(self):
        w = _w(0)
        frame = KripkeFrame(frozenset([w]), frozenset([(w, w)]))
        assert not frame_class_check(frame, "GL")
        assert frame_class_check(frame, "Grz")
        assert frame_class_check(frame, "KTB")

    def test_unknown_class(self):
        frame, _ = chain_frame(2)
        with pytest.raises(ValueError):
            frame_class_check(frame, "S5")


class TestFrameValidates:
    def test_verum_everywhere(self):
        frame, _ = chain_frame(3)
        assert frame_validates(frame, MTrue())

    def test_variable_free_uses_single_pass(self):
        frame, _ = chain_frame(2)
        # last world of the chain is blind, so <>true fails there
        assert not frame_validates(frame, MDia(MTrue()))

    def test_variable_free_formulas_read_the_frame_table(self, monkeypatch):
        from modalred.reduction import alpha, frame_fm_plus

        frame = frame_fm_plus(8)
        steps = mask_steps(monkeypatch)
        answers = "".join("1" if frame_validates(frame, alpha(k)) else "0" for k in range(1, 17))
        assert answers == "1111111011111111"
        # the ladders share their rungs, so each node is evaluated once:
        # 87 steps, where a fresh memo per call took 312
        assert len(steps) == 87
        assert model_check_all(KripkeModel(frame, {}, frame.order[0]), alpha(16)) == frame.worlds
        assert len(steps) == 87

    def test_budget_refusal(self):
        frame, _ = chain_frame(5)
        with pytest.raises(ValuationBudgetError):
            frame_validates(frame, MVar(1), budget=4)

    @pytest.mark.parametrize("f", [MTrue(), MVar(1)])
    def test_negative_budget_is_an_error(self, f):
        frame, _ = chain_frame(2)
        with pytest.raises(ValueError) as err:
            frame_validates(frame, f, budget=-1)
        assert str(err.value) == "budget must be a non-negative integer, got -1"

    def test_excluded_middle_is_valid(self):
        frame, _ = chain_frame(3)
        assert frame_validates(frame, parse_modal("p1 | ~p1"))

    def test_box_p_implies_p_needs_reflexivity(self):
        frame, _ = chain_frame(2)
        f = parse_modal("[] p1 -> p1")
        assert not frame_validates(frame, f)
        assert frame_validates(close(frame, "reflexive_transitive"), f)

    def test_wgrz_axiom_shape(self):
        assert expand_sugar(wgrz_axiom()) == parse_modal(
            "box+ ([] (p1 -> [] p1) -> p1) -> p1"
        )
        assert render(wgrz_axiom()) == "box<=1 ([] (p1 -> [] p1) -> p1) -> p1"


def _naive_masks(f, var_masks, succ):
    """Mask of the worlds where ``f`` (sugar-free) holds, world by world by
    the plain Kripke clauses over the successor rows ``succ``; each (world,
    subformula) answer is kept, so deep formulas cost no more than wide ones."""
    from functools import cache

    from modalred.syntax import MAnd, MImp, MNot, MOr

    @cache
    def holds(i, g):
        seen = [j for j in range(len(succ)) if succ[i] >> j & 1]
        if isinstance(g, MVar):
            return bool(var_masks.get(g.index, 0) >> i & 1)
        if isinstance(g, (MTrue, MFalse)):
            return isinstance(g, MTrue)
        if isinstance(g, MNot):
            return not holds(i, g.body)
        if isinstance(g, MAnd):
            return all(holds(i, h) for h in g.items)
        if isinstance(g, MOr):
            return holds(i, g.left) or holds(i, g.right)
        if isinstance(g, MImp):
            return not holds(i, g.left) or holds(i, g.right)
        if isinstance(g, MBox):
            return all(holds(j, g.body) for j in seen)
        if isinstance(g, MDia):
            return any(holds(j, g.body) for j in seen)
        raise TypeError(g)

    return sum(1 << i for i in range(len(succ)) if holds(i, f))


def _random_rows_frame(rng, n):
    """A frame on ``n`` worlds whose rows are drawn empty, full, a self-loop,
    or random with or without the self-loop."""
    worlds = [_w(i) for i in range(n)]
    full = (1 << n) - 1
    edges = []
    for i in range(n):
        row = rng.choice([0, full, 1 << i, rng.getrandbits(n), rng.getrandbits(n) | 1 << i])
        edges += [(worlds[i], worlds[j]) for j in range(n) if row >> j & 1]
    return KripkeFrame(frozenset(worlds), edges)


def _bits_reference(row):
    """The set bits of ``row``, lowest first, tested one position at a time."""
    return [j for j in range(row.bit_length()) if row >> j & 1]


def _select_reference(items, row):
    return [items[j] for j in _bits_reference(row)]


def _seeded_rows(rng):
    """Rows of every shape the readers meet: 0, one high bit, narrow rows,
    and wide sparse and wide dense rows just below and at ``_DENSE_RUN``."""
    rows = [0, 1, 1 << 4095, 1 << 15000 | 1]
    rows += [rng.getrandbits(width) for width in (1, 2, 3, 7, 16, 31, 64) for _ in range(5)]
    for width in (100, 1000, 4001, 15000):
        dense = -(-width // kripke._DENSE_RUN)  # the fewest set bits read in C
        for count in (2, dense - 1, dense, 4 * dense):
            row = 1 << width - 1
            for j in rng.sample(range(width - 1), count - 1):
                row |= 1 << j
            rows.append(row)
    return rows


class TestRowReaders:
    """``_bits``, ``_select`` and ``_pairs`` read a row from its highest bit
    down and hand the positions back lowest first, as a loop over every
    position finds them."""

    def test_bits_and_select_match_a_per_bit_loop(self):
        rng = random.Random(38)
        for row in _seeded_rows(rng):
            items = [f"w{j}" for j in range(max(row.bit_length(), 1))]
            assert kripke._bits(row) == _bits_reference(row)
            assert list(kripke._select(items, row)) == _select_reference(items, row)
        assert kripke._bits(0) == [] and kripke._bits(1 << 70) == [70]

    def test_pairs_match_a_per_bit_loop(self):
        rng = random.Random(381)
        rows = _seeded_rows(rng)
        rng.shuffle(rows)
        expected = [(i, j) for i, row in enumerate(rows) for j in _bits_reference(row)]
        assert list(kripke._pairs(tuple(rows))) == expected


class TestSelect:
    """``_select`` picks the entries at a row's set bits, lowest first, on
    both sides of the density at which it stops reading bit by bit."""

    @pytest.mark.parametrize("width", [1, 5, 8, 13, 64, 100, 257, 1001])
    def test_edge_rows(self, width):
        items = [f"w{j}" for j in range(width)]
        full = (1 << width) - 1
        rows = {0, 1, 1 << width - 1, full, full ^ 1, full ^ 1 << width - 1, full & 0x5555555555555555}
        for row in sorted(rows):
            assert list(kripke._select(items, row)) == _select_reference(items, row), row
            # the entries of a longer sequence, whose tail no row reaches
            assert list(kripke._select(tuple(items) + (None,), row)) == _select_reference(items, row)

    @pytest.mark.parametrize("width", [17, 63, 100, 250, 999, 4003])
    def test_rows_just_below_and_above_the_crossover(self, width):
        rng = random.Random(width)
        items = tuple(rng.getrandbits(width) for _ in range(width))
        dense = -(-width // kripke._DENSE_RUN)  # the fewest set bits read in C
        for count, sparse in ((dense - 1, True), (dense, False), (dense + 1, False)):
            for _ in range(5):
                row = 1 << width - 1
                for j in rng.sample(range(width - 1), count - 1):
                    row |= 1 << j
                assert (row.bit_count() * kripke._DENSE_RUN < row.bit_length()) == sparse
                assert list(kripke._select(items, row)) == _select_reference(items, row)

    def test_random_rows(self):
        rng = random.Random(35)
        for _ in range(300):
            width = rng.randint(1, 600)
            items = list(range(width))
            density = rng.choice((0.01, 0.05, 0.3, 0.9))
            row = 0
            for j in range(width):
                if rng.random() < density:
                    row |= 1 << j
            assert list(kripke._select(items, row)) == _select_reference(items, row)


class TestPredecessorRows:
    def test_pred_rows_are_the_transpose(self):
        rng = random.Random(3)
        for _ in range(50):
            frame = _random_rows_frame(rng, rng.randint(0, 6))
            succ, pred = frame.succ, frame._pred
            n = len(succ)
            assert len(pred) == n
            assert all((succ[i] >> j & 1) == (pred[j] >> i & 1) for i in range(n) for j in range(n))

    def test_eval_masks_match_the_plain_clauses(self):
        rng = random.Random(17)
        sizes = set()
        for _ in range(400):
            n = rng.randint(0, 6)
            sizes.add(n)
            frame = _random_rows_frame(rng, n)
            var_masks = {k: rng.getrandbits(n) for k in (1, 2)}
            f = expand_sugar(random_modal_formula(rng, 14, var_count=3))
            expected = _naive_masks(f, var_masks, frame.succ)
            assert kripke._eval_masks(f, var_masks, frame._pred) == expected, (f, frame)
        assert sizes == set(range(7))

    @given(sugared_modal_formulas(max_leaves=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sugar_in_place_equals_expand_then_evaluate(self, f, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 6)
        frame = _random_rows_frame(rng, n)
        var_masks = {k: rng.getrandbits(n) for k in (1, 2, 3)}
        expected = _naive_masks(expand_sugar(f), var_masks, frame.succ)
        assert kripke._eval_masks(f, var_masks, frame._pred) == expected, (f, frame)
        assert kripke._eval_masks(expand_sugar(f), var_masks, frame._pred) == expected

    def test_sugar_bounds_zero_deep_and_nested(self):
        # powers and bounds from 0 up past the depth of every frame, and
        # sugar nested in sugar
        p, q = MVar(1), MVar(2)
        formulas = [
            make(k, body)
            for make in (MBoxLe, MBoxPow, dia_power)
            for k in (0, 1, 2, 3, 7, 12)
            for body in (p, MNot(q), MFalse(), MTrue())
        ]
        formulas += [
            MBoxLe(2, dia_power(3, MBoxLe(1, MBoxPow(0, p)))),
            MBoxPow(2, MAnd((MBoxLe(0, p), dia_power(2, MBoxLe(3, q)), MBoxLe(1, MBoxLe(1, p))))),
            dia_power(1, MBoxLe(1, dia_power(0, MBoxPow(4, MNot(p))))),
        ]
        rng = random.Random(46)
        for _ in range(60):
            n = rng.randint(0, 7)
            frame = _random_rows_frame(rng, n)
            var_masks = {1: rng.getrandbits(n), 2: rng.getrandbits(n)}
            memo = {}
            for f in formulas:
                expected = _naive_masks(expand_sugar(f), var_masks, frame.succ)
                assert kripke._eval_masks(f, var_masks, frame._pred) == expected, (f, frame)
                assert kripke._eval_masks(f, var_masks, frame._pred, memo) == expected, (f, frame)

    @pytest.mark.parametrize(
        "text,answers",
        [
            # one answer per frame on at most 2 worlds, in the order of
            # _small_frames; recorded with the world-scanning evaluator
            ("wgrz", "1111111110011111100"),
            ("[] p1 -> p1", "1010000000001010101"),
            ("[] p1 -> [] [] p1", "1111111110011111101"),
            ("p1 -> [] <> p1", "1111100001111000011"),
            ("[] ([] p1 -> p1) -> [] p1", "1101010100000000000"),
            ("[] (p1 -> p2) -> ([] p1 -> [] p2)", "1111111111111111111"),
            ("<> true", "1010000011101110111"),
            ("[] false | <> [] false", "1101011100000001000"),
        ],
    )
    def test_frame_validates_keeps_its_answers_on_small_frames(self, text, answers):
        f = wgrz_axiom() if text == "wgrz" else parse_modal(text)
        assert "".join("1" if frame_validates(frame, f) else "0" for frame in _small_frames()) == answers

    def test_rows_are_built_once_and_only_for_evaluation(self):
        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        star, ctx = encode_star(f)
        tree = quantifier_tree(f)
        extended = extend_model(tree, ctx)
        witness = sat_k_tableau(encode_alpha(f)).witness
        model_to_json(extended)
        frame_to_dot(witness.frame)
        with pytest.raises(ValuationBudgetError):
            frame_validates(extended.frame, wgrz_axiom())
        for frame in (tree.frame, witness.frame):
            assert "_pred" not in vars(frame)
        # an extended frame is built with its predecessor rows, which the
        # checks read and never rebuild
        pred = vars(extended.frame)["_pred"]
        assert model_check(tree, tree.root, star)
        assert model_check(extended, extended.root, encode_alpha(f))
        assert model_check_all(extended, MBox(MFalse()))
        assert vars(extended.frame)["_pred"] is pred
        assert "_pred" in vars(tree.frame) and "_pred" not in vars(witness.frame)


class TestConstantMasks:
    """Each frame keeps the masks of the formulas evaluated on it, one table
    per valuation, keyed by its variable masks: the variable-free formulas
    under the empty key, for every model on that frame."""

    def _two_models(self):
        frame, (u, v, w) = chain_frame(3)
        return KripkeModel(frame, {1: frozenset([w])}, u), KripkeModel(frame, {1: frozenset([v])}, u)

    def test_formulas_with_variables_answer_by_each_valuation(self):
        model_a, model_b = self._two_models()
        u, v, w = model_a.frame.order
        expected = {
            "p1": ({w}, {v}),
            "<> p1": ({v}, {u}),
            "[] p1": ({v, w}, {u, w}),
        }
        for _ in range(2):
            for text, (on_a, on_b) in expected.items():
                f = parse_modal(text)
                assert model_check_all(model_a, f) == on_a
                assert model_check_all(model_b, f) == on_b
                assert model_check(model_b, v, f) == (v in on_b)
        # each valuation keeps its own table, keyed by p1's mask (u, v, w are
        # bits 0, 1, 2): w for model_a, v for model_b
        tables = model_a.frame._masks
        assert set(tables) == {frozenset({(1, 0b100)}), frozenset({(1, 0b010)})}
        p1 = MVar(1)
        assert tables[frozenset({(1, 0b100)})] == {p1: 0b100, MDia(p1): 0b010, MBox(p1): 0b110}
        assert tables[frozenset({(1, 0b010)})] == {p1: 0b010, MDia(p1): 0b001, MBox(p1): 0b101}

    def test_two_valuations_on_one_frame_give_the_reference_answers(self):
        rng = random.Random(37)
        for _ in range(40):
            model = make_random_model(rng, world_count=4, var_count=3)
            other = make_random_model(rng, world_count=4, var_count=3)
            twin = KripkeModel(model.frame, other.valuation, model.root)
            formulas = [expand_sugar(random_modal_formula(rng, 9)) for _ in range(6)]
            memos = {id(model): {}, id(twin): {}}
            for _ in range(2):
                for f in formulas:
                    for m in (model, twin):
                        satisfied = model_check_all(m, f)
                        assert satisfied == {w for w in m.frame.worlds if _naive_check(m, w, f, memos[id(m)])}, f

    def test_a_changed_valuation_is_not_answered_from_the_old_table(self):
        frame, (u, v, w) = chain_frame(3)
        valuation = {1: frozenset([w])}
        model = KripkeModel(frame, valuation, u)
        f = parse_modal("<> p1")
        assert model_check_all(model, f) == {v}
        valuation[1] = frozenset([v])  # the model holds this dict itself
        assert model_check_all(model, f) == {u}

    def test_a_variable_free_answer_is_shared_by_the_models_on_a_frame(self, monkeypatch):
        model_a, model_b = self._two_models()
        u, v, w = model_a.frame.order
        steps = mask_steps(monkeypatch)
        blind_below = parse_modal("<> [] false")
        assert model_check_all(model_a, blind_below) == {v}
        assert steps == [MFalse(), MBox(MFalse()), blind_below]
        steps.clear()
        assert model_check_all(model_b, blind_below) == {v}
        assert model_check(model_b, u, blind_below) is False
        assert steps == []
        # a new formula evaluates only the nodes the table lacks
        assert model_check_all(model_b, parse_modal("[] <> [] false")) == {u, w}
        assert steps == [parse_modal("[] <> [] false")]
        assert not model_check(KripkeModel(model_a.frame, {}, v), v, parse_modal("[] <> [] false"))
        assert len(steps) == 1
        # an equal frame is another object with a table of its own
        twin = KripkeModel(KripkeFrame(model_a.frame.worlds, model_a.frame.relation), {}, u)
        assert model_check_all(twin, blind_below) == {v}
        assert len(steps) == 4

    def test_tables_are_keyed_by_the_sugared_node_and_no_node_is_built(self, monkeypatch):
        # sugar is evaluated in place: the table holds the nodes as given
        frame, (u, v, w) = chain_frame(3)
        model = KripkeModel(frame, {1: frozenset([w])}, u)
        f = MBoxLe(2, MBoxPow(1, MVar(1)))
        pool = len(syntax._POOL)
        steps = mask_steps(monkeypatch)
        assert model_check_all(model, f) == {v, w}
        assert steps == [MVar(1), MBoxPow(1, MVar(1)), f]
        assert len(syntax._POOL) == pool
        assert model_check(model, u, f) is False and len(steps) == 3

    def test_the_ladder_check_reads_the_answers_the_alpha_check_left(self, monkeypatch):
        f = parse_qbf("A p1 . E p2 . A p3 . p2 | p3")
        _, ctx = encode_star(f)
        tree = quantifier_tree(f)
        extended = extend_model(tree, ctx)
        assert model_check(extended, extended.root, encode_alpha(f))
        steps = mask_steps(monkeypatch)
        assert star_equivalence_violations(tree, extended, ctx) == []
        assert steps == []


def _small_frames():
    """Every frame on 0, 1 and 2 worlds; pairs in world order, bit k for pair k."""
    for n in range(3):
        worlds = [_w(i) for i in range(n)]
        pairs = [(u, v) for u in worlds for v in worlds]
        for bits in range(1 << len(pairs)):
            yield KripkeFrame(frozenset(worlds), [p for k, p in enumerate(pairs) if bits >> k & 1])


def _seeded_true_qbfs(n, count, seed):
    """``count`` true prenex QBFs of ``n`` quantifiers drawn from ``seed``."""
    from modalred.pipeline import random_matrix
    from modalred.qbf import is_true_qbf, prenex_join

    rng = random.Random(seed)
    found = []
    while len(found) < count:
        f = prenex_join([(rng.choice("AE"), k) for k in range(1, n + 1)], random_matrix(rng, n, 9))
        if is_true_qbf(f):
            found.append(f)
    return found


_VALUES = [BaseWorld(2, frozenset({1, 3}), 7), GadgetWorld(3, "a0"), GadgetWorld(4, "c")]


class _LookAlike(GadgetWorld):
    """A gadget world's fields, and so its id, under another class."""


class TestWorldValues:
    """Worlds are immutable named tuples that keep the frozen-dataclass
    contract: equal only to worlds of their own class, unordered, hashed as
    their field tuples, and read-only."""

    @pytest.mark.parametrize("world", _VALUES)
    def test_hash_is_the_field_tuple_hash(self, world):
        assert hash(world) == hash(tuple(world))

    @pytest.mark.parametrize("world", _VALUES)
    def test_a_world_never_equals_a_plain_tuple(self, world):
        fields = tuple(world)
        assert not world == fields and not fields == world
        assert world != fields and fields != world
        assert fields not in {world} and world not in {fields}

    def test_worlds_of_the_two_classes_never_compare_equal(self):
        # same fields, same hash: still two values
        gadget, other = GadgetWorld(1, "b"), _LookAlike(1, "b")
        assert hash(gadget) == hash(other)
        assert not gadget == other and not other == gadget
        assert gadget != other and other != gadget
        assert len({gadget, other}) == 2

    def test_not_equal_agrees_with_equal(self):
        values = [*_VALUES, GadgetWorld(3, "a0"), tuple(_VALUES[1]), None, 3]
        for a in values:
            for b in values:
                assert (a != b) is (not a == b), (a, b)

    @pytest.mark.parametrize(
        "left, right",
        [
            (_VALUES[0], _VALUES[0]),
            (_VALUES[1], _VALUES[2]),
            (_VALUES[0], _VALUES[1]),
            (_VALUES[0], tuple(_VALUES[0])),  # tuple order would answer here
            (tuple(_VALUES[2]), _VALUES[2]),
            (_VALUES[0], 3),
        ],
    )
    def test_worlds_are_unordered(self, left, right):
        for compare in ("<", "<=", ">", ">="):
            with pytest.raises(TypeError, match="^worlds are unordered: cannot order "):
                eval(f"left {compare} right")
        with pytest.raises(TypeError):
            sorted([left, right])

    @pytest.mark.parametrize("world", _VALUES)
    def test_fields_are_read_only(self, world):
        name = world._fields[0]
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(world, name, 5)
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
            world.extra = 5
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(world, name)

    @pytest.mark.parametrize(
        "world, text",
        [
            (_VALUES[0], "BaseWorld(level=2, assignment=frozenset({1, 3}), serial=7)"),
            (_VALUES[1], "GadgetWorld(gadget=3, part='a0')"),
            (_VALUES[2], "GadgetWorld(gadget=4, part='c')"),
        ],
    )
    def test_repr(self, world, text):
        assert repr(world) == text

    def test_keyword_construction(self):
        assert BaseWorld(serial=7, level=2, assignment=frozenset({1, 3})) == _VALUES[0]
        assert GadgetWorld(part="c", gadget=4) == _VALUES[2]
        assert GadgetWorld(gadget=3, part="a0") == _VALUES[1]

    def test_a_gadget_world_has_two_fields(self):
        assert GadgetWorld._fields == ("gadget", "part")
        with pytest.raises(TypeError):
            GadgetWorld(3, "a0", _VALUES[0])
        with pytest.raises(TypeError):
            GadgetWorld(3, "a0", host=None)


class TestModelValues:
    """A model is a frozen value of its frame, valuation and root."""

    def test_a_root_or_valuation_outside_the_frame_is_refused(self):
        frame, worlds = chain_frame(2)
        stray = BaseWorld(0, frozenset(), 9)
        with pytest.raises(ValueError, match="^root must be one of the frame's worlds$"):
            KripkeModel(frame, {}, stray)
        with pytest.raises(ValueError, match="^valuation of p2 leaves the world set$"):
            KripkeModel(frame, {1: frozenset(worlds), 2: frozenset([worlds[0], stray])}, worlds[0])

    def test_equal_models_hash_alike(self):
        frame, worlds = chain_frame(2)
        model = KripkeModel(frame, {1: frozenset(worlds[:1])}, worlds[0])
        again = KripkeModel(frame=chain_frame(2)[0], valuation={1: frozenset(worlds[:1])}, root=worlds[0])
        assert model == again and hash(model) == hash(again)
        assert model != KripkeModel(frame, {1: frozenset(worlds[:1])}, worlds[1])
        assert model != KripkeModel(frame, {}, worlds[0])
        assert model != (frame, {1: frozenset(worlds[:1])}, worlds[0])

    def test_repr(self):
        world = BaseWorld(0, frozenset(), 0)
        model = KripkeModel(KripkeFrame(frozenset([world]), []), {1: frozenset([world])}, world)
        text = "BaseWorld(level=0, assignment=frozenset(), serial=0)"
        assert repr(model) == (
            f"KripkeModel(frame=KripkeFrame(worlds=frozenset({{{text}}}), relation=frozenset()), "
            f"valuation={{1: frozenset({{{text}}})}}, root={text})"
        )

    def test_a_model_can_be_weakly_referenced(self):
        frame, worlds = chain_frame(2)
        model = KripkeModel(frame, {}, worlds[0])
        assert weakref.ref(model)() is model

    @pytest.mark.parametrize("name", ["frame", "valuation", "root", "extra"])
    def test_fields_are_read_only(self, name):
        frame, worlds = chain_frame(2)
        model = KripkeModel(frame, {}, worlds[0])
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(model, name, 5)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(model, name)


class TestWorldIds:
    def test_base_id_format(self):
        w = BaseWorld(2, frozenset({1, 3}), 7)
        assert world_id_str(w) == "base:L2:{1,3}:#7"
        assert world_id_from_str("base:L2:{1,3}:#7") == w

    def test_gadget_id_format(self):
        g = GadgetWorld(4, "c")
        assert world_id_str(g) == "gadget:m4:c"
        assert world_id_from_str("gadget:m4:c") == g

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            world_id_from_str("planet:earth")

    @pytest.mark.parametrize(
        "text",
        [
            "base:L0:{3,1}:#0",
            "base:L0:{01}:#0",
            "base:L0:{1,1}:#0",
            "base:L0:{}:#00",
            "base:L0:{,}:#0",
            "base:L0:{}:#0\n",
            "gadget:m01:a0",
            "gadget:m1:b@base:L0:{3,1}:#0",
        ],
    )
    def test_non_canonical_ids_rejected(self, text):
        # each would otherwise alias the world of another id
        with pytest.raises(ValueError) as err:
            world_id_from_str(text)
        assert repr(text) in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "gadget:m1:a01",
            "gadget:m1:a7",
            "gadget:m1:a2",
            "gadget:m0:b",
            "gadget:m0:a0",
        ],
    )
    def test_ids_outside_the_gadget_rejected(self, text):
        # F_m has m >= 1 and the parts a0..am, b and c, each spelled once
        with pytest.raises(ValueError) as err:
            world_id_from_str(text)
        assert str(err.value) == f"not a world of a gadget F_m (m >= 1; parts a0..am, b, c): {text!r}"

    @pytest.mark.parametrize(
        "world, text",
        [
            (BaseWorld(-1, frozenset(), 0), "base:L-1:{}:#0"),
            (BaseWorld(True, frozenset(), 0), "base:LTrue:{}:#0"),
            (BaseWorld(0, frozenset(), -3), "base:L0:{}:#-3"),
            (BaseWorld(0, frozenset(), False), "base:L0:{}:#False"),
            (BaseWorld(0, frozenset({-1}), 0), "base:L0:{-1}:#0"),
            (BaseWorld(0, frozenset({True}), 0), "base:L0:{True}:#0"),
            (BaseWorld(0, frozenset({1.0}), 0), "base:L0:{1.0}:#0"),
            (GadgetWorld(1, "zz"), "gadget:m1:zz"),
            (GadgetWorld(1, "a"), "gadget:m1:a"),
            (GadgetWorld(1, 3), "gadget:m1:3"),
            (GadgetWorld(-1, "b"), "gadget:m-1:b"),
            (GadgetWorld(True, "b"), "gadget:mTrue:b"),
            (GadgetWorld(0, "b"), "gadget:m0:b"),
            (GadgetWorld(2, "a3"), "gadget:m2:a3"),
            (GadgetWorld(2, "a01"), "gadget:m2:a01"),
            (GadgetWorld(3, "a0@gadget:m4:c"), "gadget:m3:a0@gadget:m4:c"),
            (GadgetWorld(1, "a0@base:L0:{}:#0"), "gadget:m1:a0@base:L0:{}:#0"),
            (BaseWorld(0, None, 0), "base:L0:None:#0"),
            (BaseWorld(0, 5, 0), "base:L0:5:#0"),
        ],
    )
    def test_fields_the_reader_refuses_are_refused_in_its_words(self, world, text):
        with pytest.raises(ValueError) as written:
            world_id_str(world)
        with pytest.raises(ValueError) as read:
            world_id_from_str(text)
        assert str(written.value) == str(read.value)
        assert repr(text) in str(written.value)
        # a frame refuses such a world before it can write its id
        with pytest.raises(ValueError):
            KripkeFrame(frozenset([world]), [])

    @pytest.mark.parametrize(
        "world, text",
        [
            (BaseWorld("0", frozenset(), 0), "base:L0:{}:#0"),
            (BaseWorld(0, frozenset({"1"}), 0), "base:L0:{1}:#0"),
            (BaseWorld(0, (1,), 0), "base:L0:{1}:#0"),
        ],
    )
    def test_fields_that_spell_another_world_are_refused(self, world, text):
        # the reader takes each id as a world with other fields
        assert world_id_from_str(text) != world
        with pytest.raises(ValueError) as err:
            world_id_str(world)
        assert str(err.value) == f"unrecognized world id: {text!r}"

    def test_a_plain_tuple_is_not_a_world(self):
        # a world is a tuple, but a tuple of the same fields is no world
        for fields in ((2, frozenset({1, 3}), 7), (3, "a0")):
            with pytest.raises(TypeError, match=r"^not a world id: "):
                world_id_str(fields)

    def test_every_world_of_an_extended_model_round_trips(self):
        qbf = _seeded_true_qbfs(5, 1, seed=40)[0]
        model = extend_model(quantifier_tree(qbf), encode_star(qbf)[1])
        assert any(isinstance(w, GadgetWorld) for w in model.frame.worlds)
        for w in model.frame.order:
            back = world_id_from_str(world_id_str(w))
            assert back == w and back.__class__ is w.__class__ and hash(back) == hash(w)

    @pytest.mark.parametrize("m", [1, 2, 11])
    def test_every_gadget_part_round_trips(self, m):
        for part in ["b", "c", *(f"a{i}" for i in range(m + 1))]:
            g = GadgetWorld(m, part)
            assert world_id_from_str(world_id_str(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "gadget:m3:a0@base:L1:{}:#2",
            "gadget:m3:a0@gadget:m4:c",
            # a chain far deeper than Python's default recursion limit
            "gadget:m1:b@" * 3000 + "base:L0:{}:#0",
        ],
    )
    def test_hosted_ids_are_unrecognized(self, text):
        # earlier versions tagged a gadget world with a host world after an
        # '@'; a gadget world is its index and part alone, so no such id reads
        with pytest.raises(ValueError) as err:
            world_id_from_str(text)
        assert str(err.value) == f"unrecognized world id: {text!r}"


class TestSerialization:
    def test_model_round_trip(self):
        model = make_random_model(random.Random(5), world_count=4, var_count=2)
        text = model_to_json(model)
        back = model_from_json(text)
        assert back.frame == model.frame
        assert back.root == model.root
        assert dict(back.valuation) == dict(model.valuation)
        assert model_to_json(back) == text

    def test_frame_round_trip(self):
        frame, _ = chain_frame(3)
        assert frame_from_json(frame_to_json(frame)) == frame

    @pytest.mark.parametrize(
        "document",
        [
            '{"worlds": ["gadget:m1:b"], "relation": []}',
            '{"worlds": ["gadget:m1:b"], "relation": [], "valuation": [], "root": "gadget:m1:b"}',
            '{"worlds": ["gadget:m1:b"], "relation": [], "valuation": {"p1": 3}, "root": "gadget:m1:b"}',
            # valuation keys are canonical: no second name for p1, no p0
            '{"worlds": ["gadget:m1:b"], "relation": [], "valuation": {"p1": ["gadget:m1:b"], "p01": []},'
            ' "root": "gadget:m1:b"}',
            '{"worlds": ["gadget:m1:b"], "relation": [], "valuation": {"p0": []}, "root": "gadget:m1:b"}',
        ],
    )
    def test_malformed_model_rejected(self, document):
        with pytest.raises(ValueError):
            model_from_json(document)

    @pytest.mark.parametrize(
        "worlds, relation, message",
        [
            (["base:L0:{}:#0", "base:L0:{}:#0"], [], "\"worlds\" lists 'base:L0:{}:#0' twice"),
            (
                ["base:L0:{}:#0", "base:L1:{1}:#1", "base:L0:{}:#0"],
                [["base:L0:{}:#0", "base:L1:{1}:#1"]],
                "\"worlds\" lists 'base:L0:{}:#0' twice",
            ),
            (
                ["base:L0:{}:#0", "base:L1:{1}:#1"],
                [["base:L0:{}:#0", "base:L1:{1}:#1"], ["base:L1:{1}:#1", "base:L1:{1}:#1"]] * 2,
                "\"relation\" lists ['base:L0:{}:#0', 'base:L1:{1}:#1'] twice",
            ),
        ],
    )
    def test_repeated_entries_are_refused(self, worlds, relation, message):
        frame = json.dumps({"worlds": worlds, "relation": relation})
        model = json.dumps({"worlds": worlds, "relation": relation, "valuation": {}, "root": worlds[0]})
        for read, document in ((frame_from_json, frame), (model_from_json, model)):
            with pytest.raises(ValueError) as refused:
                read(document)
            assert str(refused.value) == message

    def test_repeated_valuation_entry_is_refused(self):
        worlds = ["base:L0:{}:#0", "base:L1:{1}:#1"]
        valuation = {"p1": [worlds[1]], "p2": [worlds[0], worlds[1], worlds[0]]}
        document = json.dumps({"worlds": worlds, "relation": [], "valuation": valuation, "root": worlds[0]})
        with pytest.raises(ValueError) as refused:
            model_from_json(document)
        assert str(refused.value) == "\"p2\" lists 'base:L0:{}:#0' twice"

    @pytest.mark.parametrize("source", ["quantifier tree", "extended", "tableau", "bounded"])
    def test_model_equals_and_hashes_like_its_json_round_trip(self, source):
        qbf = parse_qbf("A p1 . E p2 . p1 -> p2")
        star, ctx = encode_star(qbf)
        if source == "quantifier tree":
            model = quantifier_tree(qbf)
        elif source == "extended":
            model = extend_model(quantifier_tree(qbf), ctx)
        elif source == "tableau":
            model = sat_k_tableau(encode_alpha(qbf)).witness
        else:
            model = sat_bounded(star, 6).witness
        text = model_to_json(model)
        back = model_from_json(text)
        assert back == model and hash(back) == hash(model)
        assert {model, back} == {model}
        assert model_to_json(back) == text

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extended_models_read_back_equal(self, n):
        # the worlds read back are equal to, not the same objects as, the
        # ones written, so frame equality runs the class-checked world ==
        for qbf in _seeded_true_qbfs(n, 2, seed=n):
            model = extend_model(quantifier_tree(qbf), encode_star(qbf)[1])
            text = model_to_json(model)
            back = model_from_json(text)
            assert back == model and hash(back) == hash(model)
            assert not any(a is b for a, b in zip(back.frame.order, model.frame.order))
            assert model_to_json(back) == text

    def test_relation_outside_worlds_rejected(self):
        a, b = _w(0), _w(1)
        with pytest.raises(ValueError):
            KripkeFrame(frozenset([a]), frozenset([(a, b)]))
        for pair in ((b, a), (b, b)):
            with pytest.raises(ValueError, match="leaves the world set"):
                KripkeFrame(frozenset([a]), frozenset([pair]))

    def test_dot_export(self):
        frame, worlds = chain_frame(2)
        dot = frame_to_dot(frame)
        assert dot.startswith("digraph frame {")
        assert '"base:L0:{}:#0" -> "base:L0:{}:#1";' in dot


def _random_world(rng):
    base = BaseWorld(rng.randint(0, 3), frozenset(rng.sample(range(1, 6), rng.randint(0, 3))), rng.randint(0, 12))
    if rng.random() < 0.4:
        return base
    m = rng.randint(1, 12)
    return GadgetWorld(m, rng.choice(["b", "c", f"a{rng.randint(0, m)}"]))


def _random_json_model(rng):
    worlds = set()
    for _ in range(rng.randint(1, 12)):
        worlds.add(_random_world(rng))
    worlds = sorted(worlds, key=world_id_str)  # set order varies with the hash seed
    density = rng.choice([0.0, 0.2, 0.5])
    relation = frozenset((u, v) for u in worlds for v in worlds if rng.random() < density)
    valuation = {
        k: frozenset(w for w in worlds if rng.random() < 0.4)
        for k in rng.sample(range(1, 15), rng.randint(0, 4))
    }
    return KripkeModel(KripkeFrame(frozenset(worlds), relation), valuation, rng.choice(worlds))


def _dumps_reference(frame, model=None):
    """What the writer must produce: json's own encoder on the payload."""
    payload = {
        "worlds": sorted(world_id_str(w) for w in frame.worlds),
        "relation": sorted([world_id_str(u), world_id_str(v)] for u, v in frame.relation),
    }
    if model is not None:
        payload["valuation"] = {
            f"p{k}": sorted(world_id_str(w) for w in model.valuation[k]) for k in sorted(model.valuation)
        }
        payload["root"] = world_id_str(model.root)
    return json.dumps(payload, indent=2) + "\n"


def _json_edge_cases():
    a, b = _w(0), _w(1)
    base = BaseWorld(2, frozenset({1, 3}), 7)
    g0, g1 = GadgetWorld(3, "a0"), GadgetWorld(3, "b")
    pair_frame = KripkeFrame(frozenset([a, b]), frozenset())
    reflexive = KripkeFrame(frozenset([a]), frozenset([(a, a)]))
    gadgets = KripkeFrame(frozenset([base, g0, g1]), frozenset([(base, g0), (g0, g1), (g1, g1)]))
    return [
        KripkeModel(pair_frame, {}, a),  # empty relation, empty valuation
        KripkeModel(pair_frame, {2: frozenset(), 1: frozenset([b])}, b),  # a variable with no worlds
        KripkeModel(reflexive, {}, a),  # a single reflexive world
        KripkeModel(reflexive, {1: frozenset([a])}, a),
        KripkeModel(gadgets, {4: frozenset([g1]), 1: frozenset()}, base),  # base and gadget ids
        KripkeModel(close(gadgets, "transitive"), {}, g0),
    ]


class TestJsonWriter:
    """model_to_json and frame_to_json write json.dumps(payload, indent=2)
    byte for byte, for pair-built and rows-built (closed) frames alike."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models_match_json_dumps(self, seed):
        model = _random_json_model(random.Random(seed))
        mode = random.Random(seed).choice(["transitive", "reflexive_transitive", "reflexive_symmetric"])
        closed = KripkeModel(close(model.frame, mode), model.valuation, model.root)
        for m in (model, closed):
            text = model_to_json(m)
            assert text == _dumps_reference(m.frame, m)
            assert frame_to_json(m.frame) == _dumps_reference(m.frame)
            back = model_from_json(text)
            assert (back.frame, back.root, dict(back.valuation)) == (m.frame, m.root, dict(m.valuation))
            assert frame_from_json(frame_to_json(m.frame)) == m.frame

    @pytest.mark.parametrize("index", range(6))
    def test_edge_cases_match_json_dumps(self, index):
        model = _json_edge_cases()[index]
        text = model_to_json(model)
        assert text == _dumps_reference(model.frame, model)
        assert frame_to_json(model.frame) == _dumps_reference(model.frame)
        back = model_from_json(text)
        assert (back.frame, back.root, dict(back.valuation)) == (model.frame, model.root, dict(model.valuation))
        assert model_to_json(back) == text

    def test_world_ids_need_no_json_escape(self):
        # the writer quotes each id by hand, so no id may hold a character
        # that json escapes
        rng = random.Random(0)
        worlds = [_random_world(rng) for _ in range(2000)]
        worlds += [BaseWorld(0, frozenset(), 0), GadgetWorld(12, "a12"), GadgetWorld(3, "c")]
        ids = {world_id_str(w) for w in worlds}
        assert {"base:L0:{}:#0", "gadget:m12:a12", "gadget:m3:c"} <= ids
        for wid in ids:
            assert json.dumps(wid) == '"' + wid + '"'

    def test_empty_frame(self):
        frame = KripkeFrame(frozenset(), frozenset())
        assert frame_to_json(frame) == _dumps_reference(frame) == '{\n  "worlds": [],\n  "relation": []\n}\n'


def _random_large_model(rng, density):
    """A model on 100-300 worlds, base and gadget ids mixed, whose pairs and
    valuations each hold about ``density`` of what they could."""
    count = rng.randint(100, 300)
    worlds = set()
    while len(worlds) < count:
        worlds.add(_random_world(rng))
    worlds = sorted(worlds, key=world_id_str)  # set order varies with the hash seed
    relation = [(u, v) for u in worlds for v in worlds if rng.random() < density]
    valuation = {k: frozenset(w for w in worlds if rng.random() < density) for k in (1, 2, 3)}
    return KripkeModel(KripkeFrame(frozenset(worlds), relation), valuation, rng.choice(worlds))


def _classes_by_pairs(frame):
    """GL, Grz and KTB membership read off the pairs alone."""
    relation = frame.relation
    succ = {w: set() for w in frame.worlds}
    for u, v in relation:
        succ[u].add(v)
    reflexive = all((w, w) in relation for w in frame.worlds)
    irreflexive = not any((w, w) in relation for w in frame.worlds)
    symmetric = all((v, u) in relation for u, v in relation)
    antisymmetric = all(u == v or (v, u) not in relation for u, v in relation)
    transitive = all(succ[v] <= succ[u] for u, v in relation)
    return {
        "GL": transitive and irreflexive,
        "Grz": reflexive and transitive and antisymmetric,
        "KTB": reflexive and symmetric,
    }


class TestLargeFrames:
    """Frames of 100-300 worlds, whose rows are wide enough for both ways
    of reading them: about one pair in 100 leaves most rows sparse, about
    one in 3 makes them dense."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_model_check_matches_naive_reference(self, seed, density):
        rng = random.Random(seed)
        model = _random_large_model(rng, density)
        memo = {}
        for _ in range(12):
            f = random_modal_formula(rng, 12, var_count=3)
            satisfied = model_check_all(model, f)
            assert satisfied == {w for w in model.frame.worlds if _naive_check(model, w, f, memo)}, f
            assert model_check(model, model.root, f) == (model.root in satisfied)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_json_matches_json_dumps(self, seed, density):
        model = _random_large_model(random.Random(seed), density)
        assert model_to_json(model) == _dumps_reference(model.frame, model)
        assert frame_to_json(model.frame) == _dumps_reference(model.frame)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_frame_classes_match_the_pairs(self, seed, density):
        rng = random.Random(seed)
        frame = _random_large_model(rng, density).frame
        order = frame.order
        # strict and reflexive orders too, so that every class is met
        upward = KripkeFrame(
            frame.worlds, [(order[i], order[j]) for i, j in kripke._pairs(frame.succ) if i < j]
        )
        frames = [frame, upward] + [close(f, mode) for f in (frame, upward) for mode in kripke._CLOSE_MODES]
        met = set()
        for f in frames:
            for cls, member in _classes_by_pairs(f).items():
                assert frame_class_check(f, cls) == member, cls
                if member:
                    met.add(cls)
        assert met == {"GL", "Grz", "KTB"}


class TestFrameIndex:
    """Every frame holds its rows, world ids included, from construction."""

    @pytest.mark.parametrize("seed", range(20))
    def test_ids_are_the_id_strings_in_canonical_order(self, seed):
        frame = _random_json_model(random.Random(seed)).frame
        for built in (frame, close(frame, "transitive"), frame_from_json(frame_to_json(frame))):
            assert {"order", "position", "succ", "ids"} <= vars(built).keys()
            assert built.ids == tuple(map(world_id_str, built.order))
            assert list(built.ids) == sorted(built.ids)

    def test_writers_compute_no_id_on_a_built_frame(self, monkeypatch):
        rng = random.Random(11)
        models = [_random_json_model(rng) for _ in range(5)]
        models += [KripkeModel(close(m.frame, "transitive"), m.valuation, m.root) for m in models]
        models.append(KripkeModel(frame_from_json(frame_to_json(models[0].frame)), {}, models[0].root))
        calls = []
        original = kripke.world_id_str

        def counting(w):
            calls.append(w)
            return original(w)

        monkeypatch.setattr(kripke, "world_id_str", counting)
        for model in models:
            model_to_json(model)
            frame_to_json(model.frame)
            frame_to_dot(model.frame)
        assert calls == []
        KripkeFrame(models[0].frame.worlds, ())  # building a frame does compute the ids
        assert calls

    def test_edge_list_with_repeated_pairs_equals_its_set(self):
        a, b, c = _w(0), _w(1), _w(2)
        edges = [(a, b), (b, c), (a, b), (c, c), (b, c), (c, c)]
        from_set = KripkeFrame(frozenset([a, b, c]), frozenset(edges))
        for relation in (edges, iter(edges)):
            from_list = KripkeFrame(frozenset([a, b, c]), relation)
            assert from_list == from_set and from_set == from_list
            assert hash(from_list) == hash(from_set)
            assert from_list.relation == frozenset(edges)
            assert (from_list.order, from_list.position, from_list.succ, from_list.ids) == (
                from_set.order, from_set.position, from_set.succ, from_set.ids
            )

    def test_equality_and_hash_leave_the_pairs_underived(self):
        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        tree = quantifier_tree(f).frame
        worlds, edges = tree.worlds, list(tree.relation)
        for make in (
            lambda: KripkeFrame(worlds, edges),
            lambda: close(KripkeFrame(worlds, edges), "reflexive_transitive"),
            lambda: extend_model(quantifier_tree(f), encode_star(f)[1]).frame,
        ):
            frame, other = make(), make()
            assert frame is not other
            assert hash(frame) == hash(other) and frame == other
            assert "relation" not in vars(frame) and "relation" not in vars(other)

    def test_two_worlds_sharing_an_id_are_refused(self):
        # a world of a subclass is a different world with the same id
        plain, other = GadgetWorld(1, "a0"), _LookAlike(1, "a0")
        assert plain != other and world_id_str(plain) == world_id_str(other)
        for relation in ((), [(plain, other)]):
            with pytest.raises(ValueError, match=r"share the id 'gadget:m1:a0'"):
                KripkeFrame(frozenset([plain, other]), relation)


class TestGoldenOutput:
    """Byte-exact serializations; the texts and digests were captured from
    the sort-per-call implementation, so a change of index or view shows."""

    def test_extended_model_json(self):
        import hashlib

        from modalred.reduction import encode_star, extend_model, quantifier_tree
        from modalred.syntax import parse_qbf

        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        _, ctx = encode_star(f)
        # 33 worlds: the 5 of the tree and one F_m block for each m = 1..6
        # but 3, since q_0 = p3 holds everywhere
        text = model_to_json(extend_model(quantifier_tree(f), ctx))
        assert len(text) == 10169
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c7cda0108404d1081077eac7d7868323e4418519bd2d074562062ce426443660"
        )

    def test_gadget_frame_json(self):
        import hashlib

        from modalred.reduction import frame_fm_plus

        text = frame_to_json(frame_fm_plus(2))
        assert len(text) == 689
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e0071c3307e39881bd980f2ce5b821721360c3c9ff6c96e5fa28201e550088f3"
        )

    def test_gadget_frame_dot(self):
        from modalred.reduction import frame_fm_plus

        assert frame_to_dot(frame_fm_plus(2)) == (
            "digraph frame {\n"
            '  "gadget:m2:a0";\n'
            '  "gadget:m2:a1";\n'
            '  "gadget:m2:a2";\n'
            '  "gadget:m2:b";\n'
            '  "gadget:m2:c";\n'
            '  "gadget:m2:a0" -> "gadget:m2:a1";\n'
            '  "gadget:m2:a0" -> "gadget:m2:a2";\n'
            '  "gadget:m2:a0" -> "gadget:m2:b";\n'
            '  "gadget:m2:a1" -> "gadget:m2:a2";\n'
            '  "gadget:m2:b" -> "gadget:m2:b";\n'
            '  "gadget:m2:c" -> "gadget:m2:a0";\n'
            '  "gadget:m2:c" -> "gadget:m2:a1";\n'
            '  "gadget:m2:c" -> "gadget:m2:a2";\n'
            '  "gadget:m2:c" -> "gadget:m2:b";\n'
            '  "gadget:m2:c" -> "gadget:m2:c";\n'
            "}\n"
        )

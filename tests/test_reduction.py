"""The encoding, the ladder formulas, and the witness constructions."""

import itertools
import random

import pytest

from conftest import paper_extended_model
from modalred import kripke, reduction
from modalred.qbf import prenex_join
from modalred.kripke import (
    BaseWorld,
    GadgetWorld,
    KripkeFrame,
    KripkeModel,
    close,
    frame_class_check,
    model_check,
    model_check_all,
    model_to_json,
    world_id_str,
)
from modalred.reduction import (
    alpha,
    encode_alpha,
    encode_star,
    extend_model,
    frame_fm,
    frame_fm_plus,
    prepare_context,
    quantifier_tree,
    star_equivalence_violations,
)
from modalred.solver import sat_bounded, sat_k_tableau
from modalred.syntax import (
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
    formula_size,
    is_constant,
    parse_modal,
    parse_qbf,
    substitute,
)


class TestPrepareContext:
    def test_canonical_input(self):
        ctx = prepare_context(parse_qbf("A p1 . E p2 . p1 & p2"))
        assert ctx.n == 2
        assert ctx.quantifiers == (("A", 1), ("E", 2))
        assert {i: ctx.q_index(i) for i in range(ctx.n + 2)} == {0: 3, 1: 4, 2: 5, 3: 6}
        assert ctx.var_count == 6

    def test_rejects_quantifier_free(self):
        with pytest.raises(ValueError):
            prepare_context(parse_qbf("p1 -> p1"))

    def test_rejects_non_prenex(self):
        with pytest.raises(ValueError):
            prepare_context(parse_qbf("(A p1 . p1) -> false"))

    def test_rejects_wrong_variable_numbering(self):
        with pytest.raises(ValueError):
            prepare_context(parse_qbf("A p2 . p2"))
        with pytest.raises(ValueError):
            prepare_context(parse_qbf("A p1 . p1 & p3"))


class TestEncodeStar:
    def test_six_top_level_conjuncts(self):
        star, ctx = encode_star(parse_qbf("E p1 . p1"))
        assert isinstance(star, MAnd)
        assert len(star.items) == 6

    def test_root_conjunct_shape(self):
        # q_0 & ~q_1 & ~p_1, with q_0 = p_2 and q_1 = p_3
        star, _ = encode_star(parse_qbf("E p1 . p1"))
        assert star.items[0] == MAnd((MVar(2), MNot(MVar(3)), MNot(MVar(1))))

    def test_depth_sugar_parameters(self):
        star, _ = encode_star(parse_qbf("A p1 . E p2 . p1 & p2"))
        c1, c2, c3, c4, c5, c6 = star.items
        assert isinstance(c2, MBoxLe) and c2.bound == 2
        assert isinstance(c3, MBoxLe) and c3.bound == 1
        assert isinstance(c4, MBoxLe) and c4.bound == 1
        assert isinstance(c5, MBoxLe) and c5.bound == 1
        assert isinstance(c6, MBoxPow) and c6.power == 2

    def test_level_chain_covers_top_marker(self):
        # q_i -> q_{i-1} for i = 1..n+1; for n=1 that is p3->p2 and p4->p3
        star, _ = encode_star(parse_qbf("E p1 . p1"))
        chain = star.items[1]
        assert chain == MBoxLe(
            1, MAnd((MImp(MVar(3), MVar(2)), MImp(MVar(4), MVar(3))))
        )

    def test_matrix_conjunct(self):
        star, _ = encode_star(parse_qbf("E p1 . p1"))
        assert star.items[5] == MBoxPow(
            1, MImp(MAnd((MVar(3), MNot(MVar(4)))), MVar(1))
        )

    def test_exists_satisfiable(self):
        star, _ = encode_star(parse_qbf("E p1 . p1"))
        assert sat_k_tableau(star).satisfiable
        assert sat_bounded(star, 4).satisfiable

    def test_forall_unsatisfiable(self):
        star, _ = encode_star(parse_qbf("A p1 . p1"))
        assert not sat_k_tableau(star).satisfiable
        assert not sat_bounded(star, 4).satisfiable


# every quantifier prefix with one to three quantifiers
PREFIXES = ["".join(kinds) for n in (1, 2, 3) for kinds in itertools.product("AE", repeat=n)]


def _prenex(kinds: str, matrix: str):
    return prenex_join([(kind, i) for i, kind in enumerate(kinds, start=1)], parse_qbf(matrix))


class TestPrefixTable:
    """Conjuncts (1)-(5) come from a process-wide table keyed by the
    quantifier prefix, and the matrix's modal copy from a process-wide memo."""

    @pytest.mark.parametrize("kinds", PREFIXES)
    def test_clearing_the_tables_encodes_the_identical_node(self, monkeypatch, kinds):
        f = _prenex(kinds, "p1 -> false | p1")
        star, ctx = encode_star(f)
        assert reduction._PREFIXES[ctx.quantifiers][:5] == star.items[:5]
        monkeypatch.setattr(reduction, "_PREFIXES", {})
        monkeypatch.setattr(reduction, "_MATRICES", {})
        assert encode_star(f)[0] is star
        assert set(reduction._PREFIXES) == {ctx.quantifiers}

    @pytest.mark.parametrize("kinds", PREFIXES)
    def test_one_prefix_builds_its_conjuncts_once(self, monkeypatch, kinds):
        first, _ = encode_star(_prenex(kinds, "p1"))
        # building conjuncts (2)-(5) again would fail without these
        for name in ("MBoxLe", "MDia", "MBox"):
            monkeypatch.setattr(reduction, name, None)
        second, _ = encode_star(_prenex(kinds, "p1 & ~p1"))
        assert second.items[:5] == first.items[:5]
        assert second.items[5] is not first.items[5]

    @pytest.mark.parametrize("kinds", PREFIXES)
    def test_prefixes_one_quantifier_apart_differ_in_conjuncts_3_and_4(self, kinds):
        star, _ = encode_star(_prenex(kinds, "p1"))
        for i in range(len(kinds)):
            flipped = kinds[:i] + ("E" if kinds[i] == "A" else "A") + kinds[i + 1 :]
            other, _ = encode_star(_prenex(flipped, "p1"))
            assert other.items[2] is not star.items[2]
            assert other.items[3] is not star.items[3]
            # (1), (2), (5) and the matrix conjunct depend on n alone
            assert [other.items[k] for k in (0, 1, 4, 5)] == [star.items[k] for k in (0, 1, 4, 5)]


class TestAlpha:
    def test_alpha_one_structure(self):
        blind = MBox(MFalse())
        expected = MBox(
            MImp(
                MAnd((MDia(blind), MNot(MDia(MDia(blind))))),
                MBox(MImp(MDia(MTrue()), MDia(blind))),
            )
        )
        assert alpha(1) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            alpha(0)

    def test_rejects_bool(self):
        alpha(1)  # in the table of built ladders, where True would find it
        with pytest.raises(ValueError, match="alpha index must be a positive integer, got True"):
            alpha(True)

    def test_a_ladder_is_built_once(self, monkeypatch):
        ladder = alpha(23)
        monkeypatch.setattr(reduction, "MDia", None)  # building again would fail
        assert alpha(23) is ladder

    def test_variable_free(self):
        for k in range(1, 11):
            assert is_constant(alpha(k))

    def test_linear_size(self):
        c1 = formula_size(alpha(1))
        for m in range(1, 11):
            assert formula_size(alpha(m)) <= c1 * m

    def test_refuted_exactly_at_entry_world(self):
        for m in (1, 2, 3, 4):
            frame = frame_fm_plus(m)
            entry = GadgetWorld(m, "c", None)
            model = KripkeModel(frame, {}, entry)
            satisfied = model_check_all(model, alpha(m))
            assert satisfied == frame.worlds - {entry}


class TestEncodeAlpha:
    def test_constant_output(self):
        for text in ("E p1 . p1", "A p1 . p1", "A p1 . E p2 . p1 | p2"):
            assert is_constant(encode_alpha(parse_qbf(text)))

    def test_matches_substitution_of_star(self):
        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        star, ctx = encode_star(f)
        mapping = {i: alpha(i) for i in range(1, ctx.var_count + 1)}
        assert encode_alpha(f) is substitute(star, mapping)

    def test_satisfiability_tracks_truth(self):
        assert sat_k_tableau(encode_alpha(parse_qbf("E p1 . p1"))).satisfiable
        assert not sat_k_tableau(encode_alpha(parse_qbf("A p1 . p1"))).satisfiable


class TestQuantifierTree:
    def test_exists_two_worlds(self):
        tree = quantifier_tree(parse_qbf("E p1 . p1"))
        assert len(tree.frame.worlds) == 2
        assert tree.root == BaseWorld(0, frozenset(), 0)
        assert BaseWorld(1, frozenset({1}), 1) in tree.frame.worlds

    def test_forall_three_worlds(self):
        tree = quantifier_tree(parse_qbf("A p1 . p1 -> p1"))
        assert len(tree.frame.worlds) == 3
        levels = sorted((w.level, sorted(w.assignment)) for w in tree.frame.worlds)
        assert levels == [(0, []), (1, []), (1, [1])]

    def test_false_formula_rejected(self):
        with pytest.raises(ValueError):
            quantifier_tree(parse_qbf("A p1 . p1"))

    def test_exists_prefers_child_without_variable(self):
        # both children satisfy the residual here, so the empty child is taken
        tree = quantifier_tree(parse_qbf("E p1 . p1 -> p1"))
        child = next(w for w in tree.frame.worlds if w.level == 1)
        assert child.assignment == frozenset()

    def test_upward_persistence(self):
        tree = quantifier_tree(parse_qbf("A p1 . E p2 . p1 -> p2"))
        for u, v in tree.frame.relation:
            for index, members in tree.valuation.items():
                assert not (u in members and v not in members)

    def test_model_checks_the_encoding(self):
        for text in ("E p1 . p1", "A p1 . p1 -> p1", "A p1 . E p2 . p1 -> p2"):
            f = parse_qbf(text)
            star, _ = encode_star(f)
            tree = quantifier_tree(f)
            assert model_check(tree, tree.root, star)

    def test_closures_reach_the_three_frame_classes(self):
        tree = quantifier_tree(parse_qbf("A p1 . E p2 . p1 -> p2"))
        assert frame_class_check(close(tree.frame, "transitive"), "GL")
        assert frame_class_check(close(tree.frame, "reflexive_transitive"), "Grz")
        assert frame_class_check(close(tree.frame, "reflexive_symmetric"), "KTB")


class TestGadgetFrames:
    def test_world_counts(self):
        for m in (1, 2, 5):
            assert len(frame_fm(m).worlds) == m + 2
            assert len(frame_fm_plus(m).worlds) == m + 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            frame_fm(0)
        with pytest.raises(ValueError):
            frame_fm_plus(0)

    def test_rejects_bool(self):
        # frame_fm(True) would write the ids gadget:mTrue:a0, which no reader accepts
        for build in (frame_fm, frame_fm_plus):
            with pytest.raises(ValueError, match="gadget index must be a positive integer, got True"):
                build(True)

    def test_top_rung_is_blind(self):
        m = 3
        frame = frame_fm(m)
        model = KripkeModel(frame, {}, GadgetWorld(m, "a3", None))
        assert model_check(model, GadgetWorld(m, "a3", None), MBox(MFalse()))

    def test_side_world_sees_forever(self):
        m = 3
        frame = frame_fm(m)
        b = GadgetWorld(m, "b", None)
        model = KripkeModel(frame, {}, b)
        assert model_check(model, b, parse_modal("<> true & [] <> true"))

    def test_mixed_reflexivity_breaks_gl(self):
        assert not frame_class_check(frame_fm(2), "GL")

    def test_relation_is_transitively_closed(self):
        for m in (1, 3):
            frame = frame_fm_plus(m)
            assert close(frame, "transitive").relation == frame.relation


def _reference_violations(base, extended, ctx):
    """(world, m) where alpha(m) is refuted but the world is not a base world
    refuting p_m, or the other way round; m ascending, worlds in id order.
    alpha(m) is evaluated on a frame rebuilt from the pairs, so neither the
    rows ``extend_model`` wrote nor answers kept on its frame are read."""
    rebuilt = KripkeModel(KripkeFrame(extended.frame.worlds, extended.frame.relation), {}, extended.root)
    violations = []
    for m in range(1, ctx.var_count + 1):
        satisfied = model_check_all(rebuilt, alpha(m))
        holders = base.valuation.get(m, frozenset())
        for w in sorted(extended.frame.worlds, key=world_id_str):
            refutes_p = w in base.frame.worlds and w not in holders
            if (w not in satisfied) != refutes_p:
                violations.append((w, m))
    return violations


class TestExtendModel:
    def test_a_table_hands_an_equal_base_the_stored_model(self):
        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        _, ctx = encode_star(f)
        tree, table = quantifier_tree(f), {}
        stored = extend_model(tree, ctx, table)
        again = quantifier_tree(f)
        assert again is not tree
        assert extend_model(again, ctx, table) is stored
        assert list(table) == [(tree, ctx.var_count)]

    def test_a_lone_call_equals_the_table_model_and_retains_nothing(self):
        import gc
        import weakref

        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        _, ctx = encode_star(f)
        tree = quantifier_tree(f)
        stored = extend_model(tree, ctx, {})
        lone = extend_model(tree, ctx)
        assert lone == stored and lone is not stored
        assert model_to_json(lone) == model_to_json(stored)
        gone = weakref.ref(lone)
        del lone
        gc.collect()
        assert gone() is None
        assert extend_model(tree, ctx) is not stored

    def test_the_ladder_map_of_one_prefix_is_substituted_once(self):
        # two equal ladder maps, built apart and in other orders, share one
        # memo, so the parts c1..c5 of equal prefixes come back as one node
        from modalred import syntax

        star, ctx = encode_star(parse_qbf("A p1 . E p2 . p1 -> p2"))
        other, _ = encode_star(parse_qbf("A p1 . E p2 . p2 | false"))
        forward = {i: alpha(i) for i in range(1, ctx.var_count + 1)}
        backward = {i: alpha(i) for i in range(ctx.var_count, 0, -1)}
        image = substitute(star, forward)
        memos = len(syntax._SUBSTITUTE_MEMOS)
        assert substitute(star, backward) is image
        assert substitute(other, backward).items[:5] == image.items[:5]
        assert len(syntax._SUBSTITUTE_MEMOS) == memos
        assert image is encode_alpha(parse_qbf("A p1 . E p2 . p1 -> p2"))

    def test_copy_count_for_exists(self):
        f = parse_qbf("E p1 . p1")
        star, ctx = encode_star(f)
        tree = quantifier_tree(f)
        extended = extend_model(tree, ctx)
        # root lacks p1, q1, q2 (blocks F_1, F_3, F_4 of sizes 3, 5, 6);
        # child lacks q2 only; q0 = p2 holds everywhere, so F_2 is absent
        assert len(extended.frame.worlds) == 2 + 3 + 5 + 6
        assert {v.gadget for v in extended.frame.worlds if isinstance(v, GadgetWorld)} == {1, 3, 4}

    def test_extended_model_satisfies_constant_encoding(self):
        f = parse_qbf("E p1 . p1")
        _, ctx = encode_star(f)
        tree = quantifier_tree(f)
        extended = extend_model(tree, ctx)
        assert model_check(extended, extended.root, encode_alpha(f))

    def test_star_equivalence_holds_everywhere(self):
        for text in ("E p1 . p1", "A p1 . p1 -> p1", "A p1 . E p2 . p1 -> p2"):
            f = parse_qbf(text)
            _, ctx = encode_star(f)
            tree = quantifier_tree(f)
            extended = extend_model(tree, ctx)
            assert star_equivalence_violations(tree, extended, ctx) == []

    @pytest.mark.parametrize("text", ["E p1 . p1", "A p1 . E p2 . p1 -> p2", "E p1 . A p2 . E p3 . p1 | p3"])
    def test_star_equivalence_reports_violations(self, text):
        # break the extension per m at a base world w refuting p_m whose
        # successors all hold p_m, so that w sees F_m through none of them:
        # once by dropping w's edges into the F_m block, once by making w a
        # p_m holder
        f = parse_qbf(text)
        _, ctx = encode_star(f)
        tree = quantifier_tree(f)
        extended = extend_model(tree, ctx)
        broken = 0
        for m in range(1, ctx.var_count + 1):
            holders = tree.valuation.get(m, frozenset())
            lowest = [
                w for w in sorted(tree.frame.worlds, key=world_id_str)
                if w not in holders and all(v in holders for u, v in tree.frame.relation if u == w)
            ]
            if not lowest:
                continue  # p_m holds everywhere (q_0, say)
            w = lowest[-1]
            block = {v for v in extended.frame.worlds if isinstance(v, GadgetWorld) and v.gadget == m}
            assert block
            broken += 1
            dropped = KripkeModel(
                KripkeFrame(
                    extended.frame.worlds,
                    frozenset((u, v) for u, v in extended.frame.relation if u != w or v not in block),
                ),
                extended.valuation,
                extended.root,
            )
            marked = KripkeModel(tree.frame, {**tree.valuation, m: holders | {w}}, tree.root)
            for base, ext in ((tree, dropped), (marked, extended)):
                violations = star_equivalence_violations(base, ext, ctx)
                assert (w, m) in violations
                assert violations == _reference_violations(base, ext, ctx)
        assert broken >= ctx.n
        # every p_m everywhere: each world seeing a block breaks, over all m at once
        everywhere = KripkeModel(tree.frame, dict.fromkeys(range(1, ctx.var_count + 1), tree.frame.worlds), tree.root)
        violations = star_equivalence_violations(everywhere, extended, ctx)
        assert len(violations) > 1
        assert violations == _reference_violations(everywhere, extended, ctx)

    def test_relation_is_transitive(self):
        f = parse_qbf("E p1 . p1")
        _, ctx = encode_star(f)
        extended = extend_model(quantifier_tree(f), ctx)
        assert close(extended.frame, "transitive").relation == extended.frame.relation

    def test_rejects_non_persistent_base(self):
        f = parse_qbf("E p1 . p1")
        _, ctx = encode_star(f)
        tree = quantifier_tree(f)
        broken = KripkeModel(
            tree.frame,
            {**tree.valuation, 1: frozenset([tree.root])},
            tree.root,
        )
        with pytest.raises(ValueError):
            extend_model(broken, ctx)

    def test_wgrz_validity_of_extended_frame_is_decided_or_refused(self):
        # the valuation search space is 2^|worlds| for the one-variable
        # axiom: the 16 worlds of the smallest extension fit the default
        # budget and are searched; the 33 of the next one are refused,
        # never given an unverified "valid"
        from modalred.kripke import ValuationBudgetError, frame_validates, wgrz_axiom

        f = parse_qbf("E p1 . p1")
        _, ctx = encode_star(f)
        extended = extend_model(quantifier_tree(f), ctx)
        assert len(extended.frame.worlds) == 16
        assert frame_validates(extended.frame, wgrz_axiom()) is True
        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        _, ctx = encode_star(f)
        extended = extend_model(quantifier_tree(f), ctx)
        assert len(extended.frame.worlds) == 33
        with pytest.raises(ValuationBudgetError):
            frame_validates(extended.frame, wgrz_axiom())


def _pair_built_extension(base, ctx):
    """The extended model built the plain way: the pairs of one F_m for
    every m some base world lacks, the edge into it from each such world,
    then the transitive closure of the whole frame."""
    worlds, edges = set(base.frame.worlds), list(base.frame.relation)
    for m in range(1, ctx.var_count + 1):
        lacking = base.frame.worlds - base.valuation.get(m, frozenset())
        if lacking:
            a = [GadgetWorld(m, f"a{i}") for i in range(m + 1)]
            b = GadgetWorld(m, "b")
            worlds.update([b, *a])
            edges += [(a[0], b), (b, b)] + [(a[i], a[i + 1]) for i in range(m)] + [(w, a[0]) for w in lacking]
    frame = close(KripkeFrame(frozenset(worlds), edges), "transitive")
    return KripkeModel(frame, dict(base.valuation), base.root)


def _layout_corpus():
    """True formulas of every prefix of up to three quantifiers, two
    matrices each, and seeded five-quantifier ones whose trees have at least
    11 worlds: their gadget ids meet ``m10`` before ``m1:`` and ``a10``
    before ``a2``."""
    from modalred.pipeline import random_matrix
    from modalred.qbf import is_true_qbf

    rng = random.Random(380)
    found = []
    for n in (1, 2, 3):
        for prefix in itertools.product("AE", repeat=n):
            true = []
            while len(true) < 2:
                f = prenex_join(list(zip(prefix, range(1, n + 1))), random_matrix(rng, n, 7))
                if is_true_qbf(f) and f not in true:
                    true.append(f)
            found += true
    wide = 0
    while wide < 4:
        f = prenex_join([(rng.choice("AE"), k) for k in range(1, 6)], random_matrix(rng, 5, 9))
        if is_true_qbf(f) and len(quantifier_tree(f).frame.worlds) >= 11:
            found.append(f)
            wide += 1
    return found


def _true_corpus():
    from modalred.pipeline import build_corpus
    from modalred.qbf import is_true_qbf

    corpus = build_corpus(n_max=4, matrix_size_max_n1=3, matrix_size_max=7, count=18, seed=23)
    return [f for f in corpus if is_true_qbf(f)]


def _context(n):
    return prepare_context(parse_qbf(" . ".join(f"E p{i}" for i in range(1, n + 1)) + " . p1"))


def _hand_built_bases():
    """(name, base model, context) for bases no quantifier tree has."""
    u, v, w = (BaseWorld(level, frozenset(), serial) for level, serial in ((0, 0), (1, 1), (1, 2)))
    ctx = _context(1)  # p1..p4
    every = range(1, ctx.var_count + 1)
    single = KripkeFrame(frozenset([u]), [])
    chain = KripkeFrame(frozenset([u, v, w]), [(u, v), (v, w)])
    loop = KripkeFrame(frozenset([u, v]), [(u, u), (u, v), (v, v)])
    cycle = KripkeFrame(frozenset([u, v, w]), [(u, v), (v, u), (v, w)])
    return [
        ("one world holds every variable", KripkeModel(single, {k: frozenset([u]) for k in every}, u), ctx),
        ("one world holds none", KripkeModel(single, {}, u), ctx),
        ("p2 false everywhere", KripkeModel(chain, {1: frozenset([w]), 2: frozenset(), 3: chain.worlds}, u), ctx),
        ("self-loops", KripkeModel(loop, {1: frozenset([v]), 4: loop.worlds}, u), ctx),
        ("2-cycle", KripkeModel(cycle, {2: frozenset([w]), 3: frozenset([u, v, w])}, v), _context(2)),
    ]


class TestExtendModelClosedForm:
    """``extend_model`` writes the closed frame directly; it must equal the
    pair-built closure in every index field and byte of its JSON."""

    def _assert_same(self, base, ctx):
        extended, reference = extend_model(base, ctx), _pair_built_extension(base, ctx)
        assert extended.frame.order == reference.frame.order
        assert extended.frame.succ == reference.frame.succ
        # the frame is built with its predecessor rows, never derived later
        assert vars(extended.frame)["_pred"] == kripke._transpose(extended.frame.succ)
        assert extended.frame.ids == reference.frame.ids
        assert extended.frame.position == reference.frame.position
        assert extended == reference
        assert model_to_json(extended) == model_to_json(reference)

    def test_true_corpus_matches_the_pair_built_closure(self):
        corpus = _true_corpus()
        assert {prepare_context(f).n for f in corpus} == {1, 2, 3, 4}
        for f in corpus:
            self._assert_same(quantifier_tree(f), prepare_context(f))

    def test_layout_corpus_matches_the_pair_built_closure(self):
        corpus = _layout_corpus()
        assert {prepare_context(f).quantifiers for f in corpus} >= {
            tuple(zip(p, range(1, n + 1))) for n in (1, 2, 3) for p in itertools.product("AE", repeat=n)
        }
        for f in corpus:
            base, ctx = quantifier_tree(f), prepare_context(f)
            self._assert_same(base, ctx)
            if ctx.n == 5:
                # string order, which the ids follow, is not numeric order here
                ids = extend_model(base, ctx).frame.ids
                assert ids.index("gadget:m10:a0") < ids.index("gadget:m1:a0")
                assert ids.index("gadget:m12:a10") < ids.index("gadget:m12:a2")

    def test_every_block_is_frame_fm_shifted_to_its_start(self):
        # F_m has one definition: frame_fm builds it once per process, and
        # each block of an extended model is that frame's worlds, ids and
        # rows, the rows shifted to the block's first position
        checked = set()
        for f in _layout_corpus():
            base, ctx = quantifier_tree(f), prepare_context(f)
            if ctx.var_count < 10:
                continue
            frame = extend_model(base, ctx).frame
            for m in range(1, ctx.var_count + 1):
                gadget = frame_fm(m)
                if gadget.ids[0] not in frame.ids:
                    continue  # every base world holds p_m
                start = frame.ids.index(gadget.ids[0])
                block = slice(start, start + len(gadget.order))
                assert frame.order[block] == gadget.order
                assert frame.ids[block] == gadget.ids
                assert frame.succ[block] == tuple(row << start for row in gadget.succ)
                checked.add(m)
        assert {10, 11, 12} <= checked
        assert all(frame_fm(m) is frame_fm(m) for m in range(1, 13))
        # the table holds F_1, and True == 1: the index is checked first
        with pytest.raises(ValueError, match="gadget index must be a positive integer, got True"):
            frame_fm(True)

    @pytest.mark.parametrize("case", _hand_built_bases(), ids=lambda case: case[0])
    def test_hand_built_bases_match_the_pair_built_closure(self, case):
        _, base, ctx = case
        self._assert_same(base, ctx)

    def test_a_world_holding_every_variable_gets_no_block(self):
        _, base, ctx = _hand_built_bases()[0]
        assert extend_model(base, ctx).frame == base.frame

    @pytest.mark.parametrize("text", ["E p1 . p1", "A p1 . E p2 . p1 -> p2"])
    def test_non_persistent_base_is_refused_with_the_same_message(self, text):
        f = parse_qbf(text)
        tree, ctx = quantifier_tree(f), prepare_context(f)
        # p1 and every marker at the root only: the first violating pair in
        # id order decides which one the message names
        broken = KripkeModel(
            tree.frame,
            {**tree.valuation, **{k: frozenset([tree.root]) for k in range(1, ctx.var_count + 1)}},
            tree.root,
        )
        with pytest.raises(ValueError) as reference:
            paper_extended_model(broken, ctx)
        with pytest.raises(ValueError) as closed_form:
            extend_model(broken, ctx)
        assert str(closed_form.value) == str(reference.value)
        assert str(closed_form.value).startswith("valuation is not upward persistent: p1 holds at base:L0:{}:#0")

    def test_gadget_base_is_refused(self):
        g = GadgetWorld(1, "b", None)
        base = KripkeModel(KripkeFrame(frozenset([g]), []), {}, g)
        with pytest.raises(ValueError, match="^extend_model expects a quantifier-tree model$"):
            extend_model(base, _context(1))


def _forget_host(w):
    """The world of the shared model that the paper's world ``w`` maps to."""
    return GadgetWorld(w.gadget, w.part) if isinstance(w, GadgetWorld) else w


def _wgrz_rows(frame) -> bool:
    """The wGrz row test: transitive, and no two distinct worlds see each other."""
    _, _, _, antisymmetric, transitive = kripke._properties(frame)
    return transitive and antisymmetric


class TestPaperModel:
    """``extend_model`` writes one F_m block per m where the paper hangs a
    copy of F_m below every base world lacking p_m.  Forgetting the host
    must be a bounded morphism from the paper's model onto it, so that
    both satisfy the same formulas at every world and its image."""

    def _assert_faithful(self, base, ctx, tree=True):
        paper, shared = paper_extended_model(base, ctx), extend_model(base, ctx)
        image = {w: _forget_host(w) for w in paper.frame.worlds}
        assert set(image.values()) == shared.frame.worlds
        assert image[paper.root] == shared.root
        # forth and back: the images of a world's successors are exactly
        # the successors of its image
        successors = {w: set() for w in paper.frame.worlds}
        for u, v in paper.frame.relation:
            successors[u].add(image[v])
        shared_successors = {w: set() for w in shared.frame.worlds}
        for u, v in shared.frame.relation:
            shared_successors[u].add(v)
        assert all(successors[w] == shared_successors[image[w]] for w in paper.frame.worlds)
        # valuation: a world holds p exactly where its image does
        assert paper.valuation.keys() == shared.valuation.keys()
        for index, members in paper.valuation.items():
            assert {image[w] for w in members} == shared.valuation[index]
            assert all(image[w] not in shared.valuation[index] for w in paper.frame.worlds - members)
        f = prenex_join(list(ctx.quantifiers), ctx.matrix)
        for g in [encode_star(f)[0], encode_alpha(f), *(alpha(m) for m in range(1, ctx.var_count + 1))]:
            holds = model_check_all(shared, g)
            assert model_check_all(paper, g) == {w for w in paper.frame.worlds if image[w] in holds}
        assert _wgrz_rows(shared.frame) == _wgrz_rows(paper.frame)
        if tree:
            assert _wgrz_rows(shared.frame)
            assert model_check(shared, shared.root, encode_alpha(f))

    def test_true_corpus(self):
        for f in _true_corpus():
            self._assert_faithful(quantifier_tree(f), prepare_context(f))

    def test_layout_corpus(self):
        corpus = _layout_corpus()
        assert {prepare_context(f).n for f in corpus} == {1, 2, 3, 5}
        for f in corpus:
            self._assert_faithful(quantifier_tree(f), prepare_context(f))

    @pytest.mark.parametrize("case", _hand_built_bases(), ids=lambda case: case[0])
    def test_hand_built_bases(self, case):
        _, base, ctx = case
        self._assert_faithful(base, ctx, tree=False)

"""The encoding, the ladder formulas, and the witness constructions."""

import pytest

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
        assert ctx.renaming == {0: 3, 1: 4, 2: 5, 3: 6}
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
        with pytest.raises(ValueError, match="alpha index must be a positive integer, got True"):
            alpha(True)

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
    refuting p_m, or the other way round; m ascending, worlds in id order."""
    violations = []
    for m in range(1, ctx.var_count + 1):
        satisfied = model_check_all(extended, alpha(m))
        holders = base.valuation.get(m, frozenset())
        for w in sorted(extended.frame.worlds, key=world_id_str):
            refutes_p = w in base.frame.worlds and w not in holders
            if (w not in satisfied) != refutes_p:
                violations.append((w, m))
    return violations


class TestExtendModel:
    def test_copy_count_for_exists(self):
        f = parse_qbf("E p1 . p1")
        star, ctx = encode_star(f)
        tree = quantifier_tree(f)
        extended = extend_model(tree, ctx)
        # root lacks p1, q1, q2 (copies of sizes 3, 5, 6); child lacks q2 only
        assert len(extended.frame.worlds) == 2 + (3 + 5 + 6) + 6

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
        # successors all hold p_m, so that w sees no F_m copy but its own:
        # once by dropping that copy, once by making w a p_m holder
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
            copy = {v for v in extended.frame.worlds if isinstance(v, GadgetWorld) and (v.gadget, v.host) == (m, w)}
            assert copy
            broken += 1
            dropped = KripkeModel(
                KripkeFrame(
                    extended.frame.worlds - copy,
                    frozenset((u, v) for u, v in extended.frame.relation if u not in copy and v not in copy),
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
        # every p_m everywhere: each copy's host breaks, over all m at once
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

    def test_wgrz_validity_of_extended_frame_is_refused_not_guessed(self):
        # the valuation search space (2^|worlds| for the one-variable axiom)
        # is over the default budget even for the smallest extension, so the
        # answer is an explicit refusal, never an unverified "valid"
        from modalred.kripke import ValuationBudgetError, frame_validates, wgrz_axiom

        f = parse_qbf("E p1 . p1")
        _, ctx = encode_star(f)
        extended = extend_model(quantifier_tree(f), ctx)
        with pytest.raises(ValuationBudgetError):
            frame_validates(extended.frame, wgrz_axiom())


def _pair_built_extension(base, ctx):
    """The extended model built the plain way: every F_m copy's pairs and
    the edge from its host, then the transitive closure of the whole frame."""
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
    worlds = set(base.frame.worlds)
    for m in range(1, ctx.var_count + 1):
        for w in base.frame.worlds - base.valuation.get(m, frozenset()):
            a = [GadgetWorld(m, f"a{i}", w) for i in range(m + 1)]
            b = GadgetWorld(m, "b", w)
            worlds.update([b, *a])
            edges += [(w, a[0]), (a[0], b), (b, b)] + [(a[i], a[i + 1]) for i in range(m)]
    frame = close(KripkeFrame(frozenset(worlds), edges), "transitive")
    return KripkeModel(frame, dict(base.valuation), base.root)


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
        assert extended.frame.ids == reference.frame.ids
        assert extended.frame.position == reference.frame.position
        assert extended == reference
        assert model_to_json(extended) == model_to_json(reference)

    def test_true_corpus_matches_the_pair_built_closure(self):
        corpus = _true_corpus()
        assert {prepare_context(f).n for f in corpus} == {1, 2, 3, 4}
        for f in corpus:
            self._assert_same(quantifier_tree(f), prepare_context(f))

    @pytest.mark.parametrize("case", _hand_built_bases(), ids=lambda case: case[0])
    def test_hand_built_bases_match_the_pair_built_closure(self, case):
        _, base, ctx = case
        self._assert_same(base, ctx)

    def test_a_world_holding_every_variable_gets_no_copy(self):
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
            _pair_built_extension(broken, ctx)
        with pytest.raises(ValueError) as closed_form:
            extend_model(broken, ctx)
        assert str(closed_form.value) == str(reference.value)
        assert str(closed_form.value).startswith("valuation is not upward persistent: p1 holds at base:L0:{}:#0")

    def test_gadget_base_is_refused(self):
        g = GadgetWorld(1, "b", None)
        base = KripkeModel(KripkeFrame(frozenset([g]), []), {}, g)
        with pytest.raises(ValueError, match="^extend_model expects a quantifier-tree model$"):
            extend_model(base, _context(1))

"""Corpus generation and the verification pipeline."""

import gc
import hashlib
import itertools
import json
import random
import weakref

import pytest

from conftest import mask_steps, qbf_size, random_closed_qbf, random_modal_formula
from modalred.pipeline import (
    VerifyReport,
    build_corpus,
    check_instance,
    exhaustive_matrices,
    random_matrix,
    report_lines,
    report_summary,
    run_verify,
)
from modalred.qbf import free_vars, is_prenex, prenex_split
from modalred.reduction import encode_star, quantifier_tree
from modalred.solver import sat_k_tableau
from modalred.syntax import formula_size, parse_qbf, render


class TestGenerators:
    def test_exhaustive_matrix_counts(self):
        # leaves: false, p1; sizes 1, 3, 5
        assert len(exhaustive_matrices(1)) == 2
        assert len(exhaustive_matrices(3)) == 2 + 12
        assert len(exhaustive_matrices(5)) == 2 + 12 + 144

    def test_exhaustive_matrices_are_quantifier_free_and_bounded(self):
        for m in exhaustive_matrices(5):
            assert qbf_size(m) <= 5
            assert free_vars(m) <= {1}

    def test_random_matrix_respects_bounds(self):
        rng = random.Random(0)
        for _ in range(50):
            m = random_matrix(rng, 3, 9)
            assert qbf_size(m) <= 9
            assert free_vars(m) <= {1, 2, 3}

    def test_random_closed_qbf_is_closed_and_small(self):
        rng = random.Random(1)
        for _ in range(50):
            f = random_closed_qbf(rng, 9)
            assert free_vars(f) == frozenset()
            assert qbf_size(f) <= 9

    def test_random_modal_formula_size(self):
        rng = random.Random(2)
        for _ in range(50):
            assert formula_size(random_modal_formula(rng, 12)) >= 1

    @pytest.mark.parametrize("generator", [random_matrix, random_modal_formula, random_closed_qbf])
    @pytest.mark.parametrize("max_size", [0, -3, True, 1.5])
    def test_generators_reject_nonpositive_max_size(self, generator, max_size):
        args = (random.Random(0), 2, max_size) if generator is random_matrix else (random.Random(0), max_size)
        with pytest.raises(ValueError) as err:
            generator(*args)
        assert str(err.value) == f"max_size must be a positive integer, got {max_size!r}"

    def test_corpus_is_canonical_prenex(self):
        corpus = build_corpus(n_max=3, matrix_size_max_n1=3, count=10, seed=0)
        assert len(corpus) == 2 * len(exhaustive_matrices(3)) + 10
        for f in corpus:
            assert is_prenex(f)
            prefix, _ = prenex_split(f)
            assert [i for _, i in prefix] == list(range(1, len(prefix) + 1))

    def test_corpus_is_seed_deterministic(self):
        a = build_corpus(n_max=3, count=20, seed=5)
        b = build_corpus(n_max=3, count=20, seed=5)
        c = build_corpus(n_max=3, count=20, seed=6)
        assert [render(f) for f in a] == [render(f) for f in b]
        assert [render(f) for f in a] != [render(f) for f in c]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_max": 0}, "n_max must be a positive integer, got 0"),
            ({"n_max": -2}, "n_max must be a positive integer, got -2"),
            ({"n_max": True}, "n_max must be a positive integer, got True"),
            ({"count": -3}, "count must be a non-negative integer, got -3"),
            ({"count": False}, "count must be a non-negative integer, got False"),
            ({"count": 1.5}, "count must be a non-negative integer, got 1.5"),
            ({"matrix_size_max": 0}, "matrix_size_max must be a positive integer, got 0"),
            ({"matrix_size_max": True}, "matrix_size_max must be a positive integer, got True"),
            ({"matrix_size_max_n1": -1}, "matrix_size_max_n1 must be a non-negative integer, got -1"),
        ],
    )
    def test_out_of_range_sizes_are_errors(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            build_corpus(**kwargs)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            run_verify(**kwargs)
        assert str(raised.value) == message

    def test_zero_count_gives_the_n1_corpus(self):
        assert build_corpus(n_max=3, count=0) == build_corpus(n_max=1)


class TestVerifyReport:
    def test_keyword_construction(self):
        report = VerifyReport(params={"seed": 0}, c1=5, c2=3, records=[{"pass": True}])
        assert (report.params, report.c1, report.c2, report.records) == ({"seed": 0}, 5, 3, [{"pass": True}])
        assert report.aggregate_pass
        report.records.append({"pass": False})
        assert not report.aggregate_pass

    def test_reports_without_records_do_not_share_a_list(self):
        first, second = VerifyReport(params={}, c1=1, c2=2), VerifyReport({}, 1, 2)
        assert first.records == [] and first.records is not second.records
        first.records.append({"pass": True})
        assert second.records == []

    def test_equality_and_repr_follow_the_fields(self):
        report = VerifyReport(params={}, c1=1, c2=2)
        assert report == VerifyReport({}, 1, 2, []) and report != VerifyReport({}, 1, 3)
        assert repr(report) == "VerifyReport(params={}, c1=1, c2=2, records=[])"
        with pytest.raises(TypeError):
            hash(report)


class TestCheckInstance:
    def test_true_instance_record(self):
        from modalred.syntax import parse_qbf

        record = check_instance(parse_qbf("E p1 . p1"), 0, c2=1)
        assert record["pass"]
        assert record["is_true"] and record["star_sat"] and record["alpha_sat"]
        assert record["witness_ok"] and record["alpha_constant"]
        assert record["closures"] == {"gl": True, "grz": True, "ktb": True}
        assert record["extended_ok"] and record["star_equivalence_ok"]

    def test_false_instance_record(self):
        from modalred.syntax import parse_qbf

        record = check_instance(parse_qbf("A p1 . p1"), 3, c2=1)
        assert record["pass"]
        assert not record["is_true"]
        assert not record["star_sat"] and not record["alpha_sat"]
        assert record["witness_ok"] is None

    def test_budget_exhaustion_reported_as_unknown(self):
        from modalred.syntax import parse_qbf

        record = check_instance(parse_qbf("A p1 . E p2 . p1 -> p2"), 0, c2=1, budget=5)
        assert not record["pass"]
        assert record["error"].startswith("unknown:")

    def test_substitution_check_sees_a_wrong_image(self, monkeypatch):
        from modalred import pipeline, reduction
        from modalred.syntax import parse_qbf, substitute

        def swapped(f, mapping):
            return substitute(f, {**mapping, 1: mapping[2], 2: mapping[1]})

        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        assert check_instance(f, 0, c2=1)["substitution_ok"] is True
        monkeypatch.setattr(reduction, "substitute", swapped)
        monkeypatch.setattr(pipeline, "substitute", swapped)
        assert check_instance(f, 0, c2=1)["substitution_ok"] is False

    def test_a_failed_substitution_check_keeps_no_pairs(self):
        # matched pairs are kept per mapping, but only from a walk that
        # matched all of them: a wrong image fails every time
        from modalred.pipeline import _substitutes
        from modalred.reduction import alpha, encode_star
        from modalred.syntax import parse_qbf, substitute

        star, ctx = encode_star(parse_qbf("E p1 . A p2 . p1 & p2"))
        amap = {i: alpha(i) for i in range(1, ctx.var_count + 1)}
        wrong = substitute(star, {**amap, 1: amap[2], 2: amap[1]})
        for _ in range(2):
            assert _substitutes(star, wrong, amap) is False
        assert _substitutes(star, substitute(star, amap), amap) is True
        assert _substitutes(star, wrong, amap) is False

    def test_both_queries_search_in_the_process_context(self, monkeypatch):
        from modalred import pipeline
        from modalred.syntax import is_constant, parse_qbf

        calls = []

        def spied(f, budget, context=None):
            calls.append((is_constant(f), context))
            return sat_k_tableau(f, budget, context)

        monkeypatch.setattr(pipeline, "sat_k_tableau", spied)
        assert check_instance(parse_qbf("A p1 . E p2 . p1 -> p2"), 0, c2=1)["pass"]
        assert calls == [(False, pipeline._CONTEXT), (True, pipeline._CONTEXT)]


class TestWitnessTable:
    # the bytes of ``modalred verify --n-max 3 --count 100 --seed 0``
    PIN = "d75f46dc6bfeacfc12c835a6573c4f8c7065a0b0d456f4a82bb241942761f586"

    @staticmethod
    def digest() -> str:
        report = run_verify(n_max=3, count=100, seed=0)
        return hashlib.sha256(report_lines(report).encode()).hexdigest()

    @staticmethod
    def clear(monkeypatch):
        from modalred import pipeline

        monkeypatch.setattr(pipeline, "_EXTENDED", {})
        monkeypatch.setattr(pipeline, "_WITNESSES", {})

    def test_repeated_and_cleared_runs_keep_the_report_bytes(self, monkeypatch):
        from modalred import pipeline

        assert self.digest() == self.PIN
        # each entry's tree, with its variable count, keys one extended model
        stored = {(tree, 2 * len(key[0]) + 2) for key, (tree, _, _) in pipeline._WITNESSES.items()}
        assert pipeline._WITNESSES and stored == set(pipeline._EXTENDED)
        assert self.digest() == self.PIN
        self.clear(monkeypatch)
        assert self.digest() == self.PIN

    def test_a_second_run_builds_no_model_and_keeps_the_report_bytes(self, monkeypatch):
        from modalred import pipeline, reduction

        builds = []

        def counted(base, ctx):
            builds.append(base)
            return extend(base, ctx)

        extend = reduction._extend
        monkeypatch.setattr(reduction, "_extend", counted)
        self.clear(monkeypatch)
        assert self.digest() == self.PIN
        trees = len(builds)
        assert trees == len(pipeline._EXTENDED)
        builds.clear()
        assert self.digest() == self.PIN
        # the table keeps every tree for the life of the process
        assert not builds and len(pipeline._EXTENDED) == trees

    def test_each_true_instance_extends_and_checks_its_model(self, monkeypatch):
        # perfbench's traced run sums the worlds of the models that
        # extend_model returns and checks the sum against the records'
        # extended_worlds, so a tree seen before still goes through both
        # calls, and extend_model hands back the stored model
        from modalred import pipeline

        extended, checked = [], []

        def spied_extend(base, ctx, table=None):
            model = extend(base, ctx, table)
            extended.append(model)
            return model

        def spied_check(model, world, f):
            checked.append(model)
            return check(model, world, f)

        extend, check = pipeline.extend_model, pipeline.model_check
        monkeypatch.setattr(pipeline, "extend_model", spied_extend)
        monkeypatch.setattr(pipeline, "model_check", spied_check)
        self.clear(monkeypatch)
        records = run_verify(n_max=2, count=40, seed=0).records
        true = [r for r in records if r["is_true"]]
        assert len(extended) == len(true)
        assert [len(m.frame.worlds) for m in extended] == [r["extended_worlds"] for r in true]
        assert len(checked) == 2 * len(true)
        assert checked[1::2] == extended
        assert len({id(m) for m in extended}) == len(pipeline._EXTENDED) < len(true)

    def test_equal_trees_from_different_formulas_share_one_table(self, monkeypatch):
        from modalred import pipeline

        self.clear(monkeypatch)
        first, second = parse_qbf("A p1 . p1 -> p1"), parse_qbf("A p1 . p1 | ~p1")
        assert quantifier_tree(first) == quantifier_tree(second)
        assert check_instance(first, 0, c2=1)["pass"]
        steps = mask_steps(monkeypatch)
        assert check_instance(second, 1, c2=1)["pass"]
        ((key, (tree, _, _)),) = pipeline._WITNESSES.items()
        assert key == ((("A", 1),), ()) and tree == quantifier_tree(first)
        # one table besides the variable-free one, holding both encodings
        (valued,) = [table for masks, table in tree.frame._masks.items() if masks]
        stars = [encode_star(f)[0] for f in (first, second)]
        assert all(star in valued for star in stars)
        # the second instance evaluated only its own matrix conjunct there
        shared = stars[1].items[:5]
        assert shared == stars[0].items[:5]
        assert not any(node in steps for node in shared)
        assert stars[1].items[5] in steps

    def test_a_new_tree_keeps_the_stored_trees_and_their_masks(self, monkeypatch):
        from modalred import pipeline

        self.clear(monkeypatch)
        run_verify(n_max=2, count=40, seed=0)
        stored = [weakref.ref(tree) for tree, _, _ in pipeline._WITNESSES.values()]
        frames = [weakref.ref(tree.frame) for tree, _, _ in pipeline._WITNESSES.values()]
        assert len(stored) == 12
        new = parse_qbf("A p1 . A p2 . A p3 . p3 | ~p3")
        assert check_instance(new, 0, c2=1)["pass"]
        gc.collect()
        assert all(ref() for ref in stored + frames)
        trees = [tree for tree, _, _ in pipeline._WITNESSES.values()]
        assert len(trees) == 13 and trees[-1] == quantifier_tree(new)

    def test_shared_tables_keep_the_bytes_of_fresh_tables_per_instance(self, monkeypatch):
        from modalred import pipeline

        self.clear(monkeypatch)
        shared = report_lines(run_verify(n_max=3, count=60, seed=5))
        assert len(pipeline._EXTENDED) >= 3

        def fresh(*args, **kwargs):
            pipeline._EXTENDED, pipeline._WITNESSES = {}, {}
            return check(*args, **kwargs)

        check = pipeline.check_instance
        monkeypatch.setattr(pipeline, "check_instance", fresh)
        assert report_lines(run_verify(n_max=3, count=60, seed=5)) == shared

    def test_formulas_with_equal_trees_share_one_entry(self, monkeypatch):
        from modalred import pipeline

        self.clear(monkeypatch)
        built = []
        monkeypatch.setattr(pipeline, "quantifier_tree", lambda f: built.append(f) or quantifier_tree(f))
        fs = [
            parse_qbf(f"A p1 . E p2 . {matrix}")
            for matrix in ("p1 -> p2", "~p1 | p2", "p2", "p2 & (p1 | ~p1)")
        ]
        assert all(check_instance(f, k, c2=1)["pass"] for k, f in enumerate(fs))
        # the first two keep p2 only where p1 holds, the last two keep it everywhere
        prefix = (("A", 1), ("E", 2))
        assert set(pipeline._WITNESSES) == {(prefix, (False, True)), (prefix, (True, True))}
        assert built == [fs[0], fs[2]]
        assert pipeline._WITNESSES[prefix, (False, True)][0] == quantifier_tree(fs[1])

    def test_equal_choices_mean_equal_trees(self):
        from modalred.qbf import is_true_qbf
        from modalred.reduction import _tree_choices

        true = [f for f in build_corpus(n_max=4, count=120, seed=38) if is_true_qbf(f)]
        keys = [(prenex_split(f)[0], _tree_choices(f)) for f in true]
        trees = [quantifier_tree(f) for f in true]
        assert len(set(map(str, keys))) >= 30
        for (key, tree), (other_key, other) in itertools.combinations(zip(keys, trees), 2):
            assert (key == other_key) == (tree == other)

    def test_the_choice_keyed_table_keeps_the_bytes_of_the_tree_keyed_table(self, monkeypatch):
        # keyed by the tree itself, the table holds the same entries in the
        # same order
        from modalred import pipeline

        reports, entries = [], []
        for keyed_by_tree in (False, True):
            if keyed_by_tree:
                monkeypatch.setattr(pipeline, "_tree_choices", quantifier_tree)
            self.clear(monkeypatch)
            reports.append(report_lines(run_verify(n_max=3, count=60, seed=5)))
            entries.append(list(pipeline._WITNESSES.values()))
        assert reports[0] == reports[1]
        assert entries[0] == entries[1] and len(entries[0]) >= 8


class TestRunVerify:
    def test_default_n1_run_passes(self):
        report = run_verify(n_max=1, matrix_size_max_n1=3)
        assert report.aggregate_pass
        assert len(report.records) == 2 * (2 + 12)
        assert report.c1 == 18
        assert report.c2 == 1

    def test_reports_are_byte_identical_for_same_seed(self):
        a = run_verify(n_max=2, matrix_size_max_n1=1, count=6, seed=9)
        b = run_verify(n_max=2, matrix_size_max_n1=1, count=6, seed=9)
        assert report_lines(a) == report_lines(b)
        assert report_summary(a) == report_summary(b)

    def test_shared_alpha_context_keeps_the_report_bytes(self):
        # the second run's queries meet the labels the first one left in the
        # process-wide context; only counters may differ, and a report holds
        # none
        from modalred import pipeline

        first = report_lines(run_verify(n_max=2, count=40, seed=0))
        assert pipeline._CONTEXT.sat_rows
        # a variable was numbered, so a star formula joined the context
        assert pipeline._CONTEXT.var_bits
        assert report_lines(run_verify(n_max=2, count=40, seed=0)) == first
        digest = hashlib.sha256(first.encode()).hexdigest()
        assert digest == "8d67517b387f248f2a7b54a81ecf28ed71e5a54f446b155aa86e409b3b7dd921"

    def test_report_lines_are_json_objects(self):
        report = run_verify(n_max=1, matrix_size_max_n1=1)
        lines = report_lines(report).splitlines()
        assert len(lines) == len(report.records)
        for line in lines:
            doc = json.loads(line)
            assert {"formula", "is_true", "star_sat", "alpha_sat", "pass"} <= set(doc)

    @pytest.mark.parametrize("budget", [0, -5, 1.5, True])
    def test_budget_must_be_a_positive_integer(self, monkeypatch, budget):
        def no_corpus(**_):
            raise AssertionError("the corpus was built")

        monkeypatch.setattr("modalred.pipeline.build_corpus", no_corpus)
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            run_verify(budget=budget)

    def test_summary_mentions_pass(self):
        report = run_verify(n_max=1, matrix_size_max_n1=1)
        assert "PASS" in report_summary(report)

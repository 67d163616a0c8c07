"""Corpus generation and the verification pipeline."""

import hashlib
import json
import random

import pytest

from conftest import qbf_size, random_closed_qbf, random_modal_formula
from modalred.pipeline import (
    build_corpus,
    check_instance,
    exhaustive_matrices,
    random_matrix,
    report_lines,
    report_summary,
    run_verify,
)
from modalred.qbf import free_vars, is_prenex, prenex_split
from modalred.solver import sat_k_tableau
from modalred.syntax import formula_size, render


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
    PIN = "2c167d024e9cf7581a141f33f92aa1c5d9ba4af745a2fe92c9513f9a9cc4b0c2"

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
        assert pipeline._WITNESSES and set(pipeline._WITNESSES) == set(pipeline._EXTENDED)
        assert self.digest() == self.PIN
        self.clear(monkeypatch)
        assert self.digest() == self.PIN

    def test_a_reset_mid_run_keeps_the_report_bytes(self, monkeypatch):
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
        self.clear(monkeypatch)
        monkeypatch.setattr(pipeline, "_WITNESS_WORLDS_CAP", 100)
        assert self.digest() == self.PIN
        # the table started afresh, so some trees were built again
        assert len(builds) > trees
        assert len(pipeline._EXTENDED) < trees

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
        assert pipeline._CONTEXT.cache
        # a variable was numbered, so a star formula joined the context
        assert pipeline._CONTEXT.var_bits
        assert report_lines(run_verify(n_max=2, count=40, seed=0)) == first
        digest = hashlib.sha256(first.encode()).hexdigest()
        assert digest == "def73d332c67dd80aa33c00ac266d34a7a8cf00c9e57a479754ae2a6576f10e2"

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

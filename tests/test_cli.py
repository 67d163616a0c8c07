"""Command-line behavior: wiring, exit codes, determinism."""

import hashlib
import json
import random

import pytest

from conftest import random_modal_formula
from modalred.cli import main
from modalred.kripke import model_check, model_from_json
from modalred.pipeline import random_matrix
from modalred.qbf import is_prenex, prenex_join, prenex_split
from modalred.reduction import encode_alpha, encode_star
from modalred.solver import sat_k_tableau
from modalred.syntax import expand_sugar, parse_modal, parse_qbf, is_constant, render
from test_solver import GOLDEN_TABLEAU, golden_formula


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestQbfCommands:
    def test_eval(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "p1 & p2\np1 | p3\n")
        assert main(["qbf", "eval", "--model", "1,3", path]) == 0
        assert capsys.readouterr().out == "false\ntrue\n"

    def test_tqbf_exit_codes(self, tmp_path, capsys):
        true_path = write(tmp_path, "t.txt", "E p1 . p1\n")
        false_path = write(tmp_path, "f.txt", "A p1 . p1\n")
        assert main(["qbf", "tqbf", true_path]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["qbf", "tqbf", false_path]) == 1
        assert capsys.readouterr().out == "false\n"

    def test_prenex(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "(A p1 . p1) & (E p1 . p1)\n")
        assert main(["qbf", "prenex", path]) == 0
        assert capsys.readouterr().out == "A p1 . E p2 . p1 & p2\n"


class TestEncodeCommand:
    def test_alpha_stage_is_constant(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "E p1 . p1\n")
        assert main(["encode", "--stage", "alpha", path]) == 0
        out = capsys.readouterr().out.strip()
        assert is_constant(parse_modal(out))

    def test_stages_are_substitution_related(self, tmp_path, capsys):
        from modalred.reduction import alpha
        from modalred.syntax import substitute

        path = write(tmp_path, "f.txt", "A p1 . E p2 . p1 -> p2\n")
        assert main(["encode", "--stage", "star", path]) == 0
        star_text = capsys.readouterr().out.strip()
        assert main(["encode", "--stage", "alpha", path]) == 0
        alpha_text = capsys.readouterr().out.strip()
        f = parse_qbf("A p1 . E p2 . p1 -> p2")
        star, ctx = encode_star(f)
        # parsing expands sugar, so compare against the expanded composition
        mapping = {i: alpha(i) for i in range(1, ctx.var_count + 1)}
        assert parse_modal(star_text) is expand_sugar(star)
        assert parse_modal(alpha_text) is expand_sugar(substitute(star, mapping))

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "p1 ->\n")
        assert main(["encode", "--stage", "star", path]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"].startswith("expected a formula")


class TestSatCommand:
    def test_tableau_verdict_line(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "[] false\n")
        assert main(["sat", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "satisfiable"
        assert doc["engine"] == "tableau"

    def test_bounded_engine(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "<> true & [] false\n")
        assert main(["sat", "--engine", "bounded", "--bound", "3", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "unsatisfiable"
        assert doc["engine"] == "bounded" and doc["bound"] == 3
        assert doc["memo_hits"] == doc["branches"] == doc["backjumps"] == doc["nogood_hits"] == 0
        assert doc["subsumption_hits"] == 0

    def test_verdict_line_carries_the_search_counters(self, tmp_path, capsys):
        # one line per query, keys sorted, with every counter of the verdict
        f = golden_formula("alpha", "A p1 . E p2 . p1 -> p2")
        path = write(tmp_path, "f.txt", render(f) + "\n")
        assert main(["sat", path]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        verdict = sat_k_tableau(f)
        assert line == json.dumps(
            {
                "backjumps": verdict.backjumps,
                "bound": None,
                "branches": verdict.branches,
                "depth": verdict.depth,
                "engine": "tableau",
                "memo_hits": verdict.memo_hits,
                "nodes": verdict.nodes,
                "nogood_hits": verdict.nogood_hits,
                "subsumption_hits": verdict.subsumption_hits,
                "verdict": "satisfiable",
            }
        )
        assert verdict.memo_hits and verdict.branches and verdict.backjumps and verdict.nogood_hits
        assert verdict.subsumption_hits

    @pytest.mark.parametrize(
        "stage, text, sha",
        [
            pytest.param(stage, text, expected[4], id=f"{stage}: {text}")
            for stage, text, expected in GOLDEN_TABLEAU
            if expected[0]
        ],
    )
    def test_emit_witness(self, tmp_path, capsys, stage, text, sha):
        f = golden_formula(stage, text)
        path = write(tmp_path, "f.txt", render(f) + "\n")
        out = str(tmp_path / "witness.json")
        assert main(["sat", path, "--emit-witness", out]) == 0
        capsys.readouterr()
        data = open(out, encoding="utf-8").read()
        assert hashlib.sha256(data.encode()).hexdigest() == sha
        model = model_from_json(data)
        assert model_check(model, model.root, f)

    def test_budget_exhaustion_is_semantic_error(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "E p1 . p1\n")
        assert main(["encode", "--stage", "alpha", path]) == 0
        alpha_text = capsys.readouterr().out
        apath = write(tmp_path, "a.txt", alpha_text)
        assert main(["sat", apath, "--budget", "3"]) == 1
        assert "budget" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_error(self, tmp_path, capsys, budget):
        path = write(tmp_path, "f.txt", "p1\n")
        assert main(["sat", path, "--budget", budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": f"budget must be a positive integer, got {budget}"}

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--budget", "0"], "budget must be a positive integer, got 0"),
            (["--engine", "bounded", "--bound", "0"], "max_worlds must be a positive integer, got 0"),
        ],
    )
    def test_limit_is_checked_on_an_empty_input(self, tmp_path, capsys, args, message):
        path = write(tmp_path, "empty.txt", "")
        assert main(["sat", path, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": message}

    def test_deep_box_power(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "box^5000 p1\n")
        assert main(["sat", path]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["verdict"] == "satisfiable"

    @pytest.mark.parametrize(
        "text", ["~" * 3000 + "p1", "(" * 3000 + "p1" + ")" * 3000], ids=["not", "parentheses"]
    )
    def test_deeply_nested_input(self, tmp_path, capsys, text):
        path = write(tmp_path, "f.txt", text + "\n")
        assert main(["sat", path]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["verdict"] == "satisfiable"

    def test_bounded_engine_on_long_flat_cnf(self, tmp_path, capsys):
        # (p1 | p2) & ... & (p2999 | p3000): the DPLL makes 1,501 decisions
        text = " & ".join(f"(p{i} | p{i + 1})" for i in range(1, 3000, 2))
        path = write(tmp_path, "f.txt", text + "\n")
        assert main(["sat", "--engine", "bounded", "--bound", "1", path]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["verdict"] == "satisfiable"


class TestDeepInputAnswers:
    """Inputs that nest or branch far past the recursion limit get an answer
    from the default engine, not an error line."""

    @pytest.mark.parametrize(
        "text, nodes, depth, branches",
        [
            ("dia^3000 true", 3001, 3000, 0),
            (" & ".join(f"(p{i} | p{i + 1})" for i in range(1, 3000, 2)), 1501, 0, 1500),
        ],
        ids=["deep-diamonds", "flat-cnf"],
    )
    def test_sat_answers(self, tmp_path, capsys, text, nodes, depth, branches):
        path = write(tmp_path, "f.txt", text + "\n")
        assert main(["sat", path]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        record = json.loads(line)
        assert (record["verdict"], record["nodes"], record["depth"], record["branches"]) == (
            "satisfiable", nodes, depth, branches
        )

    def test_deep_witness_is_written(self, tmp_path):
        path = write(tmp_path, "f.txt", "dia^3000 true\n")
        out = tmp_path / "w.json"
        assert main(["sat", "--emit-witness", str(out), path]) == 0
        witness = json.loads(out.read_text(encoding="utf-8"))
        assert (len(witness["worlds"]), len(witness["relation"])) == (3001, 3000)


class TestDeepQbfInputs:
    """QBF commands answer on inputs nested far past the recursion limit."""

    def test_deep_implications_answer(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "p1 -> (" * 1200 + "p1" + ")" * 1200 + "\n")
        assert main(["qbf", "tqbf", path]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["qbf", "eval", "--model", "1", path]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_deep_non_prenex_chain_prenexes(self, tmp_path, capsys):
        # (A p1 . p1) -> ((A p1 . p1) -> ... (A p1 . p1)), 1201 quantifiers
        text = "(A p1 . p1) -> (" * 1200 + "(A p1 . p1)" + ")" * 1200
        path = write(tmp_path, "f.txt", text + "\n")
        assert main(["qbf", "prenex", path]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        prenex = parse_qbf(line)
        assert is_prenex(prenex)
        prefix, _ = prenex_split(prenex)
        # renamed apart in order; every antecedent quantifier dualized
        assert prefix == [("E", i) for i in range(1, 1201)] + [("A", 1201)]


class TestWitnessCommand:
    def test_tree_witness_satisfies_star(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "E p1 . p1\n")
        assert main(["witness", "--model", "tree", path]) == 0
        model = model_from_json(capsys.readouterr().out)
        star, _ = encode_star(parse_qbf("E p1 . p1"))
        assert model_check(model, model.root, star)

    def test_extended_witness_satisfies_alpha(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "E p1 . p1\n")
        out = str(tmp_path / "model.json")
        assert main(["witness", "--model", "extended", "--out", out, path]) == 0
        model = model_from_json(open(out, encoding="utf-8").read())
        assert model_check(model, model.root, encode_alpha(parse_qbf("E p1 . p1")))

    def test_false_formula_is_semantic_error(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "A p1 . p1\n")
        assert main(["witness", "--model", "tree", path]) == 1
        assert "true formulas" in json.loads(capsys.readouterr().err)["error"]

    def test_multiple_formulas_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "E p1 . p1\nE p1 . p1\n")
        assert main(["witness", "--model", "tree", path]) == 1
        capsys.readouterr()


class TestFrameCommand:
    def test_gadget_wgrz_check(self, capsys):
        assert main(["frame", "--gadget", "3", "--plus", "--check", "wgrz-axiom"]) == 0
        assert capsys.readouterr().out == "wgrz-axiom: valid\n"

    def test_gadget_alpha_validity(self, capsys):
        assert main(["frame", "--gadget", "2", "--plus", "--check", "alpha-validity"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "alpha 2: refuted"
        assert all(line.endswith("valid") for i, line in enumerate(out) if i != 1)

    def test_gadget_without_plus_validates_everything(self, capsys):
        assert main(["frame", "--gadget", "2", "--check", "alpha-validity"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.endswith("valid") for line in out)

    def test_frame_class_checks(self, capsys):
        assert main(["frame", "--gadget", "2", "--check", "gl"]) == 1
        assert capsys.readouterr().out == "gl: false\n"

    def test_dot_export(self, capsys):
        assert main(["frame", "--gadget", "1", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph frame {")
        assert '"gadget:m1:a0" -> "gadget:m1:b";' in out

    def test_frame_from_file(self, tmp_path, capsys):
        assert main(["frame", "--gadget", "2", "--plus", "--dot"]) == 0
        capsys.readouterr()
        from modalred.kripke import frame_to_json
        from modalred.reduction import frame_fm_plus

        path = write(tmp_path, "frame.json", frame_to_json(frame_fm_plus(2)))
        assert main(["frame", "--input", path, "--check", "ktb"]) == 1
        assert capsys.readouterr().out == "ktb: false\n"

    def test_missing_source_is_error(self, capsys):
        assert main(["frame", "--check", "gl"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "document",
        [
            "{}",
            "[]",
            '{"worlds": [1], "relation": []}',
            '{"worlds": ["gadget:m1:b"], "relation": [5]}',
        ],
    )
    def test_malformed_frame_file_is_error(self, tmp_path, capsys, document):
        path = write(tmp_path, "frame.json", document)
        assert main(["frame", "--input", path, "--check", "gl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err)

    def test_aliased_world_ids_are_error(self, tmp_path, capsys):
        # read leniently, the two ids would be one world with a loop
        u, v = "base:L0:{1,3}:#0", "base:L0:{3,1}:#0"
        path = write(tmp_path, "frame.json", json.dumps({"worlds": [u, v], "relation": [[u, v]]}))
        assert main(["frame", "--input", path, "--check", "gl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert repr(v) in json.loads(line)["error"]

    @pytest.mark.parametrize("args", [["--dot"], ["--check", "gl"]])
    def test_repeated_world_or_pair_is_error(self, tmp_path, capsys, args):
        # read leniently, either file would be the one-world frame with a loop
        u = "base:L0:{}:#0"
        for document, repeated in (
            ({"worlds": [u, u], "relation": [[u, u]]}, repr(u)),
            ({"worlds": [u], "relation": [[u, u], [u, u]]}, repr([u, u])),
        ):
            path = write(tmp_path, "frame.json", json.dumps(document))
            assert main(["frame", "--input", path, *args]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert repeated in json.loads(line)["error"]

    @pytest.mark.parametrize("world", ["gadget:m1:a7", "gadget:m1:a01", "gadget:m0:b"])
    def test_world_outside_its_gadget_is_error(self, tmp_path, capsys, world):
        path = write(tmp_path, "frame.json", json.dumps({"worlds": [world], "relation": []}))
        assert main(["frame", "--input", path, "--check", "gl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": f"not a world of a gadget F_m (m >= 1; parts a0..am, b, c): {world!r}"
        }

    def test_alpha_max_below_one_is_error(self, capsys):
        assert main(["frame", "--gadget", "3", "--check", "alpha-validity", "--alpha-max", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {"error": "--alpha-max must be a positive integer, got 0"}

    @pytest.mark.parametrize("check", ["alpha-validity", "wgrz-axiom"])
    def test_negative_budget_bits_is_error(self, capsys, check):
        assert main(["frame", "--gadget", "2", "--check", check, "--budget-bits", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {"error": "budget must be a non-negative integer, got -1"}

    def test_gadget_with_input_is_error_before_the_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["frame", "--gadget", "2", "--input", missing, "--check", "gl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {"error": "frame takes --gadget M or --input FILE, not both"}

    @pytest.mark.parametrize("source", [[], ["--input", "missing.json"]], ids=["no-source", "input"])
    def test_plus_without_gadget_is_error(self, tmp_path, capsys, source):
        source = [str(tmp_path / name) if name.endswith(".json") else name for name in source]
        assert main(["frame", "--plus", *source, "--check", "gl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {"error": "--plus needs --gadget M"}

    def test_deep_gadget_host_chain_is_error(self, tmp_path, capsys):
        world = "gadget:m1:b@" * 3000 + "base:L0:{}:#0"
        path = write(tmp_path, "frame.json", json.dumps({"worlds": [world], "relation": []}))
        assert main(["frame", "--input", path, "--check", "gl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {"error": f"gadget host must be a base world: {world!r}"}


class TestVerifyCommand:
    def test_small_run_passes_and_is_deterministic(self, tmp_path, capsys):
        args = ["verify", "--n-max", "1", "--matrix-size-n1", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "PASS" in first

    def test_report_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.ldjson")
        assert main(["verify", "--n-max", "1", "--matrix-size-n1", "1", "--out", out]) == 0
        capsys.readouterr()
        lines = open(out, encoding="utf-8").read().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["pass"] for line in lines)

    @pytest.mark.parametrize(
        "args, parameter",
        [
            (["--matrix-size-n1", "0"], "matrix_size_max_n1"),
            (["--matrix-size-n1", "-3"], "matrix_size_max_n1"),
            (["--n-max", "2", "--count", "3", "--matrix-size", "0"], "matrix_size_max"),
        ],
    )
    def test_degenerate_sizes_are_errors(self, capsys, args, parameter):
        assert main(["verify", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert parameter in json.loads(line)["error"]

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--count", "-3"], "count must be a non-negative integer, got -3"),
            (["--n-max", "-2"], "n_max must be a positive integer, got -2"),
            (["--n-max", "0"], "n_max must be a positive integer, got 0"),
            (["--matrix-size", "0"], "matrix_size_max must be a positive integer, got 0"),
        ],
    )
    def test_out_of_range_sizes_are_errors(self, capsys, args, error):
        assert main(["verify", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": error}

    def test_zero_count_runs_only_the_n1_corpus(self, capsys):
        assert main(["verify", "--n-max", "2", "--count", "0", "--matrix-size-n1", "1"]) == 0
        assert "instances: 4 (" in capsys.readouterr().out


    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_error_before_the_corpus(self, capsys, monkeypatch, budget):
        def no_corpus(**_):
            raise AssertionError("the corpus was built")

        monkeypatch.setattr("modalred.pipeline.build_corpus", no_corpus)
        assert main(["verify", "--budget", budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": f"budget must be a positive integer, got {budget}"}


class TestStdin:
    def test_dash_reads_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("E p1 . p1\n"))
        assert main(["qbf", "tqbf", "-"]) == 0
        assert capsys.readouterr().out == "true\n"


# -- seeded fuzz: every input ends in an answer or one JSON error line -------

FUZZ_WORLDS = ["base:L0:{}:#0", "base:L1:{1}:#1", "base:L1:{}:#2", "gadget:m1:b", "gadget:m2:a1"]
FUZZ_BAD_WORLDS = ["base:L0:{1,1}:#0", "gadget:m1:a7", "gadget:m0:b", "junk", 5, None]
FUZZ_TOKENS = [
    "p1", "p2", "p0", "false", "true", "~", "&", "|", "->", "(", ")", "[]", "<>",
    "box+", "box<=2", "box^3", "dia^2", "A", "E", ".", "q",
]
FUZZ_COMMANDS = [
    ["sat"], ["sat", "--engine", "bounded", "--bound", "3"], ["qbf", "tqbf"],
    ["encode", "--stage", "alpha"], ["witness", "--model", "extended"],
]


def _fuzz_document(rng):
    """A random frame or model file: mostly well-formed, with a repeated or
    unknown id, a broken pair or a missing key mixed into some."""
    worlds = rng.sample(FUZZ_WORLDS, rng.randint(1, 5))
    pairs = [[u, v] for u in worlds for v in worlds]
    doc = {"worlds": worlds, "relation": rng.sample(pairs, rng.randint(0, min(6, len(pairs))))}
    if rng.random() < 0.5:
        doc["valuation"] = {"p1": rng.sample(worlds, rng.randint(0, len(worlds)))}
        doc["root"] = rng.choice(worlds)
    roll = rng.random()
    if roll < 0.1:
        worlds.append(rng.choice(FUZZ_BAD_WORLDS + worlds))
    elif roll < 0.2:
        doc["relation"].append(rng.choice([[worlds[0]], "pair", [worlds[0], rng.choice(FUZZ_BAD_WORLDS)], pairs[0]]))
    elif roll < 0.25:
        del doc[rng.choice(["worlds", "relation"])]
    elif roll < 0.3:
        doc = worlds
    text = json.dumps(doc)
    return text[: rng.randint(0, len(text))] if rng.random() < 0.05 else text


def _fuzz_line(rng, command):
    """A random formula for ``command`` (a prenex QBF or a modal formula),
    a token soup, or a formula with one token replaced."""
    if rng.random() < 0.3:
        return " ".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 9)))
    if command[0] == "sat":
        text = render(random_modal_formula(rng, 10, var_count=2))
    else:
        n = rng.randint(1, 2)
        text = render(prenex_join([(rng.choice("AE"), k) for k in range(1, n + 1)], random_matrix(rng, n, 7)))
    if rng.random() < 0.3:
        words = text.split()
        words[rng.randrange(len(words))] = rng.choice(FUZZ_TOKENS)
        text = " ".join(words)
    return text


def _ends_well(code, captured) -> str:
    """"answer" (exit 0, or 1 for a negative answer, nothing on stderr), or
    "error" (one JSON error line on stderr, exit 1); anything else fails."""
    if captured.err:
        [line] = captured.err.splitlines()
        assert code == 1 and set(json.loads(line)) == {"error"}
        return "error"
    assert code in (0, 1)
    return "answer"


def test_random_inputs_end_in_an_answer_or_one_error_line(tmp_path, capsys):
    rng = random.Random(2024)
    path = str(tmp_path / "input")
    ends = []
    for _ in range(80):
        write(tmp_path, "input", _fuzz_document(rng))
        for args in (["--dot"], ["--check", "gl"], ["--check", "wgrz-axiom"]):
            ends.append(("frame", _ends_well(main(["frame", "--input", path, *args]), capsys.readouterr())))
    for _ in range(160):
        command = rng.choice(FUZZ_COMMANDS)
        write(tmp_path, "input", _fuzz_line(rng, command) + "\n")
        ends.append((command[0], _ends_well(main([*command, path]), capsys.readouterr())))
    # every command family meets inputs of both kinds
    assert {(name, end) for name in ("frame", "sat", "qbf", "encode", "witness") for end in ("answer", "error")} == set(ends)

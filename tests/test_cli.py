"""Command-line behavior: wiring, exit codes, determinism."""

import json

import pytest

from modalred.cli import main
from modalred.kripke import model_check, model_from_json
from modalred.qbf import is_prenex, prenex_split
from modalred.reduction import encode_alpha, encode_star
from modalred.syntax import expand_sugar, parse_modal, parse_qbf, is_constant


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

    def test_emit_witness(self, tmp_path, capsys):
        path = write(tmp_path, "f.txt", "<> p1 & <> ~p1\n")
        out = str(tmp_path / "witness.json")
        assert main(["sat", path, "--emit-witness", out]) == 0
        capsys.readouterr()
        model = model_from_json(open(out, encoding="utf-8").read())
        assert model_check(model, model.root, parse_modal("<> p1 & <> ~p1"))

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


class TestDeepInputErrors:
    """Inputs that parse but nest deeper than a recursive stage can go end in
    a JSON error line and exit code 1, not a traceback."""

    @pytest.mark.parametrize(
        "args, text",
        [
            (["sat"], "dia^3000 true"),
            (["sat"], " & ".join(f"(p{i} | p{i + 1})" for i in range(1, 3000, 2))),
        ],
        ids=["deep-diamonds", "flat-cnf"],
    )
    def test_reports_json_error(self, tmp_path, capsys, args, text):
        path = write(tmp_path, "f.txt", text + "\n")
        assert main([*args, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "recursion" in json.loads(line)["error"]


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

"""The benchmark's own tests: reference, determinism, tracing, refusal.

    python3 -m unittest discover -s perfbench

Run from the root of a modalred checkout.  Each workload runs at a small
size, in fresh interpreters, exactly as the benchmark command runs it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import corpus
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# small run lengths (three passes each) that still reach every instance kind
SMALL_SECONDS = {"verify": 4.5, "frontier": 2.0, "witness": 2.0, "oracle": 7.5}


def bench(workload: str, seed: int, seconds: float, traced: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        capture_output=True, text=True, timeout=170, cwd=str(cwd),
    )
    return out


def result_lines(out) -> tuple[dict, dict]:
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


class ReferenceTest(unittest.TestCase):
    def test_truth_of_small_formulas(self):
        p1, p2 = ("v", 1), ("v", 2)
        self.assertFalse(corpus.truth("A", p1))
        self.assertTrue(corpus.truth("E", p1))
        self.assertTrue(corpus.truth("AE", ("->", p1, p2)))
        self.assertTrue(corpus.truth("EA", ("->", p1, p2)))
        self.assertFalse(corpus.truth("EA", ("&", p1, p2)))
        self.assertTrue(corpus.truth("AE", ("|", ("&", p1, p2), ("&", ("->", p1, corpus.FALSE), ("->", p2, corpus.FALSE)))))
        self.assertFalse(corpus.truth("E", corpus.FALSE))

    def test_corpus_shapes(self):
        self.assertEqual(len(corpus.n1_instances(5)), 316)
        self.assertEqual(corpus.tree_worlds("AE"), 5)
        self.assertEqual(corpus.tree_worlds("EEE"), 4)
        self.assertEqual(corpus.Instance("AE", ("->", ("v", 1), corpus.FALSE)).text, "A p1 . E p2 . (p1 -> false)")


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({e["name"]: e["unit"] for e in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({e["name"]: e["unit"] for e in spec["per_layer"]}, spans.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.workloads.WORKLOADS))


class DeterminismTest(unittest.TestCase):
    def test_counts_and_digest_repeat(self):
        for workload, seconds in SMALL_SECONDS.items():
            with self.subTest(workload=workload):
                first, second = (bench(workload, 7, seconds, 0) for _ in range(2))
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                (info1, res1), (info2, res2) = result_lines(first), result_lines(second)
                self.assertTrue(res1["correct"])
                self.assertEqual(res1["failed"], 0)
                self.assertEqual(info1["counts"], info2["counts"])
                self.assertEqual(info1["digest"], info2["digest"])
                self.assertEqual(set(res1["metrics"]), set(run.END_TO_END_UNITS))
                print(f"{workload}: {info1['instances']} instances, digest {info1['digest']}")

    def test_traced_counts_repeat(self):
        # the traced run itself checks its counts and digest against an
        # untraced run and its self times against its wall time
        first, second = (bench("verify", 7, SMALL_SECONDS["verify"], 1) for _ in range(2))
        self.assertEqual(first.returncode, 0, first.stderr)
        self.assertEqual(second.returncode, 0, second.stderr)
        (_, res1), (_, res2) = result_lines(first), result_lines(second)
        self.assertEqual(set(res1["metrics"]), set(spans.PER_LAYER))
        counts = [name for name, unit in spans.PER_LAYER.items() if unit == "count"]
        self.assertEqual({n: res1["metrics"][n] for n in counts}, {n: res2["metrics"][n] for n in counts})
        # even at this size, where cheap n = 1 instances dominate, the
        # tableau spans take more self time than any other layer
        metrics = {name: entry["value"] for name, entry in res1["metrics"].items()}
        tableau = metrics["solver.tableau_alpha_s"] + metrics["solver.tableau_star_s"]
        others = [metrics[f"{layer}.self_s"] for layer in spans.LAYERS if layer != "solver"]
        self.assertGreater(tableau, max(others))


class RefusalTest(unittest.TestCase):
    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            bare = Path(bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            out = bench("verify", 0, 1, 0, cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()

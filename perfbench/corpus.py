"""Benchmark inputs and the truth reference they are checked against.

Instances live in the benchmark's own representation: a quantifier prefix
(a string of ``A``/``E``, quantifier i binding p_i) and a matrix tree of
tuples ``("F",)``, ``("v", i)``, ``("&", l, r)``, ``("|", l, r)`` and
``("->", l, r)``.  The program under test only ever sees ``render(...)``,
the formula text, which it parses itself.  ``truth`` is a brute-force
evaluator over this representation; it shares no code with ``modalred.qbf``,
so a verdict that agrees with it is checked independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FALSE = ("F",)


@dataclass(frozen=True)
class Instance:
    prefix: str
    matrix: tuple

    @property
    def n(self) -> int:
        return len(self.prefix)

    @property
    def text(self) -> str:
        return render(self.prefix, self.matrix)


def render(prefix: str, matrix: tuple) -> str:
    quantifiers = "".join(f"{kind} p{i} . " for i, kind in enumerate(prefix, start=1))
    return quantifiers + render_matrix(matrix)


def render_matrix(m: tuple) -> str:
    if m[0] == "F":
        return "false"
    if m[0] == "v":
        return f"p{m[1]}"
    return f"({render_matrix(m[1])} {m[0]} {render_matrix(m[2])})"


def holds(m: tuple, true_vars: int) -> bool:
    """Truth of a matrix under an assignment (bit i-1 set means p_i true)."""
    op = m[0]
    if op == "F":
        return False
    if op == "v":
        return bool(true_vars >> (m[1] - 1) & 1)
    left = holds(m[1], true_vars)
    if op == "&":
        return left and holds(m[2], true_vars)
    if op == "|":
        return left or holds(m[2], true_vars)
    return (not left) or holds(m[2], true_vars)


def truth(prefix: str, matrix: tuple) -> bool:
    """Brute-force truth of the closed prenex formula ``prefix . matrix``."""

    def value(level: int, true_vars: int) -> bool:
        if level == len(prefix):
            return holds(matrix, true_vars)
        branches = (value(level + 1, true_vars), value(level + 1, true_vars | 1 << level))
        return all(branches) if prefix[level] == "A" else any(branches)

    return value(0, 0)


def tree_worlds(prefix: str) -> int:
    """World count of the quantifier tree: A branches twice, E once."""
    total = width = 1
    for kind in prefix:
        width *= 2 if kind == "A" else 1
        total += width
    return total


def all_matrices(max_size: int) -> list[tuple]:
    """Every matrix over p1 with at most ``max_size`` nodes (odd sizes)."""
    by_size = {1: [FALSE, ("v", 1)]}
    for size in range(3, max_size + 1, 2):
        by_size[size] = [
            (op, left, right)
            for left_size in range(1, size - 1, 2)
            for op in ("&", "|", "->")
            for left in by_size[left_size]
            for right in by_size[size - 1 - left_size]
        ]
    return [m for size in sorted(by_size) for m in by_size[size]]


def random_matrix(rng: random.Random, n: int, max_size: int) -> tuple:
    def build(size: int) -> tuple:
        if size == 1:
            return FALSE if rng.random() < 0.2 else ("v", rng.randint(1, n))
        left_size = rng.randrange(1, size - 1, 2)
        op = rng.choice(("&", "|", "->"))
        return (op, build(left_size), build(size - 1 - left_size))

    return build(rng.randrange(1, max_size + 1, 2))


def random_instance(rng: random.Random, n: int, max_size: int) -> Instance:
    prefix = "".join(rng.choice("AE") for _ in range(n))
    return Instance(prefix, random_matrix(rng, n, max_size))


def n1_instances(max_size: int) -> list[Instance]:
    """Both quantifiers over every n = 1 matrix up to ``max_size``."""
    return [Instance(kind, m) for m in all_matrices(max_size) for kind in "AE"]

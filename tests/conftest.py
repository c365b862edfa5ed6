from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toolrouter.graph import ToolGraph


def count_calls(monkeypatch, owner: type, name: str) -> list[int]:
    """Wrap ``owner.name`` to count its calls; returns a one-item list
    holding the count."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def make_random_graph(rng: random.Random, max_nodes: int = 8) -> tuple[ToolGraph, str, str]:
    """Small random digraph with deliberately tie-prone weights."""
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    g = ToolGraph()
    for name in names:
        g.add_node(name)
    possible = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(possible)
    for a, b in possible[: rng.randint(1, min(len(possible), int(2.5 * n)))]:
        g.add_edge(a, b, rng.choice([1.0, 1.0, 2.0, 3.0, 0.5]))
    return g, rng.choice(names), rng.choice(names)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import tropdiv.generators
import tropdiv.intlinalg
from tropdiv.graphs import build_graph


@pytest.fixture
def smith_calls(monkeypatch):
    """Row counts of the matrices Smith-factored while the test runs, also
    through the copy that generators imports."""
    calls = []
    original = tropdiv.intlinalg.smith_normal_form

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(tropdiv.intlinalg, "smith_normal_form", counted)
    monkeypatch.setattr(tropdiv.generators, "smith_normal_form", counted)
    return calls


@pytest.fixture
def theta():
    return build_graph(2, [(0, 1), (0, 1), (0, 1)], labels=["p", "q"])


@pytest.fixture
def single_edge():
    return build_graph(2, [(0, 1)], labels=["p", "q"])


@pytest.fixture
def path3():
    return build_graph(3, [(0, 1), (1, 2)], labels=["p", "x", "q"])


@pytest.fixture
def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def random_multigraph(rng, max_vertices=5, max_extra=4):
    """Random connected multigraph: spanning tree plus extra edges/loops."""
    n = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, max_extra)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))
    if n == 1 and not edges:
        edges.append((0, 0))
    return build_graph(n, edges)


@pytest.fixture
def rng():
    return random.Random(20240309)


def run_optimized(script):
    """Run a Python snippet under python -O (asserts stripped) against src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})

"""networkx as the oracle for the in-repo graph routines the workloads use.

The cubic-expander sampler (Claim 3.2), its spectral certificate, the
blossom matching (Claim 5.12), the BFS tree of the Theorem 5.1 PLS
experiment and the bipartite 2-colouring each replace a networkx call;
these tests hold each one to the networkx answer.  The last test runs
the workload paths in a process where networkx cannot be imported.
"""

import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.cc.functions import random_input_pairs
from repro.check.reference import ref_max_matching_size
from repro.core.mds import MdsFamily
from repro.expanders import certified_cubic_expander, spectral_expansion
from repro.expanders.regular import random_regular_edges
from repro.experiments.limits import bfs_tree_edges
from repro.graphs import Graph, random_graph
from repro.pls import BipartitePls
from repro.pls.scheme import PlsInstance, edge_key
from repro.solvers import max_matching


def _random_graph(seed: int, max_n: int, max_p: float) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(0, max_n)
    return random_graph(n, rng.random() * max_p, rng) if n else Graph()


class TestRandomRegular:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cubic_edges_equal_networkx(self, seed):
        for n in range(4, 200, 2):
            assert random_regular_edges(3, n, seed) == \
                list(nx.random_regular_graph(3, n, seed=seed).edges())

    def test_other_degrees_equal_networkx(self):
        for d in (0, 1, 2, 4, 5):
            for n in range(d + 1, 24):
                if n * d % 2:
                    continue
                for seed in range(3):
                    assert random_regular_edges(d, n, seed) == list(
                        nx.random_regular_graph(d, n, seed=seed).edges())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_regular_edges(3, 7, 0)
        with pytest.raises(ValueError):
            random_regular_edges(4, 4, 0)


class TestSpectralExpansion:
    @staticmethod
    def networkx_value(g: Graph, degree: int) -> float:
        eigs = np.linalg.eigvalsh(nx.to_numpy_array(g.to_networkx()))
        lambda2 = float(sorted(eigs)[-2]) if g.n >= 2 else 0.0
        return max(0.0, (degree - lambda2) / 2.0) / degree

    def test_expanders_bit_identical(self):
        for n in range(4, 60, 2):
            for seed in range(2):
                g, c = certified_cubic_expander(n, min_expansion=0.0,
                                                seed=seed)
                assert c == self.networkx_value(g, 3)

    def test_weighted_graphs_bit_identical(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 14), 0.4, rng)
            for u, v in g.edges()[::2]:
                g.set_edge_weight(u, v, rng.randint(1, 4))
            assert spectral_expansion(g) == self.networkx_value(g, 3)


class TestBlossomMatching:
    @staticmethod
    def assert_valid(g: Graph, matching) -> None:
        ends = [v for e in matching for v in e]
        assert len(ends) == len(set(ends))
        assert all(g.has_edge(u, v) for u, v in matching)

    def test_sparse_graphs_against_networkx_and_reference(self):
        # the naive reference is exponential in m: sparse graphs only
        for seed in range(2000):
            g = _random_graph(seed, 16, 0.3)
            m = max_matching(g)
            self.assert_valid(g, m)
            nx_size = len(nx.max_weight_matching(
                g.to_networkx(), maxcardinality=True, weight=None))
            assert len(m) == nx_size == ref_max_matching_size(g), seed

    def test_dense_graphs_against_networkx(self):
        for seed in range(1000):
            rng = random.Random(seed)
            g = random_graph(rng.randint(1, 16), 0.3 + 0.7 * rng.random(),
                             rng)
            m = max_matching(g)
            self.assert_valid(g, m)
            assert len(m) == len(nx.max_weight_matching(
                g.to_networkx(), maxcardinality=True, weight=None)), seed

    def test_augmenting_path_through_a_blossom(self):
        # the greedy start matches 0-1 and 2-4 and leaves 3 and 5
        # exposed; the search from 3 reaches 1 and 2 both as outer
        # vertices, and only contracting the 5-cycle 3-0-1-2-4 lets it
        # find the augmenting path 3-0-1-2-4-5
        g = Graph()
        for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 4),
                     (4, 5)]:
            g.add_edge(u, v)
        m = max_matching(g)
        self.assert_valid(g, m)
        assert len(m) == 3


class TestBfsTree:
    def test_pls_tree_equals_networkx(self):
        fam = MdsFamily(4)
        rng = random.Random(0x52)
        for x, y in random_input_pairs(fam.k_bits, 3, rng):
            g = fam.build(x, y)
            root = min(g.vertices(), key=repr)
            assert bfs_tree_edges(g, root) == \
                list(nx.bfs_tree(g.to_networkx(), root).edges())
        for seed in range(200):
            g = _random_graph(seed, 14, 0.5)
            if not g.n:
                continue
            root = g.vertices()[rng.randrange(g.n)]
            assert bfs_tree_edges(g, root) == \
                list(nx.bfs_tree(g.to_networkx(), root).edges())


class TestBipartiteColouring:
    def test_applies_and_colours_equal_networkx(self):
        for seed in range(300):
            g = _random_graph(seed, 12, 0.3)
            inst = PlsInstance(graph=g, subgraph=frozenset(
                edge_key(u, v) for u, v in g.edges()))
            nxg = inst.h_graph().to_networkx()
            bipartite = nx.is_bipartite(nxg)
            assert BipartitePls().applies(inst) == bipartite
            if bipartite:
                want = nx.algorithms.bipartite.color(nxg)
                labels = BipartitePls().prove(inst)
                assert {v: labels[v]["color"] for v in g.vertices()} == \
                    {v: want.get(v, 0) for v in g.vertices()}


def test_workload_paths_run_without_networkx():
    """G′, the Theorem 5.1 PLS experiment and a short differential check
    run in a process where ``import networkx`` fails."""
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.core.bounded_degree import BoundedDegreeMaxIS\n"
        "from repro.experiments import run_experiment\n"
        "from repro.check.harness import run_check\n"
        "BoundedDegreeMaxIS(2, seed=1).build((1, 1, 0, 1), (0, 0, 1, 0))\n"
        "assert run_experiment('E-T5.1-pls-compiler').passed\n"
        "report = run_check(seed=0, cases=3)\n"
        "assert report.checks_run > 0 and not report.failures\n"
        "print('ok')\n"
    )
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

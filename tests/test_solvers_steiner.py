"""Steiner tree solver tests (Dreyfus-Wagner and the §4.4 variants)."""

import hashlib
import random
from itertools import combinations

import pytest

from repro.graphs import DiGraph, Graph, complete_graph, cycle_graph, path_graph, random_graph
from repro.solvers import is_steiner_tree, steiner_tree, steiner_tree_cost
from repro.solvers.steiner import (
    min_directed_steiner_reachability_cost,
    min_node_weighted_steiner_cost,
)
from tests.conftest import connected_random_graph


def brute_force_steiner_cost(graph, terminals):
    """Reference: minimum spanning-tree cost over all supersets."""
    terminals = set(terminals)
    others = [v for v in graph.vertices() if v not in terminals]
    best = float("inf")
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            vs = terminals | set(extra)
            sub = graph.induced_subgraph(vs)
            if not sub.is_connected():
                continue
            # MST of induced subgraph
            import networkx as nx

            t = nx.minimum_spanning_tree(sub.to_networkx())
            cost = sum(d["weight"] for _u, _v, d in t.edges(data=True))
            best = min(best, cost)
    return best


def brute_force_node_weighted_cost(graph, terminals):
    """Reference: every subset of the positive-weight non-terminals, in
    size order, tested by connected components of the induced subgraph.
    Costs are summed in vertex order, so results are exact, not close."""
    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        return 0.0
    weight = graph.vertex_weight
    free = [v for v in graph.vertices() if weight(v) == 0]
    base = sum(weight(t) for t in terminals if weight(t) > 0)
    optional = [v for v in graph.vertices()
                if weight(v) > 0 and v not in terminals]
    best = float("inf")
    for r in range(len(optional) + 1):
        for subset in combinations(optional, r):
            cost = base + sum(weight(v) for v in subset)
            if cost >= best:
                continue
            sub = graph.induced_subgraph(set(free) | set(subset)
                                         | set(terminals))
            comps = sub.connected_components()
            if any(set(terminals) <= set(c) for c in comps):
                best = cost
    return best


def _random_node_weighted_instance(rng):
    n = rng.randint(1, 10)
    g = random_graph(n, rng.uniform(0.1, 0.7), rng)
    for v in g.vertices():
        kind = rng.random()
        if kind < 0.3:
            g.set_vertex_weight(v, 0)
        elif kind < 0.65:
            g.set_vertex_weight(v, rng.randint(1, 5))
        else:  # never integral: exercises the float-weight path
            g.set_vertex_weight(v, rng.choice([0.1, 0.2, 0.7, 1.3])
                                * rng.randint(1, 4))
    terms = rng.sample(g.vertices(), rng.randint(1, min(n, 4)))
    return g, terms


def _tabulated_node_weighted_cost(graph, terminals):
    """Differential reference: the cost-ordered scan the solver used
    before its best-first scan.  It tabulates every subset's cost by
    doubling and stable-sorts the whole table by cost."""
    from repro.solvers._bitmask import iter_bits, vertex_weights
    from repro.solvers.steiner import _reach

    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        return 0.0
    bg = graph.bits()
    weights = vertex_weights(graph)
    terms = bg.mask_of(terminals)
    start = 1 << bg.index[terminals[0]]
    base_cost = sum(w for w in (weights[bg.index[t]] for t in terminals)
                    if w > 0)
    paid_optional = [i for i in range(bg.n)
                     if weights[i] > 0 and not terms >> i & 1]
    fixed = terms
    for i, w in enumerate(weights):
        if w == 0:
            fixed |= 1 << i
    everything = fixed
    for i in paid_optional:
        everything |= 1 << i
    if _reach(bg.adj, everything, start) & terms != terms:
        return float("inf")
    cost = [0]
    for i in paid_optional:
        w = weights[i]
        cost += [c + w for c in cost]
    for s in sorted(range(len(cost)), key=cost.__getitem__):
        allowed = fixed
        for j in iter_bits(s):
            allowed |= 1 << paid_optional[j]
        if _reach(bg.adj, allowed, start) & terms == terms:
            return base_cost + cost[s]
    raise AssertionError("unreachable: the full subset connects")


#: weight draws per mode.  The float pool makes sums that tie after
#: rounding (0.1 + 0.2 vs 0.3).  The mixed pools make costs that tie
#: across types (2 vs 2.0), where only the scan order decides which
#: type is returned
_WEIGHT_POOLS = {
    "int": lambda rng: rng.randint(1, 4),
    "float": lambda rng: rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 1.1, 2.5]),
    "mixed": lambda rng: rng.choice([1, 2, 3, 1.0, 2.0, 0.5, 1.5, 0.1,
                                     0.2, 0.3]),
    "mixed-ties": lambda rng: rng.choice([1, 1.0, 2, 2.0]),
}


def _scan_instance(rng, mode):
    """Up to 14 paid vertices plus up to 4 free ones, sparse enough that
    the scan often goes deep before the terminals connect."""
    paid = rng.randint(0, 14)
    n = paid + rng.randint(1, 4)
    g = random_graph(n, rng.uniform(0.15, 0.45), rng)
    verts = g.vertices()
    rng.shuffle(verts)
    draw = _WEIGHT_POOLS[mode]
    for i, v in enumerate(verts):
        g.set_vertex_weight(v, draw(rng) if i < paid else 0)
    terms = rng.sample(g.vertices(), rng.randint(1, min(n, 5)))
    return g, terms


class TestSteinerTreeCost:
    def test_two_terminals_is_shortest_path(self):
        g = path_graph(5)
        assert steiner_tree_cost(g, [0, 4]) == 4

    def test_single_terminal(self):
        assert steiner_tree_cost(cycle_graph(5), [0]) == 0

    def test_all_terminals_is_mst(self):
        g = cycle_graph(4)
        assert steiner_tree_cost(g, g.vertices()) == 3

    def test_weighted_shortcut(self):
        g = cycle_graph(4)
        for u, v in g.edges():
            g.set_edge_weight(u, v, 1)
        g.set_edge_weight(0, 1, 10)
        assert steiner_tree_cost(g, [0, 1]) == 3

    def test_matches_brute_force(self, rng):
        for __ in range(6):
            g = connected_random_graph(7, 0.5, rng)
            for u, v in g.edges():
                g.set_edge_weight(u, v, rng.randint(1, 5))
            terms = g.vertices()[:3]
            assert abs(steiner_tree_cost(g, terms) -
                       brute_force_steiner_cost(g, terms)) < 1e-9

    def test_terminal_limit(self):
        g = complete_graph(16)
        with pytest.raises(ValueError):
            steiner_tree_cost(g, g.vertices())

    def test_tree_recovery(self, rng):
        g = connected_random_graph(7, 0.5, rng)
        terms = g.vertices()[:3]
        cost, edges = steiner_tree(g, terms)
        assert is_steiner_tree(g, edges, terms)
        assert abs(sum(g.edge_weight(u, v) for u, v in edges) - cost) < 1e-9


class TestIsSteinerTree:
    def test_accepts_path(self):
        g = path_graph(4)
        assert is_steiner_tree(g, [(0, 1), (1, 2), (2, 3)], [0, 3])

    def test_rejects_cycle(self):
        g = cycle_graph(3)
        assert not is_steiner_tree(g, g.edges(), [0, 1])

    def test_rejects_disconnected(self):
        g = path_graph(4)
        assert not is_steiner_tree(g, [(0, 1), (2, 3)], [0, 3])

    def test_rejects_non_spanning(self):
        g = path_graph(4)
        assert not is_steiner_tree(g, [(0, 1)], [0, 3])

    def test_rejects_fake_edges(self):
        g = path_graph(4)
        assert not is_steiner_tree(g, [(0, 3)], [0, 3])


class TestNodeWeightedSteiner:
    def test_free_graph(self):
        g = cycle_graph(5)
        for v in g.vertices():
            g.set_vertex_weight(v, 0)
        assert min_node_weighted_steiner_cost(g, [0, 2]) == 0

    def test_mandatory_middle_vertex(self):
        g = path_graph(3)
        g.set_vertex_weight(0, 0)
        g.set_vertex_weight(2, 0)
        g.set_vertex_weight(1, 7)
        assert min_node_weighted_steiner_cost(g, [0, 2]) == 7

    def test_chooses_cheaper_branch(self):
        g = Graph()
        for u, v in (("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")):
            g.add_edge(u, v)
        g.set_vertex_weight("s", 0)
        g.set_vertex_weight("t", 0)
        g.set_vertex_weight("a", 3)
        g.set_vertex_weight("b", 1)
        assert min_node_weighted_steiner_cost(g, ["s", "t"]) == 1

    def test_terminal_weights_charged(self):
        g = path_graph(2)
        g.set_vertex_weight(0, 2)
        g.set_vertex_weight(1, 3)
        assert min_node_weighted_steiner_cost(g, [0, 1]) == 5

    def test_limit(self):
        g = complete_graph(20)
        with pytest.raises(ValueError):
            min_node_weighted_steiner_cost(g, [0, 1], limit_candidates=5)

    def test_no_terminals(self):
        assert repr(min_node_weighted_steiner_cost(path_graph(3), [])) \
            == "0.0"

    def test_missing_terminal(self):
        with pytest.raises(KeyError):
            min_node_weighted_steiner_cost(path_graph(3), [0, "absent"])

    def test_disconnected_terminals(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert min_node_weighted_steiner_cost(g, [0, 3]) == float("inf")

    @pytest.mark.parametrize("weights, want", [((1, 1, 0), "2"),
                                               ((0.5, 1.5, 0), "2.0")])
    def test_result_type_follows_weights(self, weights, want):
        g = path_graph(3)
        for v, w in zip(g.vertices(), weights):
            g.set_vertex_weight(v, w)
        assert repr(min_node_weighted_steiner_cost(g, [0, 2])) == want

    def test_matches_brute_force(self):
        rng = random.Random(17)
        infeasible = 0
        for __ in range(200):
            g, terms = _random_node_weighted_instance(rng)
            got = min_node_weighted_steiner_cost(g, terms)
            want = brute_force_node_weighted_cost(g, terms)
            assert repr(got) == repr(want), (g.vertices(), g.edges(), terms)
            infeasible += got == float("inf")
        assert infeasible > 0

    @pytest.mark.parametrize("mode", sorted(_WEIGHT_POOLS))
    def test_best_first_matches_tabulated_scan(self, mode):
        """The best-first scan returns what the tabulate-and-sort scan
        returned, value and type (by ``repr``), on 600 seeded instances
        per weight mode."""
        rng = random.Random(f"nws-scan:{mode}")
        deep = 0
        for __ in range(600):
            g, terms = _scan_instance(rng, mode)
            got = min_node_weighted_steiner_cost(g, terms)
            want = _tabulated_node_weighted_cost(g, terms)
            assert repr(got) == repr(want), (mode, g.vertices(),
                                             g.edges(), terms)
            deep += sum(1 for v in g.vertices()
                        if g.vertex_weight(v) > 0) >= 12
        assert deep > 40

    def test_k2_family_pinned(self):
        """Every 8th pair of the k=2 Theorem 4.6 grid, hashed: the
        optimum (value and repr) the subset enumeration has always given."""
        from repro.core.steiner_approx import NodeWeightedSteinerFamily
        from repro.covering.designs import build_covering_collection

        fam = NodeWeightedSteinerFamily(
            build_covering_collection(16, 6, 2, seed=0))

        def bits(v):
            return tuple((v >> (5 - i)) & 1 for i in range(6))

        optima = [repr(fam.optimum(fam.build(bits(p >> 6), bits(p & 63))))
                  for p in range(0, 4096, 8)]
        digest = hashlib.sha256(",".join(optima).encode()).hexdigest()
        assert digest == ("4cc6a5b42defed53bf1abb7726c274aa"
                          "1e87a1b2537f7d7ead886982c05f77ac")


class TestDirectedSteinerReachability:
    def test_simple_path(self):
        dg = DiGraph()
        dg.add_edge("r", "a", weight=2)
        dg.add_edge("a", "t", weight=0)
        assert min_directed_steiner_reachability_cost(dg, "r", ["t"]) == 2

    def test_picks_cheaper_route(self):
        dg = DiGraph()
        dg.add_edge("r", "a", weight=5)
        dg.add_edge("a", "t", weight=0)
        dg.add_edge("r", "b", weight=1)
        dg.add_edge("b", "t", weight=0)
        assert min_directed_steiner_reachability_cost(dg, "r", ["t"]) == 1

    def test_shared_prefix(self):
        dg = DiGraph()
        dg.add_edge("r", "hub", weight=3)
        dg.add_edge("hub", "t1", weight=0)
        dg.add_edge("hub", "t2", weight=0)
        assert min_directed_steiner_reachability_cost(
            dg, "r", ["t1", "t2"]) == 3

    def test_unreachable_is_infinite(self):
        dg = DiGraph()
        dg.add_vertex("r")
        dg.add_vertex("t")
        assert min_directed_steiner_reachability_cost(
            dg, "r", ["t"]) == float("inf")

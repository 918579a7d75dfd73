"""Exact dominating-set / set-cover solver tests."""

import itertools
import math
import random

import pytest

from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, random_graph
from repro.solvers import (
    has_dominating_set_of_size,
    is_dominating_set,
    min_dominating_set,
    min_dominating_set_weight,
    min_k_dominating_set_weight,
    min_set_cover,
)
from repro.core.mds import MdsFamily
from repro.solvers import dominating
from repro.solvers.dominating import constrained_min_dominating_set
from tests.conftest import brute_force_mds_size, brute_force_mds_weight


class TestIsDominatingSet:
    def test_all_vertices(self):
        g = cycle_graph(5)
        assert is_dominating_set(g, g.vertices())

    def test_empty_fails_on_nonempty_graph(self):
        assert not is_dominating_set(cycle_graph(4), [])

    def test_center_of_star(self):
        g = Graph()
        for leaf in range(6):
            g.add_edge("c", leaf)
        assert is_dominating_set(g, ["c"])
        assert not is_dominating_set(g, [0])

    def test_distance_two(self):
        g = path_graph(5)
        assert is_dominating_set(g, [2], k=2)
        assert not is_dominating_set(g, [2], k=1)


class TestMinDominatingSet:
    def test_cycle_values(self):
        for n, expected in ((3, 1), (4, 2), (6, 2), (7, 3), (9, 3)):
            assert len(min_dominating_set(cycle_graph(n))) == expected

    def test_complete_graph(self):
        assert len(min_dominating_set(complete_graph(7))) == 1

    def test_matches_brute_force(self, rng):
        for __ in range(10):
            g = random_graph(8, 0.35, rng)
            assert len(min_dominating_set(g)) == brute_force_mds_size(g)

    def test_result_dominates(self, rng):
        for __ in range(8):
            g = random_graph(9, 0.3, rng)
            assert is_dominating_set(g, min_dominating_set(g))

    def test_decision_version(self):
        g = cycle_graph(9)
        assert has_dominating_set_of_size(g, 3)
        assert not has_dominating_set_of_size(g, 2)

    def test_weighted_matches_brute_force(self, rng):
        for __ in range(6):
            g = random_graph(7, 0.4, rng)
            for v in g.vertices():
                g.set_vertex_weight(v, rng.randint(1, 6))
            assert min_dominating_set_weight(g) == brute_force_mds_weight(g)

    def test_weighted_prefers_cheap(self):
        g = Graph()
        for leaf in range(4):
            g.add_edge("hub", leaf)
            g.add_edge("cheap_hub", leaf)
        g.add_edge("hub", "cheap_hub")
        g.set_vertex_weight("hub", 10)
        g.set_vertex_weight("cheap_hub", 1)
        for leaf in range(4):
            g.set_vertex_weight(leaf, 5)
        assert min_dominating_set_weight(g) == 1

    def test_k_domination_matches_brute_force(self, rng):
        for k in (2, 3):
            g = random_graph(8, 0.3, rng)
            for v in g.vertices():
                g.set_vertex_weight(v, rng.randint(1, 4))
            assert min_k_dominating_set_weight(g, k) == \
                brute_force_mds_weight(g, k=k)

    def test_zero_weight_vertices(self):
        g = path_graph(3)
        g.set_vertex_weight(1, 0)
        assert min_dominating_set_weight(g) == 0


class TestConstrainedDomination:
    def test_forced_vertices_included(self):
        g = cycle_graph(6)
        weight, picked = constrained_min_dominating_set(g, forced=[0])
        assert 0 in picked
        assert is_dominating_set(g, picked)

    def test_candidate_restriction(self):
        g = path_graph(5)  # optimal {1, 3}; restrict to even vertices
        weight, picked = constrained_min_dominating_set(
            g, candidates=[0, 2, 4])
        assert set(picked) == {0, 2, 4}

    def test_infeasible_candidates(self):
        g = path_graph(5)
        weight, picked = constrained_min_dominating_set(g, candidates=[0])
        assert picked is None

    def test_budget_exceeded(self):
        g = cycle_graph(9)  # optimum 3
        __, picked = constrained_min_dominating_set(g, budget=2.5)
        assert picked is None

    def test_targets_subset(self):
        g = path_graph(5)
        weight, picked = constrained_min_dominating_set(g, targets=[0])
        assert weight == 1


class TestSetCover:
    def test_simple(self):
        weight, choice = min_set_cover(4, [([0, 1], 1), ([2, 3], 1),
                                           ([0, 1, 2, 3], 3)])
        assert weight == 2
        assert sorted(choice) == [0, 1]

    def test_prefers_cheap_big_set(self):
        weight, choice = min_set_cover(4, [([0], 1), ([1], 1), ([2], 1),
                                           ([3], 1), ([0, 1, 2, 3], 2)])
        assert weight == 2
        assert choice == [4]

    def test_budget(self):
        weight, choice = min_set_cover(3, [([0], 1), ([1], 1), ([2], 1)],
                                       budget=2.5)
        assert choice is None

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            min_set_cover(2, [([5], 1)])

    def test_zero_elements(self):
        weight, choice = min_set_cover(0, [])
        assert weight == 0
        assert choice == []

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            min_set_cover(2, [([0, 1], -1), ([0], 1)])

    def test_negative_vertex_weight_rejected(self):
        g = path_graph(3)
        g.set_vertex_weight(1, -2)
        with pytest.raises(ValueError, match="negative"):
            min_dominating_set_weight(g)


class TestSetCoverWeightCheck:
    """The one pass of ``_SetCoverSolver`` over its weights: negative
    weights raise, and only integral weights whose total is below 2**53
    take the exact-integer bounds."""

    @staticmethod
    def _solver(weights):
        # element i is covered by set i and by the last set
        n = len(weights) - 1
        sets = [(1 << i, w, i) for i, w in enumerate(weights[:-1])]
        sets.append(((1 << n) - 1, weights[-1], n))
        return dominating._SetCoverSolver(n, sets)

    def test_integral_weights_take_integer_bounds(self):
        solver = self._solver([1.0, 2, 3.0])
        assert solver.int_weights == [1, 2, 3]
        assert all(type(w) is int for w in solver.int_weights)
        assert solver.slack == 1.0
        assert solver.solve()[0] == 3.0

    @pytest.mark.parametrize("odd", [math.inf, math.nan, 0.5, 2.0 ** 53],
                             ids=["inf", "nan", "fraction", "2^53"])
    def test_other_weights_take_float_path(self, odd):
        solver = self._solver([1.0, odd, 5.0])
        assert solver.int_weights is None
        assert solver.slack < 1.0
        weight, choice = solver.solve()
        if odd == 0.5:
            assert (weight, sorted(choice)) == (1.5, [0, 1])
        else:  # the covering set beats 1 + inf, 1 + nan and 1 + 2**53
            assert (weight, choice) == (5.0, [2])

    def test_sum_below_2_53_stays_integral(self):
        assert self._solver([1.0, 2.0 ** 52, 1.0]).int_weights is not None

    @pytest.mark.parametrize("weights", [[-1.0, 1.0, 1.0],
                                         [math.nan, 1.0, -0.5],
                                         [math.inf, 1.0, -2]])
    def test_negative_weight_raises(self, weights):
        with pytest.raises(ValueError, match="negative"):
            self._solver(weights)


def _random_instance(rng, n, m, weights, p=0.3):
    """``m`` random sets over ``0..n-1``, weights drawn from ``weights``."""
    return [([e for e in range(n) if rng.random() < p], rng.choice(weights))
            for __ in range(m)]


def _brute_force_cover(n, sets):
    """Minimum cover weight by enumerating every subfamily (inf if none)."""
    best = math.inf
    for r in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), r):
            covered = set()
            for i in combo:
                covered.update(sets[i][0])
            if len(covered) == n:
                best = min(best, math.fsum(sets[i][1] for i in combo))
    return best


class TestSetCoverAgainstBruteForce:
    """``min_set_cover`` against exhaustive enumeration, with and
    without budgets on either side of the optimum."""

    WEIGHTS = {
        "integral": (1, 2, 3),
        "fractional": (0.5, 1, 1.5),
        "thirds": (1 / 3, 2 / 3, 1),
        "zero": (0, 0, 1, 2),
    }

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_optimum(self, kind):
        rng = random.Random(f"set-cover:{kind}")
        integral = all(float(w).is_integer() for w in self.WEIGHTS[kind])
        for __ in range(40):
            n = rng.randint(0, 9)
            sets = _random_instance(rng, n, rng.randint(0, 9),
                                    self.WEIGHTS[kind], p=0.35)
            if rng.random() < 0.2 and n:
                # an element no set covers
                gone = rng.randrange(n)
                sets = [([e for e in el if e != gone], w) for el, w in sets]
            opt = _brute_force_cover(n, sets)
            weight, choice = min_set_cover(n, sets)
            if opt == math.inf:
                assert (weight, choice) == (math.inf, None)
                continue
            assert type(weight) is float
            assert weight == (opt if integral else pytest.approx(opt))
            assert set().union(*(sets[i][0] for i in choice)) == set(range(n))
            assert math.fsum(sets[i][1] for i in choice) == \
                pytest.approx(weight)
            # a cover strictly below the budget is found ...
            above = opt + 0.25
            weight, choice = min_set_cover(n, sets, budget=above)
            assert choice is not None and type(weight) is float
            assert weight == (opt if integral else pytest.approx(opt))
            # ... and none at or below the optimum
            for below in (opt, opt - 0.25):
                if integral or below != opt:
                    weight, choice = min_set_cover(n, sets, budget=below)
                    assert (weight, choice) == (below, None)

    # (weight, choice) of min_set_cover at commit 9df6017, before the
    # packing bound and the integer density bound: tighter bounds must
    # prune without changing the search's answer
    GOLDEN = [
        (1, 14, 12, (1, 2, 3), (7.0, [4, 8, 9, 0])),
        (2, 16, 14, (1,), (3.0, [13, 10, 5])),
        (3, 12, 12, (0.5, 1, 1.5), (5.0, [10, 0, 11, 2, 1])),
        (4, 14, 12, (0, 1, 2, 5), (2.0, [8, 6, 11, 5])),
    ]

    @pytest.mark.parametrize("seed,n,m,weights,expected", GOLDEN)
    def test_golden(self, seed, n, m, weights, expected):
        sets = _random_instance(random.Random(seed), n, m, weights)
        assert min_set_cover(n, sets) == expected

    def test_golden_float_sum_order(self):
        """Float sums depend on the order sets are added: the parent
        finds the cover summing to 0.6, not the equal-in-reals one
        summing to 0.6000000000000001, so a float bound must not prune
        on a rounding tie."""
        sets = [([0, 6], 0.1), ([8], 0.2), ([3], 0.7),
                ([1, 5, 6, 7, 8], 0.1), ([0, 2], 0.3), ([], 0.7),
                ([2, 3, 5], 0.2), ([], 0.3), ([1, 3, 4, 7], 0.2),
                ([0, 2, 3], 0.7)]
        assert min_set_cover(9, sets, budget=1.0) == (0.6, [8, 6, 0, 3])


class TestSetCoverSolverAgainstBruteForce:
    """``_SetCoverSolver`` itself, fresh and :meth:`reweighted`, against
    exhaustive enumeration: the optimum under each budget, and a choice
    that covers every element at exactly the returned weight."""

    WEIGHTS = ((1, 2, 3), (0, 1, 2), (0.5, 1, 1.5), (0.1, 0.2, 0.3, 0.7),
               (1 / 3, 2 / 3, 1), (1.0, 3.0, 1.5))
    BUDGETS = (math.inf, 0.5, 1, 1.5, 2, 2.5, 3, 4, 6)

    @staticmethod
    def _check(n, masks, weights, budget, got):
        opt = _brute_force_cover(
            n, [([e for e in range(n) if mask >> e & 1], w)
                for mask, w in zip(masks, weights)])
        weight, choice = got
        # a cover equal to the budget in reals may sum to either side of
        # it in floats, so there either answer stands
        tie = opt == pytest.approx(budget)
        if choice is None:
            assert weight == budget
            assert tie or not opt < budget, (n, masks, weights, budget)
            return
        assert weight < budget
        assert weight == pytest.approx(opt)
        covered = 0
        for i in choice:
            covered |= masks[i]
        assert covered == (1 << n) - 1
        assert weight == sum(weights[i] for i in choice)

    def test_differential(self):
        rng = random.Random("set-cover-solver")
        solves = 0
        for __ in range(300):
            n, m = rng.randint(0, 8), rng.randint(0, 9)
            masks = [sum(1 << e for e in range(n) if rng.random() < 0.35)
                     for __ in range(m)]
            kind = rng.choice(self.WEIGHTS)
            weights = [rng.choice(kind) for __ in masks]
            shared = dominating._SetCoverSolver(
                n, [(mask, w, i) for i, (mask, w)
                    in enumerate(zip(masks, weights))])
            budget = rng.choice(self.BUDGETS)
            self._check(n, masks, weights, budget, shared.solve(budget))
            solves += 1
            for __ in range(2):
                kind = rng.choice(self.WEIGHTS)
                weights = [rng.choice(kind) for __ in masks]
                solver = shared.reweighted(weights)
                for budget in (math.inf, rng.choice(self.BUDGETS)):
                    self._check(n, masks, weights, budget,
                                solver.solve(budget))
                    solves += 1
        assert solves == 1500


class TestMdsKernelSearch:
    """One ``MdsFamily(4)`` batch-kernel solve (n = 40, budget 10.5):
    x and y share bit 0, so a size-10 dominating set exists."""

    X = (1,) + (0,) * 15
    Y = (1,) + (0,) * 15
    #: measured at commit 9df6017 (density bound only)
    PARENT_NODES = 4907

    def _decide(self, monkeypatch):
        calls = []
        results = []
        search = dominating._SetCoverSolver._search
        solve = dominating._SetCoverSolver.solve

        def counted(self, *args):
            calls.append(None)
            return search(self, *args)

        def recorded(self, budget):
            results.append(solve(self, budget))
            return results[-1]

        monkeypatch.setattr(dominating._SetCoverSolver, "_search", counted)
        monkeypatch.setattr(dominating._SetCoverSolver, "solve", recorded)
        fam = MdsFamily(4)
        kernel = fam.make_batch_kernel(fam.skeleton())
        assert kernel.decide(self.X, self.Y)
        assert len(results) == 1
        return results[0], len(calls)

    def test_golden(self, monkeypatch):
        result, __ = self._decide(monkeypatch)
        assert result == (10.0, [6, 7, 16, 17, 26, 27, 36, 37, 0, 20])

    def test_node_count(self, monkeypatch):
        __, nodes = self._decide(monkeypatch)
        assert nodes <= self.PARENT_NODES // 2


class TestReweighted:
    """``reweighted(w)`` shares the element index and answers as a fresh
    solver over the same sets with weights ``w`` would."""

    WEIGHTS = {
        "integral": (0, 1, 2, 3),
        "fractional": (0.1, 0.2, 0.3),
        "zero": (0, 0, 1),
        "inf": (1, 2, math.inf),
        "nan": (1, 2, math.nan),
    }
    BUDGETS = (0.3, 0.6, 1.5, 2.5, 3.5)

    @staticmethod
    def _sets(rng, n, m):
        return [sum(1 << e for e in range(n) if rng.random() < 0.35)
                for __ in range(m)]

    def test_equals_fresh_solver(self):
        rng = random.Random("reweighted")
        kinds = sorted(self.WEIGHTS)
        solves = 0
        for system in range(2000):
            n, m = rng.randint(0, 9), rng.randint(0, 9)
            masks = self._sets(rng, n, m)
            first = self.WEIGHTS[kinds[system % len(kinds)]]
            shared = dominating._SetCoverSolver(
                n, [(mask, rng.choice(first), i)
                    for i, mask in enumerate(masks)])
            index = (shared.masks, shared.coverers)
            for kind in (first, self.WEIGHTS[rng.choice(kinds)]):
                weights = [rng.choice(kind) for __ in masks]
                for budget in (math.inf, rng.choice(self.BUDGETS)):
                    fresh = dominating._SetCoverSolver(
                        n, [(mask, w, i) for i, (mask, w)
                            in enumerate(zip(masks, weights))])
                    solver = shared.reweighted(weights)
                    assert solver.masks is shared.masks
                    assert solver.coverers is shared.coverers
                    assert solver.int_weights == fresh.int_weights
                    assert solver.slack == fresh.slack
                    assert solver.solve(budget) == fresh.solve(budget), \
                        (n, masks, weights, budget)
                    solves += 1
            # the index is read-only: solves leave it as it was built
            assert (shared.masks, shared.coverers) == index
            assert all(type(c) is tuple for c in shared.coverers)
        assert solves == 8000

    @pytest.mark.parametrize("weights", [[-1.0, 1.0], [math.nan, -0.5],
                                         [math.inf, -2]])
    def test_negative_weight_raises(self, weights):
        shared = dominating._SetCoverSolver(2, [(1, 1.0, 0), (3, 1.0, 1)])
        with pytest.raises(ValueError, match="negative"):
            shared.reweighted(weights)
        # the failed call leaves the shared solver usable
        assert shared.solve() == (1.0, [1])

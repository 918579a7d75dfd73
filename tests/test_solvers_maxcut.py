"""Exact max-cut solver tests."""

import pytest

from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, random_graph
from repro.solvers import cut_weight, max_cut, max_cut_value
from repro.solvers.maxcut import max_cut_vectorized
from tests.conftest import brute_force_max_cut


class TestCutWeight:
    def test_empty_side(self):
        assert cut_weight(cycle_graph(4), []) == 0

    def test_full_side(self):
        assert cut_weight(cycle_graph(4), cycle_graph(4).vertices()) == 0

    def test_bipartition_of_even_cycle(self):
        assert cut_weight(cycle_graph(6), [0, 2, 4]) == 6

    def test_weighted(self):
        g = path_graph(3)
        g.set_edge_weight(0, 1, 5)
        g.set_edge_weight(1, 2, 7)
        assert cut_weight(g, [1]) == 12


class TestMaxCut:
    def test_even_cycle(self):
        assert max_cut_value(cycle_graph(6)) == 6

    def test_odd_cycle(self):
        assert max_cut_value(cycle_graph(5)) == 4

    def test_complete_graph(self):
        # K_n max cut = floor(n/2)*ceil(n/2)
        for n in (3, 4, 5, 6):
            assert max_cut_value(complete_graph(n)) == (n // 2) * ((n + 1) // 2)

    def test_trivial_graphs(self):
        g = Graph()
        assert max_cut_value(g) == 0
        g.add_vertex(1)
        assert max_cut_value(g) == 0

    def test_side_achieves_value(self, rng):
        for __ in range(8):
            g = random_graph(9, 0.5, rng)
            value, side = max_cut(g)
            assert cut_weight(g, side) == value

    def test_matches_brute_force(self, rng):
        for __ in range(8):
            g = random_graph(8, 0.5, rng)
            for u, v in g.edges():
                g.set_edge_weight(u, v, rng.randint(1, 9))
            assert max_cut_value(g) == brute_force_max_cut(g)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            max_cut(complete_graph(30))

    def test_vectorized_matches_gray_code(self, rng):
        for __ in range(5):
            g = random_graph(10, 0.5, rng)
            for u, v in g.edges():
                g.set_edge_weight(u, v, rng.randint(1, 5))
            v1, __s = max_cut_vectorized(g)
            # force the Gray-code path by lowering the vectorized window
            from repro.solvers.maxcut import max_cut as mc
            v2, __s2 = mc(g, limit=16) if g.n <= 16 else (v1, None)
            assert v1 == brute_force_max_cut(g)
            assert v2 == v1

    def test_heavy_edge_dominates(self):
        g = cycle_graph(4)
        g.set_edge_weight(0, 1, 100)
        value, side = max_cut(g)
        assert value >= 100
        s = set(side)
        assert (0 in s) != (1 in s)


class TestDispatch:
    """Regressions for the vectorized-window dispatch in max_cut."""

    def _mid_size_graph(self):
        import random
        g = random_graph(18, 0.35, random.Random(21))
        return g

    def test_caller_limit_reaches_vectorized_path(self, monkeypatch):
        import repro.solvers.maxcut as mc

        captured = {}
        real = mc.max_cut_vectorized

        def spy(graph, limit=25):
            captured["limit"] = limit
            return real(graph, limit=limit)

        monkeypatch.setattr(mc, "max_cut_vectorized", spy)
        # non-integral weights keep the meet-in-the-middle fast path out
        # of the way, so the chunked sweep handles the window
        monkeypatch.setattr(mc, "_integral_weights", lambda g: False)
        g = self._mid_size_graph()
        mc.max_cut(g, limit=20)
        assert captured["limit"] == 20

    def test_mitm_handles_the_integral_window(self, monkeypatch):
        """Integral weights dispatch to meet-in-the-middle, which must
        agree with the chunked sweep it replaces."""
        import repro.solvers.maxcut as mc

        g = self._mid_size_graph()
        expected = mc.max_cut_vectorized(g)

        def unexpected(graph, limit=25):
            raise AssertionError("integral window should use mitm")

        monkeypatch.setattr(mc, "max_cut_vectorized", unexpected)
        assert mc.max_cut(g) == expected

    @pytest.mark.parametrize("n", [17, 21, 22, 25])
    def test_mitm_blocks_match_the_sweep_exactly(self, n):
        """One table block at n = 17, then 16, 32 and 256 of them: the
        blocked meet-in-the-middle must return the sweep's (value, side)
        exactly, ties included (unit weights tie often, signed weights
        drive totals negative)."""
        import random

        import repro.solvers.maxcut as mc

        rng = random.Random(n)
        unit = random_graph(n, 0.3, rng)
        signed = random_graph(n, 0.3, rng)
        for u, v in signed.edges():
            signed.set_edge_weight(u, v, rng.randint(-3, 5))
        for g in (unit, signed):
            assert mc.max_cut(g) == mc.max_cut_vectorized(g)

    def test_caller_limit_still_enforced(self):
        g = self._mid_size_graph()
        with pytest.raises(ValueError):
            max_cut(g, limit=17)

    def test_docstring_names_the_pinned_vertex(self):
        import repro.solvers.maxcut as mc
        assert "n−1" in mc.__doc__

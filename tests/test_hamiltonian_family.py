"""Figure 2 / Theorems 2.2-2.4 family tests (Claims 2.1-2.6)."""

from itertools import product

import pytest

from repro.cc.functions import (
    disjointness,
    random_disjoint_pair,
    random_input_pairs,
    random_intersecting_pair,
)
from repro.core.family import validate_family, verify_iff
from repro.core.hamiltonian import (
    END,
    MIDDLE,
    S11,
    S21,
    START,
    HamiltonianCycleFamily,
    HamiltonianPathFamily,
    arow,
    brow,
    burn,
    launch,
    skip,
)
from repro.solvers import (
    find_hamiltonian_path,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
)


@pytest.fixture(scope="module")
def fam():
    return HamiltonianPathFamily(2)


class TestConstruction:
    def test_vertex_count_k2(self, fam):
        # 6 specials + 4k rows + 2 log k boxes of (2 + 6k) vertices
        assert fam.n_vertices() == 6 + 8 + 2 * (2 + 12)

    def test_wheels_are_row_vertices(self, fam):
        # box 0 track t slot 0: the a1-row whose bit 0 is 1, i.e. index 1
        assert fam.wheel(0, 0, "t") == arow(1, 1)
        assert fam.wheel(0, 1, "t") == brow(1, 1)
        assert fam.wheel(0, 0, "f") == arow(1, 0)
        # boxes >= log k use the subscript-2 rows
        assert fam.wheel(1, 0, "t") == arow(2, 1)

    def test_every_row_is_wheel_once_per_box_side(self, fam):
        seen = {}
        for c in range(fam.n_boxes):
            for q in ("t", "f"):
                for d in range(fam.k):
                    w = fam.wheel(c, d, q)
                    seen.setdefault(w, 0)
                    seen[w] += 1
        # each row vertex appears once per box of its side
        assert all(count == fam.log_k for count in seen.values())

    def test_gadget_wiring(self, fam):
        g = fam.fixed_graph()
        l, s, b = launch(0, 0, "t"), skip(0, 0, "t"), burn(0, 0, "t")
        w = fam.wheel(0, 0, "t")
        assert g.has_edge(l, s) and g.has_edge(l, w)
        assert g.has_edge(w, b)
        assert g.has_edge(s, b) and g.has_edge(b, s)

    def test_backward_edge_to_s11(self, fam):
        g = fam.fixed_graph()
        for q in ("t", "f"):
            assert g.has_edge(burn(0, 0, q), S11)

    def test_start_end_degrees(self, fam):
        g = fam.fixed_graph()
        assert g.in_degree(START) == 0
        assert g.out_degree(END) == 0

    def test_definition_1_1(self, fam):
        validate_family(fam)

    def test_cut_logarithmic(self):
        e2 = len(HamiltonianPathFamily(2).cut_edges())
        e4 = len(HamiltonianPathFamily(4).cut_edges())
        # cut grows like log k, certainly not like k² = K
        assert e4 <= 2 * e2


class TestClaims:
    def test_iff_exhaustive_quarter(self, fam):
        """Claims 2.1 + 2.2 over a quarter of the full k=2 input space
        (CI's `verify hamiltonian-path -k 2 --grid` sweeps all 256
        pairs)."""
        pairs = [(x, y) for x in product((0, 1), repeat=4)
                 for y in product((0, 1), repeat=4)
                 if x[0] == 0 and y[3] == 0]
        report = verify_iff(fam, pairs, negate=True)
        assert report.checked == 64

    def test_witness_path_k2(self, fam, rng):
        x, y = random_intersecting_pair(4, rng)
        path = fam.witness_path(x, y)
        assert path[0] == START and path[-1] == END
        assert is_hamiltonian_path(fam.build(x, y), path)

    def test_witness_path_k4(self, rng):
        """A random intersecting pair at k=4, and x_9 = y_9 = 1 at k=8
        (n=390)."""
        unit = tuple(int(i == 9) for i in range(64))
        for k, (x, y) in ((4, random_intersecting_pair(16, rng)),
                          (8, (unit, unit))):
            famk = HamiltonianPathFamily(k)
            path = famk.witness_path(x, y)
            assert len(path) == famk.n_vertices()

    def test_no_witness_when_disjoint(self, fam, rng):
        x, y = random_disjoint_pair(4, rng)
        with pytest.raises(StopIteration):
            fam.witness_path(x, y)

    def test_found_path_respects_structure(self, fam, rng):
        x, y = random_intersecting_pair(4, rng)
        path = find_hamiltonian_path(fam.build(x, y))
        assert path is not None
        assert path[0] == START
        assert path[-1] == END


class TestCycleVariant:
    def test_middle_vertex_added(self):
        famc = HamiltonianCycleFamily(2)
        g = famc.build((0,) * 4, (0,) * 4)
        assert MIDDLE in g
        assert g.has_edge(END, MIDDLE)
        assert g.has_edge(MIDDLE, START)

    def test_claim_2_6_iff(self, rng):
        famc = HamiltonianCycleFamily(2)
        validate_family(famc)
        pairs = random_input_pairs(4, 6, rng)
        report = verify_iff(famc, pairs, negate=True)
        assert report.true_instances and report.false_instances

    def test_witness_cycle(self, rng):
        famc = HamiltonianCycleFamily(2)
        x, y = random_intersecting_pair(4, rng)
        cycle = famc.witness_cycle(x, y)
        assert is_hamiltonian_cycle(famc.build(x, y), cycle)

"""Batched decision kernels: protocol edge cases, invalidation, and
batch/per-pair/scratch equivalence on every kernel-bearing family."""

import random

import pytest

from repro.cc.functions import random_input_pairs
from repro.core.family import DeltaBuildMixin, sweep, verify_iff
from repro.core.hamiltonian import (
    HamiltonianCycleFamily,
    HamiltonianPathFamily,
)
from repro.core.kmds import KMdsFamily
from repro.covering.designs import build_covering_collection
from repro.core.maxcut import MaxCutFamily
from repro.core.mds import MdsFamily
from repro.core.approx_maxis import (
    LinearApproxMaxISFamily,
    UnweightedApproxMaxISFamily,
    WeightedApproxMaxISFamily,
)
from repro.core.steiner_approx import (
    DirectedSteinerFamily,
    NodeWeightedSteinerFamily,
)


def _grid(k_bits):
    return [(tuple(int(b) for b in format(i, f"0{k_bits}b")),
             tuple(int(b) for b in format(j, f"0{k_bits}b")))
            for i in range(1 << k_bits) for j in range(1 << k_bits)]


def _kmds(k=2):
    cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
    return KMdsFamily(cc, k=k)


def _directed_steiner():
    cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
    return DirectedSteinerFamily(cc)


def _node_weighted_steiner():
    cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
    return NodeWeightedSteinerFamily(cc)


FAMILIES = [
    pytest.param(lambda: MdsFamily(2), id="mds"),
    pytest.param(lambda: MaxCutFamily(2), id="maxcut"),
    pytest.param(lambda: HamiltonianCycleFamily(2), id="ham-cycle"),
    pytest.param(lambda: HamiltonianPathFamily(2), id="ham-path"),
    pytest.param(_kmds, id="kmds"),
    pytest.param(_directed_steiner, id="directed-steiner"),
    pytest.param(lambda: WeightedApproxMaxISFamily(2), id="approx-maxis"),
    pytest.param(lambda: UnweightedApproxMaxISFamily(2),
                 id="approx-maxis-unweighted"),
    pytest.param(lambda: LinearApproxMaxISFamily(2),
                 id="approx-maxis-linear"),
    pytest.param(_node_weighted_steiner, id="node-weighted-steiner"),
]


@pytest.mark.parametrize("make", FAMILIES)
def test_supports_batch(make):
    assert make().supports_batch()


def test_base_family_does_not_support_batch():
    class Plain(DeltaBuildMixin):
        pass

    assert not Plain().supports_batch()
    assert Plain().decide_batch(None, [((0,), (0,))]) is None


@pytest.mark.parametrize("make", FAMILIES)
def test_empty_pair_list(make):
    fam = make()
    assert fam.decide_batch(None, []) == {}


@pytest.mark.parametrize("make", FAMILIES)
def test_single_pair(make):
    fam = make()
    kb = fam.k_bits
    pair = (tuple([1] * kb), tuple([0] * kb))
    out = fam.decide_batch(None, [pair])
    assert set(out) == {pair}
    assert out[pair] == fam.predicate(fam.build(*pair))


@pytest.mark.parametrize("make", FAMILIES)
def test_batch_matches_per_pair_on_promise_violating_pairs(make):
    """The kernel must answer arbitrary dense/asymmetric pairs — not
    just the promise inputs the CC reduction would feed it — and agree
    with the per-pair delta build AND the from-scratch build."""
    fam = make()
    kb = fam.k_bits
    rng = random.Random(0xFEED)
    pairs = [(tuple([0] * kb), tuple([0] * kb)),
             (tuple([1] * kb), tuple([1] * kb)),
             (tuple([1] * kb), tuple([0] * kb))]
    pairs += random_input_pairs(kb, 6, rng)
    # dense pairs stress the delta path hardest
    pairs += [(tuple(int(rng.random() < 0.7) for _ in range(kb)),
               tuple(int(rng.random() < 0.7) for _ in range(kb)))
              for _ in range(4)]
    out = fam.decide_batch(None, pairs)
    assert set(out) == set(pairs)
    for x, y in pairs:
        expect_delta = fam.predicate(fam.build(x, y))
        expect_scratch = fam.predicate(fam.build_scratch(x, y))
        assert out[(x, y)] == expect_delta == expect_scratch, (x, y)


@pytest.mark.parametrize("make", [FAMILIES[0], FAMILIES[1]])
def test_duplicate_pairs_answered_once(make):
    fam = make()
    kb = fam.k_bits
    pair = (tuple([1] * kb), tuple([1] * kb))
    out = fam.decide_batch(None, [pair, pair, pair])
    assert set(out) == {pair}


def test_kernel_state_reused_across_calls():
    fam = MdsFamily(2)
    pairs = _grid(fam.k_bits)[:8]
    fam.decide_batch(None, pairs)
    events = fam.kernel_events()
    assert events["state_misses"] == 1
    fam.decide_batch(None, pairs)
    assert fam.kernel_events()["state_misses"] == 1
    assert fam.kernel_events()["state_hits"] >= 1


def test_kernel_invalidated_on_skeleton_content_change():
    """A kernel warmed on one skeleton must not answer for a different
    one: a content-hash change forces a rebuild (state miss)."""
    fam = MdsFamily(2)
    pairs = _grid(fam.k_bits)[:6]
    baseline = fam.decide_batch(None, pairs)
    misses = fam.kernel_events()["state_misses"]

    mutated = fam.skeleton().copy()
    mutated.add_vertex(("test", "extra-vertex"))
    assert mutated.content_hash() != fam.skeleton().content_hash()
    fam.decide_batch(mutated, [pairs[0]])
    assert fam.kernel_events()["state_misses"] == misses + 1

    # back on the canonical skeleton: rebuilt again, same answers
    again = fam.decide_batch(None, pairs)
    assert again == baseline


@pytest.mark.parametrize("make", [FAMILIES[0], FAMILIES[2]])
def test_sweep_batch_equivalence(make):
    fam = make()
    pairs = _grid(fam.k_bits)
    batched = sweep(make(), pairs, batch=True)
    plain = sweep(make(), pairs, batch=False)
    assert batched.decisions == plain.decisions
    assert batched.batched == batched.solved > 0
    assert plain.batched == 0


def test_sweep_batch_records_solve_timings():
    fam = MdsFamily(2)
    report = sweep(fam, _grid(fam.k_bits)[:12], batch=True)
    assert report.solve_ms is not None
    assert len(report.solve_ms) == report.solved
    assert all(ms >= 0.0 for ms in report.solve_ms)


def test_verify_iff_batch_flag():
    fam = MdsFamily(2)
    pairs = random_input_pairs(fam.k_bits, 12, random.Random(3))
    batched = verify_iff(fam, pairs, negate=True, batch=True)
    plain = verify_iff(MdsFamily(2), pairs, negate=True, batch=False)
    assert (batched.true_instances, batched.false_instances) \
        == (plain.true_instances, plain.false_instances)
    assert batched.checked == plain.checked == len(pairs)


def test_maxcut_kernel_declines_oversized_cross_table():
    """At k=4 the cut-landscape table has 2^18 x 2^18 totals, far past
    the work guard; the factory must decline before numpy allocates
    anything."""
    import tracemalloc

    fam = MaxCutFamily(4)
    skeleton = fam.skeleton()
    tracemalloc.start()
    try:
        assert fam.make_batch_kernel(skeleton) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _dense_g_reference(skeleton, delta_vertices):
    """``g[d] = max fixed cut over sides S with S ∩ D = d``, from the
    whole 2^(n-1) cut table at once.  Bit i of d is ``delta_vertices[i]``;
    the last non-D vertex in ``skeleton.vertices()`` order is pinned to
    side 0, as in the kernel."""
    import numpy as np

    dset = set(delta_vertices)
    free = [v for v in skeleton.vertices() if v not in dset]
    bit = {v: i for i, v in enumerate(list(delta_vertices) + free[:-1])}
    masks = np.arange(1 << len(bit), dtype=np.int64)

    def side(v):
        return (masks >> bit[v]) & 1 if v in bit else 0

    totals = np.zeros(masks.shape[0])
    for (u, v), w in skeleton.edge_weights().items():
        totals += float(w) * (side(u) ^ side(v))
    return totals.reshape(-1, 1 << len(delta_vertices)).max(axis=0)


def test_maxcut_kernel_table_is_bit_identical_to_dense_reference():
    """The blocked cross table must give exactly the ``g`` of the whole
    table, byte for byte."""
    fam = MaxCutFamily(2)
    skeleton = fam.skeleton()
    kernel = fam.make_batch_kernel(skeleton)
    want = _dense_g_reference(skeleton, list(kernel._dpos))
    assert kernel._g.dtype == want.dtype
    assert kernel._g.tobytes() == want.tobytes()


def test_maxcut_tables_stay_small():
    """The k=2 kernel build and an exact k=2 solve each range over 2^20
    cuts in fixed-size blocks; neither may hold the table whole (a dense
    float64 table alone is 8 MiB)."""
    import tracemalloc

    from repro.solvers import max_cut

    fam = MaxCutFamily(2)
    skeleton = fam.skeleton()
    graph = fam.build((1, 0, 0, 1), (0, 1, 1, 0))
    peaks = []
    for call in (lambda: fam.make_batch_kernel(skeleton),
                 lambda: max_cut(graph)):
        tracemalloc.start()
        try:
            assert call() is not None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 << 20, peaks

"""Differential check: batched kernel decisions ≡ per-pair delta
decisions, on delta graphs identical to their from-scratch builds.

The batched decision kernels (:mod:`repro.solvers.batch_kernels`)
answer a family's predicate from solver state precomputed off the
input-independent skeleton, and the monotone driver in
:meth:`repro.core.family.DeltaBuildMixin.decide_batch` infers most of a
grid from a few extremal solver calls.  Both layers are rich in ways to
be wrong quietly — a mis-indexed delta bit, a stale kernel after a
skeleton change, an unsound monotonicity assumption — so this check
pins, on seeded families:

- **delta ≡ scratch as graphs**: every sampled pair's incremental
  build (``build(x, y)``) has the same ``content_hash`` as the
  from-scratch reference (``build_scratch(x, y)``), so the predicate is
  solved once per pair and that answer stands for both builds; two
  different graphs fail even where their predicates would agree;
- **batch ≡ delta**: ``decide_batch`` output against the decisions of
  an unbatched, unmemoized sweep (``predicate(build(x, y))`` per pair);
- **promise-free inputs**: the sampled pairs include pairs violating
  the gap/unique-intersection promises (all-ones against all-ones,
  heavy random pairs) — kernels must be exact deciders of the graph
  predicate, not just correct on promise inputs;
- **sweep integration**: a ``sweep(..., batch=True)`` must report its
  kernel-served pairs in ``SweepReport.batched`` and still agree with
  ``batch=False`` bit-for-bit;
- **state invalidation**: after the skeleton content changes, a cached
  kernel keyed on the old hash must be rebuilt, never reused (observed
  through ``kernel_events()`` and through the decisions after the
  round-trip back to the original skeleton).
"""

from __future__ import annotations

import random
from typing import Optional


def _families(index: int):
    """Seven or eight kernel-bearing families per parity, covering
    unweighted domination, weighted domination, max-cut, Hamiltonian
    cycles, Steiner trees (Claim 2.8), the approx-MaxIS trio (weighted
    and linear on even cases, unweighted on odd ones), and
    node-weighted and directed Steiner trees (integral α on even cases;
    α = 1.5 on odd ones, which sends the directed cover search down its
    non-integral path and fits a 0-bit set under the node-weighted
    threshold of 2)."""
    from repro.core.approx_maxis import (
        LinearApproxMaxISFamily,
        UnweightedApproxMaxISFamily,
        WeightedApproxMaxISFamily,
    )
    from repro.core.hamiltonian import HamiltonianCycleFamily
    from repro.core.kmds import KMdsFamily
    from repro.core.maxcut import MaxCutFamily
    from repro.core.mds import MdsFamily
    from repro.core.steiner import SteinerTreeFamily
    from repro.core.steiner_approx import (
        DirectedSteinerFamily,
        NodeWeightedSteinerFamily,
    )
    from repro.covering.designs import build_covering_collection

    cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
    if index % 2 == 0:
        return [MdsFamily(2), MaxCutFamily(2), KMdsFamily(cc, k=2),
                SteinerTreeFamily(2), DirectedSteinerFamily(cc),
                NodeWeightedSteinerFamily(cc), WeightedApproxMaxISFamily(2),
                LinearApproxMaxISFamily(2)]
    return [MdsFamily(2), HamiltonianCycleFamily(2), KMdsFamily(cc, k=3),
            SteinerTreeFamily(2), DirectedSteinerFamily(cc, alpha=1.5),
            NodeWeightedSteinerFamily(cc, alpha=1.5),
            UnweightedApproxMaxISFamily(2)]


def _sample_pairs(k_bits: int, rng: random.Random):
    """Promise-violating mix: the gap-DISJ promise (unique intersection
    or none) is deliberately broken by dense pairs and the all-ones
    corner."""
    ones = tuple([1] * k_bits)
    zeros = tuple([0] * k_bits)
    pairs = [(zeros, zeros), (ones, ones), (ones, zeros)]
    for __ in range(7):
        x = tuple(1 if rng.random() < 0.6 else 0 for _ in range(k_bits))
        y = tuple(1 if rng.random() < 0.6 else 0 for _ in range(k_bits))
        pairs.append((x, y))
    return pairs


def check_batch_kernels(seed: int, index: int) -> Optional[str]:
    """Fuzz batch ≡ delta decisions and delta ≡ scratch graphs; None
    means OK."""
    from repro.core.family import sweep

    rng = random.Random(f"repro-batch-check:{seed}:{index}")
    for family in _families(index):
        name = type(family).__name__
        if not family.supports_batch():
            return f"{name}: expected a batch kernel, supports_batch()=False"
        pairs = _sample_pairs(family.k_bits, rng)

        batched = family.decide_batch(None, pairs)
        if batched is None:
            return f"{name}: decide_batch returned None despite a kernel"
        missing = [key for key in ((tuple(x), tuple(y)) for x, y in pairs)
                   if key not in batched]
        if missing:
            return f"{name}: decide_batch left pairs unanswered: {missing}"

        # one solve per pair: the unbatched sweep's decisions are the
        # delta answers, and they stand for the scratch build only
        # because the two builds are the same graph
        plain = sweep(family, pairs, memo=False, batch=False)
        for (x, y), delta in zip(pairs, plain.decisions):
            if (family.build(x, y).content_hash()
                    != family.build_scratch(x, y).content_hash()):
                return (f"{name}: x={x} y={y}: delta build differs from "
                        f"build_scratch")
            got = batched[(tuple(x), tuple(y))]
            if got != delta:
                return f"{name}: x={x} y={y}: batch={got}, delta={delta}"

        # sweep integration: batched and unbatched sweeps must agree,
        # and the batched one must actually engage the kernel
        via_kernel = sweep(family, pairs, memo=False, batch=True)
        if plain.decisions != via_kernel.decisions:
            return (f"{name}: sweep(batch=True) decisions "
                    f"{via_kernel.decisions} != sweep(batch=False) "
                    f"{plain.decisions}")
        if via_kernel.batched != via_kernel.solved:
            return (f"{name}: batched sweep reported "
                    f"{via_kernel.batched} kernel pairs for "
                    f"{via_kernel.solved} solved")
        if plain.batched != 0:
            return (f"{name}: sweep(batch=False) reported "
                    f"{plain.batched} kernel pairs")

        # state invalidation: mutate the cached skeleton's content and
        # the kernel keyed on the stale hash must be rebuilt
        events = dict(family.kernel_events())
        skeleton = family._skeleton_store.copy()
        extra = ("batch-check", "extra")
        skeleton.add_vertex(extra)
        fresh = family.decide_batch(skeleton, [pairs[0]])
        after = family.kernel_events()
        if fresh is not None:
            if after["state_misses"] <= events["state_misses"]:
                return (f"{name}: content-hash change did not rebuild "
                        f"the kernel: {events} -> {dict(after)}")
        # and going back to the original skeleton must rebuild again,
        # not resurrect state derived from the modified graph
        again = family.decide_batch(None, pairs)
        if again != batched:
            return (f"{name}: decisions changed after kernel "
                    f"invalidation round-trip")
    return None

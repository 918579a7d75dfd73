"""Metamorphic invariants over the production solvers.

Every function takes a graph (plus a seeded ``random.Random`` where the
invariant samples something) and returns ``None`` on success or a
human-readable failure message.  The invariants need no reference
implementation — they relate the production solvers *to themselves*
under transformations with known effect:

- **relabeling invariance**: solver values are graph properties, so any
  injective renaming of the vertices must leave them unchanged.  This is
  exactly the class of ``PYTHONHASHSEED``-dependent iteration-order bug
  PR 2 fixed by hand.
- **weight scaling**: scaling all edge (vertex) weights by c > 0 scales
  weight-valued optima by c.
- **disjoint-union additivity**: α, γ, ν, and max-cut are additive over
  disjoint unions.
- **complement identities**: Gallai's α(G) + τ(G) = n, evaluated through
  *two different production code paths* (the sparse branch-and-reduce
  solver vs the bitmask branch-and-bound behind vertex cover).
- **cut symmetry**: ``cut_weight(S) == cut_weight(V \\ S)``, and the
  max-cut certificate must reproduce the reported value.

Solvers are always reached through the ``repro.solvers`` namespace so a
planted mutation (monkeypatching ``repro.solvers.<name>``) is observed —
that is how the harness's own tests prove it can catch bugs.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.graphs import Graph, Vertex


def _solvers():
    from repro import solvers
    return solvers


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def relabeled(graph: Graph, rng: random.Random,
              ) -> Tuple[Graph, dict]:
    """A structurally identical copy under a random injective renaming."""
    vs = graph.vertices()
    codes = list(range(len(vs)))
    rng.shuffle(codes)
    mapping = {v: ("rl", c) for v, c in zip(vs, codes)}
    return graph.relabel(mapping), mapping


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """G ⊎ H on tagged copies of the two vertex sets."""
    g = Graph()
    for side, src in (("L", a), ("R", b)):
        for v in src.vertices():
            g.add_vertex((side, v), weight=src.vertex_weight(v))
        for u, v in src.edges():
            g.add_edge((side, u), (side, v), weight=src.edge_weight(u, v))
    return g


def scaled_weights(graph: Graph, edge_factor: float = 1.0,
                   vertex_factor: float = 1.0) -> Graph:
    g = graph.copy()
    if edge_factor != 1.0:
        for u, v in g.edges():
            g.set_edge_weight(u, v, g.edge_weight(u, v) * edge_factor)
    if vertex_factor != 1.0:
        for v in g.vertices():
            g.set_vertex_weight(v, g.vertex_weight(v) * vertex_factor)
    return g


# ----------------------------------------------------------------------
# relabeling invariance
# ----------------------------------------------------------------------
def inv_relabel_alpha(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    perm, __ = relabeled(graph, rng)
    a, b = s.independence_number(graph), s.independence_number(perm)
    if a != b:
        return f"independence_number changed under relabeling: {a} vs {b}"
    return None


def inv_relabel_maxcut(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    perm, __ = relabeled(graph, rng)
    a, b = s.max_cut_value(graph), s.max_cut_value(perm)
    if not _close(a, b):
        return f"max_cut_value changed under relabeling: {a} vs {b}"
    return None


def inv_relabel_dominating(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    perm, __ = relabeled(graph, rng)
    a = s.min_dominating_set_weight(graph)
    b = s.min_dominating_set_weight(perm)
    if not _close(a, b):
        return f"min_dominating_set_weight changed under relabeling: {a} vs {b}"
    return None


def inv_relabel_matching(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    perm, __ = relabeled(graph, rng)
    a, b = s.max_matching_size(graph), s.max_matching_size(perm)
    if a != b:
        return f"max_matching_size changed under relabeling: {a} vs {b}"
    return None


# ----------------------------------------------------------------------
# weight scaling
# ----------------------------------------------------------------------
def inv_scale_edge_weights(graph: Graph, rng: random.Random,
                           terminals: Sequence[Vertex] = (),
                           ) -> Optional[str]:
    s = _solvers()
    c = float(rng.randint(2, 5))
    scaled = scaled_weights(graph, edge_factor=c)
    a, b = s.max_cut_value(graph), s.max_cut_value(scaled)
    if not _close(a * c, b):
        return f"max_cut_value not {c}x-homogeneous: {a}*{c} != {b}"
    if len(terminals) >= 2:
        st, tt = terminals[0], terminals[1]
        a, b = s.weighted_distance(graph, st, tt), \
            s.weighted_distance(scaled, st, tt)
        if a != float("inf") and not _close(a * c, b):
            return f"weighted_distance not {c}x-homogeneous: {a}*{c} != {b}"
        a = s.steiner_tree_cost(graph, list(terminals))
        b = s.steiner_tree_cost(scaled, list(terminals))
        if a != float("inf") and not _close(a * c, b):
            return f"steiner_tree_cost not {c}x-homogeneous: {a}*{c} != {b}"
        fa, __ = s.max_flow(graph, st, tt)
        fb, __ = s.max_flow(scaled, st, tt)
        if not _close(fa * c, fb):
            return f"max_flow not {c}x-homogeneous: {fa}*{c} != {fb}"
    return None


def inv_scale_vertex_weights(graph: Graph, rng: random.Random,
                             ) -> Optional[str]:
    s = _solvers()
    c = float(rng.randint(2, 5))
    scaled = scaled_weights(graph, vertex_factor=c)
    a = s.max_independent_set_weight(graph)
    b = s.max_independent_set_weight(scaled)
    if not _close(a * c, b):
        return f"max_independent_set_weight not {c}x-homogeneous: " \
               f"{a}*{c} != {b}"
    a = s.min_dominating_set_weight(graph)
    b = s.min_dominating_set_weight(scaled)
    if not _close(a * c, b):
        return f"min_dominating_set_weight not {c}x-homogeneous: " \
               f"{a}*{c} != {b}"
    return None


# ----------------------------------------------------------------------
# disjoint-union additivity
# ----------------------------------------------------------------------
def inv_disjoint_union(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    other, __ = relabeled(graph, rng)  # same structure, fresh labels
    union = disjoint_union(graph, other)
    pairs = [
        ("independence_number", s.independence_number),
        ("max_matching_size", s.max_matching_size),
        ("max_cut_value", s.max_cut_value),
    ]
    if graph.n:  # γ undefined on the empty graph's components
        pairs.append(("min_dominating_set_weight",
                      s.min_dominating_set_weight))
    for name, fn in pairs:
        a, b, u = fn(graph), fn(other), fn(union)
        if not _close(float(a) + float(b), float(u)):
            return f"{name} not additive over disjoint union: " \
                   f"{a} + {b} != {u}"
    return None


# ----------------------------------------------------------------------
# complement / duality identities
# ----------------------------------------------------------------------
def inv_alpha_tau(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    alpha = s.independence_number(graph)          # α-only branch-and-reduce
    tau = s.min_vertex_cover_size(graph)          # bitmask branch-and-bound
    if alpha + tau != graph.n:
        return f"Gallai identity violated: α={alpha} + τ={tau} != n={graph.n}"
    nu = s.max_matching_size(graph)
    if not nu <= tau <= 2 * nu:
        return f"König/Gallai sandwich violated: ν={nu}, τ={tau}"
    return None


def inv_cut_complement(graph: Graph, rng: random.Random) -> Optional[str]:
    s = _solvers()
    vs = graph.vertices()
    side = [v for v in vs if rng.random() < 0.5]
    other = [v for v in vs if v not in set(side)]
    a, b = s.cut_weight(graph, side), s.cut_weight(graph, other)
    if not _close(a, b):
        return f"cut_weight(S) != cut_weight(V-S): {a} vs {b}"
    value, best_side = s.max_cut(graph)
    realised = s.cut_weight(graph, best_side)
    if not _close(value, realised):
        return f"max_cut certificate mismatch: reported {value}, " \
               f"side realises {realised}"
    if a > value + 1e-9:
        return f"random cut {a} beats reported maximum {value}"
    return None


# ----------------------------------------------------------------------
# certificate validity (cross-solver, no reference needed)
# ----------------------------------------------------------------------
def inv_certificates(graph: Graph, rng: random.Random,
                     terminals: Sequence[Vertex] = ()) -> Optional[str]:
    s = _solvers()
    mis = s.max_independent_set(graph, weighted=False)
    if not s.is_independent_set(graph, mis):
        return f"max_independent_set returned a dependent set: {mis!r}"
    if len(mis) != s.independence_number(graph):
        return f"solver disagreement: |max_independent_set|={len(mis)} " \
               f"but independence_number={s.independence_number(graph)}"
    if graph.n:
        ds = s.min_dominating_set(graph)
        if not s.is_dominating_set(graph, ds):
            return f"min_dominating_set returned a non-dominating set: {ds!r}"
    path = s.find_hamiltonian_path(graph)
    if path is not None and not s.is_hamiltonian_path(graph, path):
        return f"find_hamiltonian_path returned an invalid path: {path!r}"
    if 2 <= graph.n <= 14:
        hk = s.held_karp_has_path(graph)
        if (path is not None) != hk:
            return f"hamiltonian-path solvers disagree: DFS={path is not None}" \
                   f" Held-Karp={hk}"
    cycle = s.find_hamiltonian_cycle(graph)
    if cycle is not None and not s.is_hamiltonian_cycle(graph, cycle):
        return f"find_hamiltonian_cycle returned an invalid cycle: {cycle!r}"
    if len(terminals) >= 2 and graph.n <= 12:
        cost, edges = s.steiner_tree(graph, list(terminals))
        if cost != float("inf"):
            if not s.is_steiner_tree(graph, edges, list(terminals)):
                return f"steiner_tree certificate invalid: {edges!r}"
            realised = sum(graph.edge_weight(u, v) for u, v in edges)
            if not _close(realised, cost):
                return f"steiner_tree cost {cost} but edges weigh {realised}"
        st, tt = terminals[0], terminals[1]
        fval, __ = s.max_flow(graph, st, tt)
        cval, cut_side = s.min_st_cut(graph, st, tt)
        if not _close(fval, cval):
            return f"max-flow/min-cut duality violated: flow {fval}, " \
                   f"cut {cval}"
        dist = s.dijkstra(graph, st)
        for u, v in graph.edges():
            du, dv = dist.get(u), dist.get(v)
            if du is not None and dv is not None:
                w = graph.edge_weight(u, v)
                if dv > du + w + 1e-9 or du > dv + w + 1e-9:
                    return f"dijkstra triangle inequality violated on " \
                           f"({u!r},{v!r})"
    return None

"""Connectivity-flavoured PLS (Lemma 5.1, items 1-9)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.graphs import Graph, Vertex
from repro.pls._fields import (
    build_pointer_field,
    build_tree_field,
    check_pointer_field,
    check_tree_field,
    ensure_label,
    get_field,
)
from repro.pls.scheme import Labels, PlsInstance, ProofLabelingScheme, edge_key
from repro.pls.trees import _consecutive_cycle_check, _find_cycle


# ----------------------------------------------------------------------
# connectivity of H (items 1 and 6)
# ----------------------------------------------------------------------
class ConnectivityPls(ProofLabelingScheme):
    """H is connected (and spans every vertex) — item 6."""

    name = "connectivity"

    def applies(self, instance: PlsInstance) -> bool:
        h = instance.h_graph()
        return h.n == 0 or (h.is_connected() and
                            all(h.degree(v) > 0 for v in h.vertices())
                            if h.n > 1 else True)

    def prove(self, instance: PlsInstance) -> Labels:
        labels: Labels = {}
        build_tree_field(instance.h_graph(), labels, "t")
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        if not check_tree_field(instance.h_neighbors(v), labels, v, "t"):
            return False
        root = get_field(labels, v, "t_root")
        # root consistency across all of G, so components cannot each
        # pick their own root
        return all(get_field(labels, w, "t_root") == root
                   for w in instance.graph.neighbors(v))


class ConnectedSpanningSubgraphPls(ConnectivityPls):
    """Item 1: H connected and every vertex has non-zero H-degree."""

    name = "connected-spanning-subgraph"

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        if instance.graph.n > 1 and not instance.h_neighbors(v):
            return False
        return super().vertex_accepts(instance, labels, v)


class NotConnectedSpanningSubgraphPls(ProofLabelingScheme):
    """Negation of item 1: H is not a connected spanning subgraph —
    either some vertex has H-degree 0 (case 0: pointer to it) or H is
    disconnected (case 1: the non-connectivity marks)."""

    name = "not-connected-spanning-subgraph"

    def applies(self, instance: PlsInstance) -> bool:
        return not ConnectedSpanningSubgraphPls().applies(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        h = instance.h_graph()
        labels: Labels = {}
        isolated = [v for v in h.vertices() if h.degree(v) == 0]
        if isolated:
            for v in instance.graph.vertices():
                ensure_label(labels, v)["case"] = 0
            build_pointer_field(instance.graph, labels, "d", [isolated[0]])
            return labels
        inner = NonConnectivityPls().prove(instance)
        for v, lab in inner.items():
            lab["case"] = 1
        return inner

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        case = get_field(labels, v, "case")
        if case not in (0, 1):
            return False
        for w in instance.graph.neighbors(v):
            if get_field(labels, w, "case") != case:
                return False
        if case == 0:
            ptr = check_pointer_field(instance.graph, labels, v, "d")
            if ptr is False:
                return False
            if ptr is True:
                return True
            return len(instance.h_neighbors(v)) == 0
        return NonConnectivityPls().vertex_accepts(instance, labels, v)


class NonConnectivityPls(ProofLabelingScheme):
    """H is disconnected: 0/1 component marks, monochromatic H edges,
    and two G-spanning trees rooted at representatives of each mark."""

    name = "non-connectivity"

    def applies(self, instance: PlsInstance) -> bool:
        return not ConnectivityPls().applies(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        h = instance.h_graph()
        comps = h.connected_components()
        comp0 = comps[0]
        labels: Labels = {}
        for v in instance.graph.vertices():
            ensure_label(labels, v)["mark"] = 0 if v in comp0 else 1
        zero = min(comp0, key=repr)
        one = min((v for v in instance.graph.vertices() if v not in comp0),
                  key=repr)
        build_tree_field(instance.graph, labels, "t0", root=zero)
        build_tree_field(instance.graph, labels, "t1", root=one)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        mark = get_field(labels, v, "mark")
        if mark not in (0, 1):
            return False
        for w in instance.h_neighbors(v):
            if get_field(labels, w, "mark") != mark:
                return False
        for prefix, want in (("t0", 0), ("t1", 1)):
            if not check_tree_field(instance.graph.neighbors(v), labels, v,
                                    prefix):
                return False
            if v == get_field(labels, v, prefix + "_root") and mark != want:
                return False
        return True


# ----------------------------------------------------------------------
# (s, t)-connectivity in H (item 5)
# ----------------------------------------------------------------------
class StConnectivityPls(ProofLabelingScheme):
    """s and t lie in the same H-component."""

    name = "st-connectivity"

    def _carrier_neighbors(self, instance: PlsInstance, v: Vertex) -> Set[Vertex]:
        return instance.h_neighbors(v)

    def _carrier_distances(self, instance: PlsInstance) -> Dict[Vertex, int]:
        return instance.h_graph().bfs_distances(instance.s)

    def applies(self, instance: PlsInstance) -> bool:
        return instance.t in self._carrier_distances(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        dist = self._carrier_distances(instance)
        labels: Labels = {}
        for v in instance.graph.vertices():
            ensure_label(labels, v)["d"] = dist.get(v)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        d = get_field(labels, v, "d")
        if v == instance.s:
            return d == 0
        if d is None:
            return v != instance.t
        if not isinstance(d, int) or d <= 0:
            return False
        return any(get_field(labels, w, "d") == d - 1
                   for w in self._carrier_neighbors(instance, v))


class NonStConnectivityPls(ProofLabelingScheme):
    """s and t in different H-components: monochromatic marks."""

    name = "non-st-connectivity"

    def _carrier_neighbors(self, instance: PlsInstance, v: Vertex) -> Set[Vertex]:
        return instance.h_neighbors(v)

    def _component_of_s(self, instance: PlsInstance) -> Set[Vertex]:
        return set(instance.h_graph().bfs_distances(instance.s))

    def applies(self, instance: PlsInstance) -> bool:
        return instance.t not in self._component_of_s(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        comp = self._component_of_s(instance)
        labels: Labels = {}
        for v in instance.graph.vertices():
            ensure_label(labels, v)["mark"] = 0 if v in comp else 1
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        mark = get_field(labels, v, "mark")
        if mark not in (0, 1):
            return False
        if v == instance.s and mark != 0:
            return False
        if v == instance.t and mark != 1:
            return False
        return all(get_field(labels, w, "mark") == mark
                   for w in self._carrier_neighbors(instance, v))


# ----------------------------------------------------------------------
# cycle containment (items 2 and 3)
# ----------------------------------------------------------------------
class CyclePls(ProofLabelingScheme):
    """H contains a cycle: pointer to a set of min-H-degree ≥ 2."""

    name = "cycle-containment"

    def applies(self, instance: PlsInstance) -> bool:
        h = instance.h_graph()
        return any(h.induced_subgraph(comp).m >= len(comp)
                   for comp in h.connected_components())

    def prove(self, instance: PlsInstance) -> Labels:
        h = instance.h_graph()
        comp = next(c for c in h.connected_components()
                    if h.induced_subgraph(c).m >= len(c))
        cycle = _find_cycle(h.induced_subgraph(comp))
        labels: Labels = {}
        build_pointer_field(instance.graph, labels, "d", cycle)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        ptr = check_pointer_field(instance.graph, labels, v, "d")
        if ptr is False:
            return False
        if ptr is True:
            return True
        in_set = [w for w in instance.h_neighbors(v)
                  if get_field(labels, w, "d") == 0]
        return len(in_set) >= 2


class NoCyclePls(ProofLabelingScheme):
    """H contains no cycle — delegates to the acyclicity forest field."""

    name = "no-cycle"

    def __init__(self) -> None:
        from repro.pls.trees import AcyclicityPls

        self._inner = AcyclicityPls()

    def applies(self, instance: PlsInstance) -> bool:
        return self._inner.applies(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        return self._inner.prove(instance)

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        return self._inner.vertex_accepts(instance, labels, v)


class ECyclePls(ProofLabelingScheme):
    """H contains a cycle through the marked edge e: the pointed set is
    2-regular in H (disjoint cycles) and contains both endpoints of e."""

    name = "e-cycle-containment"

    def applies(self, instance: PlsInstance) -> bool:
        if instance.e not in instance.subgraph:
            return False
        u, v = tuple(instance.e)
        h = instance.h_graph()
        h.remove_edge(u, v)
        return v in h.bfs_distances(u)

    def prove(self, instance: PlsInstance) -> Labels:
        u, v = tuple(instance.e)
        h = instance.h_graph()
        h.remove_edge(u, v)
        # shortest u-v path in H - e, plus e, is a cycle through e
        dist = h.bfs_distances(u)
        path = [v]
        while path[-1] != u:
            cur = path[-1]
            path.append(next(w for w in h.neighbors(cur)
                             if dist.get(w) == dist[cur] - 1))
        labels: Labels = {}
        build_pointer_field(instance.graph, labels, "d", path)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        if instance.e not in instance.subgraph:
            return False
        ptr = check_pointer_field(instance.graph, labels, v, "d")
        if ptr is False:
            return False
        eu, ev = tuple(instance.e)
        if v in (eu, ev) and get_field(labels, v, "d") != 0:
            return False
        if ptr is True:
            return True
        in_set = [w for w in instance.h_neighbors(v)
                  if get_field(labels, w, "d") == 0]
        return len(in_set) == 2


class NoECyclePls(ProofLabelingScheme):
    """No H-cycle through e: either e ∉ H (case 0, checked by its
    endpoints) or e's endpoints are separated in H − e (case 1 marks)."""

    name = "no-e-cycle"

    def applies(self, instance: PlsInstance) -> bool:
        return not ECyclePls().applies(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        labels: Labels = {}
        if instance.e not in instance.subgraph:
            for v in instance.graph.vertices():
                ensure_label(labels, v)["case"] = 0
            return labels
        u, v = tuple(instance.e)
        h = instance.h_graph()
        h.remove_edge(u, v)
        comp = set(h.bfs_distances(u))
        for w in instance.graph.vertices():
            lab = ensure_label(labels, w)
            lab["case"] = 1
            lab["mark"] = 0 if w in comp else 1
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        case = get_field(labels, v, "case")
        if case not in (0, 1):
            return False
        for w in instance.graph.neighbors(v):
            if get_field(labels, w, "case") != case:
                return False
        eu, ev = tuple(instance.e)
        if case == 0:
            if v in (eu, ev):
                return instance.e not in instance.subgraph
            return True
        mark = get_field(labels, v, "mark")
        if mark not in (0, 1):
            return False
        if v == eu and mark != 0:
            return False
        if v == ev and mark != 1:
            return False
        for w in instance.h_neighbors(v):
            if edge_key(v, w) == instance.e:
                continue
            if get_field(labels, w, "mark") != mark:
                return False
        return True


# ----------------------------------------------------------------------
# bipartiteness (item 4)
# ----------------------------------------------------------------------
def _two_colouring(h: Graph) -> Optional[Dict[Vertex, int]]:
    """A proper 2-colouring of ``h`` by BFS parity, or None if ``h`` has
    an odd cycle.  The first vertex of each component gets colour 1 and
    isolated vertices colour 0."""
    colour: Dict[Vertex, int] = {}
    for v in h.vertices():
        if v in colour:
            continue
        if not h.neighbors(v):
            colour[v] = 0
            continue
        for w, d in h.bfs_distances(v).items():
            colour[w] = 1 - d % 2
    if any(colour[u] == colour[v] for u, v in h.edges()):
        return None
    return colour


class BipartitePls(ProofLabelingScheme):
    """H is bipartite: a 2-colouring."""

    name = "bipartite"

    def applies(self, instance: PlsInstance) -> bool:
        return _two_colouring(instance.h_graph()) is not None

    def prove(self, instance: PlsInstance) -> Labels:
        coloring = _two_colouring(instance.h_graph())
        labels: Labels = {}
        for v in instance.graph.vertices():
            ensure_label(labels, v)["color"] = coloring.get(v, 0)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        color = get_field(labels, v, "color")
        if color not in (0, 1):
            return False
        return all(get_field(labels, w, "color") == 1 - color
                   for w in instance.h_neighbors(v))


class NonBipartitePls(ProofLabelingScheme):
    """H is not bipartite: pointer to a consecutively-enumerated odd
    cycle in H."""

    name = "non-bipartite"

    def applies(self, instance: PlsInstance) -> bool:
        return not BipartitePls().applies(instance)

    def prove(self, instance: PlsInstance) -> Labels:
        h = instance.h_graph()
        cycle = _find_odd_cycle(h)
        labels: Labels = {}
        for idx, v in enumerate(cycle, start=1):
            ensure_label(labels, v)["idx"] = idx
        build_pointer_field(instance.graph, labels, "d", cycle)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        ptr = check_pointer_field(instance.graph, labels, v, "d")
        if ptr is False:
            return False
        if ptr is True:
            return True
        return _consecutive_cycle_check(instance, labels, v, "idx", "d",
                                        lambda x: x % 2 == 1)


def _find_odd_cycle(graph: Graph) -> List[Vertex]:
    """A shortest odd cycle, via BFS layers within each component."""
    for start in graph.vertices():
        dist = graph.bfs_distances(start)
        for u, v in graph.edges():
            if u in dist and v in dist and dist[u] == dist[v]:
                # odd cycle through the least common ancestor
                pu = _bfs_path(graph, start, u, dist)
                pv = _bfs_path(graph, start, v, dist)
                common = 0
                while common < min(len(pu), len(pv)) \
                        and pu[common] == pv[common]:
                    common += 1
                cycle = pu[common - 1:] + pv[common:][::-1]
                if len(cycle) >= 3 and len(cycle) % 2 == 1:
                    return cycle
    raise ValueError("graph is bipartite")


def _bfs_path(graph: Graph, start: Vertex, end: Vertex,
              dist: Dict[Vertex, int]) -> List[Vertex]:
    path = [end]
    while path[-1] != start:
        cur = path[-1]
        path.append(next(w for w in graph.neighbors(cur)
                         if dist.get(w) == dist[cur] - 1))
    return path[::-1]


# ----------------------------------------------------------------------
# cuts (items 7-9)
# ----------------------------------------------------------------------
class CutPls(ProofLabelingScheme):
    """H is a cut of G: G \\ H is disconnected."""

    name = "cut"

    def applies(self, instance: PlsInstance) -> bool:
        comp = instance.complement_graph()
        return not comp.is_connected()

    def prove(self, instance: PlsInstance) -> Labels:
        comp_graph = instance.complement_graph()
        comps = comp_graph.connected_components()
        comp0 = comps[0]
        labels: Labels = {}
        for v in instance.graph.vertices():
            ensure_label(labels, v)["mark"] = 0 if v in comp0 else 1
        zero = min(comp0, key=repr)
        one = min((v for v in instance.graph.vertices() if v not in comp0),
                  key=repr)
        build_tree_field(instance.graph, labels, "t0", root=zero)
        build_tree_field(instance.graph, labels, "t1", root=one)
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        mark = get_field(labels, v, "mark")
        if mark not in (0, 1):
            return False
        for w in instance.graph.neighbors(v):
            if edge_key(v, w) not in instance.subgraph \
                    and get_field(labels, w, "mark") != mark:
                return False
        for prefix, want in (("t0", 0), ("t1", 1)):
            if not check_tree_field(instance.graph.neighbors(v), labels, v,
                                    prefix):
                return False
            if v == get_field(labels, v, prefix + "_root") and mark != want:
                return False
        return True


class NotCutPls(ProofLabelingScheme):
    """H is not a cut: a spanning tree of G \\ H."""

    name = "not-cut"

    def applies(self, instance: PlsInstance) -> bool:
        return instance.complement_graph().is_connected()

    def prove(self, instance: PlsInstance) -> Labels:
        labels: Labels = {}
        build_tree_field(instance.complement_graph(), labels, "t")
        return labels

    def vertex_accepts(self, instance: PlsInstance, labels: Labels,
                       v: Vertex) -> bool:
        comp_nbrs = {w for w in instance.graph.neighbors(v)
                     if edge_key(v, w) not in instance.subgraph}
        if not check_tree_field(comp_nbrs, labels, v, "t"):
            return False
        root = get_field(labels, v, "t_root")
        return all(get_field(labels, w, "t_root") == root
                   for w in instance.graph.neighbors(v))


class StCutPls(NonStConnectivityPls):
    """H is an (s,t)-cut: s and t separated in G \\ H (item 9)."""

    name = "st-cut"

    def _carrier_neighbors(self, instance: PlsInstance, v: Vertex) -> Set[Vertex]:
        return {w for w in instance.graph.neighbors(v)
                if edge_key(v, w) not in instance.subgraph}

    def _component_of_s(self, instance: PlsInstance) -> Set[Vertex]:
        return set(instance.complement_graph().bfs_distances(instance.s))


class NotStCutPls(StConnectivityPls):
    """H is not an (s,t)-cut: an s-t path in G \\ H."""

    name = "not-st-cut"

    def _carrier_neighbors(self, instance: PlsInstance, v: Vertex) -> Set[Vertex]:
        return {w for w in instance.graph.neighbors(v)
                if edge_key(v, w) not in instance.subgraph}

    def _carrier_distances(self, instance: PlsInstance) -> Dict[Vertex, int]:
        return instance.complement_graph().bfs_distances(instance.s)


class EdgeOnAllPathsPls(NonStConnectivityPls):
    """e lies on every s-t path of H: s, t separated in H − e (item 8)."""

    name = "edge-on-all-paths"

    def _carrier_neighbors(self, instance: PlsInstance, v: Vertex) -> Set[Vertex]:
        return {w for w in instance.h_neighbors(v)
                if edge_key(v, w) != instance.e}

    def _component_of_s(self, instance: PlsInstance) -> Set[Vertex]:
        h = instance.h_graph()
        u, w = tuple(instance.e)
        if h.has_edge(u, w):
            h.remove_edge(u, w)
        return set(h.bfs_distances(instance.s))


class EdgeNotOnAllPathsPls(StConnectivityPls):
    """Some s-t path of H avoids e: an s-t distance field in H − e."""

    name = "edge-not-on-all-paths"

    def _carrier_neighbors(self, instance: PlsInstance, v: Vertex) -> Set[Vertex]:
        return {w for w in instance.h_neighbors(v)
                if edge_key(v, w) != instance.e}

    def _carrier_distances(self, instance: PlsInstance) -> Dict[Vertex, int]:
        h = instance.h_graph()
        u, w = tuple(instance.e)
        if h.has_edge(u, w):
            h.remove_edge(u, w)
        return h.bfs_distances(instance.s)

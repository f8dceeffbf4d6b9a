"""Native branch-and-bound matchers for property graphs.

ProvMark reduces three problems to (sub)graph matching (paper §3.4–3.5):

* **similarity** — structure-only isomorphism: same shape, labels, and
  incidence, ignoring properties;
* **generalization** — among all isomorphisms between two similar graphs,
  find one minimizing the number of mismatched properties, then keep only
  the properties that agree;
* **comparison** — an *approximate subgraph isomorphism*: embed the
  background graph into the foreground graph, minimizing the number of
  background properties with no matching foreground property (Listing 4's
  cost model).

The paper solves these with clingo; this module is the fast native engine.
:mod:`repro.solver.asp` executes the paper's actual ASP programs and is
cross-checked against this implementation in the test suite.

Performance architecture (see ROADMAP.md):

* candidate domains are pruned with label/degree indexes plus two rounds
  of Weisfeiler-Leman-style neighborhood-color refinement before search;
* group feasibility is incremental — each assignment step only touches
  parallel-edge groups incident to the newly mapped node, and the inverse
  node map is maintained alongside the forward map instead of being
  rebuilt;
* a cost-minimizing search prices no candidate pair: it reads each
  element's cost against every candidate from g2's per-label property
  postings (:func:`_holder_counts`), and embedding domains are computed
  once per (label, neighbourhood signature);
* wide parallel-edge groups are assigned optimally with the Hungarian
  algorithm instead of a greedy heuristic;
* each trial pair is searched once: similarity classing only decides
  membership and prices nothing, generalization's minimizing search on
  trials 0 and 1 doubles as their similarity proof, and any other
  chosen pair warm-starts from its classing isomorphism, priced once
  (:func:`price_node_map`);
* exact matchings are *decomposed* whenever equivalence is provable:
  WL-singleton anchors pin the cross-component constraints, the residual
  connected components are solved independently by following the DFS's
  own candidate order over their WL classes, and the pieces are stitched
  into one matching — skipping the monolithic search's
  O(V1·V2 + E1·E2) preprocessing entirely.  A cost-minimizing stitch is
  kept when it attains a lower bound summed from per-element class
  minima, which makes generalization linear in the target size for
  every capture tool (see the "decomposed exact matching" section below).

All of the above can be disabled with :func:`solver_optimizations` (and
the decomposition alone with :func:`solver_decomposition`), which the
tests use as references (``tests/test_solver_costs.py`` compares their
step counts); per-thread counters are exposed through
:func:`solver_stats`.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.graph.model import Edge, Node, PropertyGraph

_Element = Union[Node, Edge]


class SolverLimit(Exception):
    """Raised when the backtracking search exceeds its step budget."""


# -- observability ----------------------------------------------------------


@dataclass
class SolverStats:
    """Per-thread counters making the optimization wins observable.

    ``steps`` — backtracking search steps; ``searches`` — number of
    :class:`_MatchSearch` runs and decomposed passes;
    ``cost_cache_hits`` — property mismatch costs served from the memo
    of a decomposed pass or :func:`price_node_map`, the only pricing
    that memoizes pairs (a :class:`_MatchSearch` reads postings when it
    minimizes with the optimizations on, and prices pairs directly
    otherwise); ``matching_cache_hits`` —
    generalizations that reused a search: a warm start from a classing
    matching, or a pair search that was also the similarity proof.
    ``decomposed_components`` — independent sub-problems solved by the
    decomposed matcher instead of one monolithic search;
    ``component_steps_max`` — high-water mark of steps spent inside a
    single decomposed component (the largest piece actually searched).
    """

    steps: int = 0
    searches: int = 0
    cost_cache_hits: int = 0
    matching_cache_hits: int = 0
    decomposed_components: int = 0
    component_steps_max: int = 0

    def snapshot(self) -> "SolverStats":
        """Copy the counters and open a fresh high-water-mark window.

        The accumulators are windowed by subtraction in :meth:`delta`;
        ``component_steps_max`` cannot be, so taking a snapshot zeroes the
        live mark and the next :meth:`delta` reports the largest component
        searched *since this snapshot*.  Callers always pair the two
        (stage timing windows never nest within a thread).
        """
        copied = SolverStats(
            steps=self.steps,
            searches=self.searches,
            cost_cache_hits=self.cost_cache_hits,
            matching_cache_hits=self.matching_cache_hits,
            decomposed_components=self.decomposed_components,
            component_steps_max=self.component_steps_max,
        )
        self.component_steps_max = 0
        return copied

    def delta(self, since: "SolverStats") -> "SolverStats":
        return SolverStats(
            steps=self.steps - since.steps,
            searches=self.searches - since.searches,
            cost_cache_hits=self.cost_cache_hits - since.cost_cache_hits,
            matching_cache_hits=(
                self.matching_cache_hits - since.matching_cache_hits
            ),
            decomposed_components=(
                self.decomposed_components - since.decomposed_components
            ),
            # A high-water mark, not an accumulator: ``snapshot`` zeroed
            # the mark, so the live value is the window maximum.
            component_steps_max=self.component_steps_max,
        )


_tls = threading.local()


def solver_stats() -> SolverStats:
    """The calling thread's solver counters (created on first use)."""
    stats = getattr(_tls, "stats", None)
    if stats is None:
        stats = SolverStats()
        _tls.stats = stats
    return stats


def reset_solver_stats() -> SolverStats:
    """Zero the calling thread's counters and return the fresh object."""
    _tls.stats = SolverStats()
    return _tls.stats


_OPTIMIZATIONS_ENABLED = True


@contextmanager
def solver_optimizations(enabled: bool) -> Iterator[None]:
    """Toggle the fast-path machinery (for benchmarking the speedup).

    With ``enabled=False`` the engine falls back to the reference
    behavior: label/degree candidate scans, full group rescans per step,
    property costs priced pair by pair, no warm starts.  Results are identical
    either way; only the work done differs.  (Wide parallel-edge groups
    are assigned with the exact Hungarian solver in both modes —
    exactness is not a speed toggle.)
    """
    global _OPTIMIZATIONS_ENABLED
    previous = _OPTIMIZATIONS_ENABLED
    _OPTIMIZATIONS_ENABLED = enabled
    try:
        yield
    finally:
        _OPTIMIZATIONS_ENABLED = previous


_DECOMPOSITION_ENABLED = True


@contextmanager
def solver_decomposition(enabled: bool) -> Iterator[None]:
    """Toggle the decomposed exact matcher (for benchmarking the speedup).

    With ``enabled=False`` every exact matching runs the monolithic
    branch-and-bound.  Results are identical either way — the decomposed
    path only activates when it can prove it reproduces the monolithic
    search's answer, and falls back otherwise.
    """
    global _DECOMPOSITION_ENABLED
    previous = _DECOMPOSITION_ENABLED
    _DECOMPOSITION_ENABLED = enabled
    try:
        yield
    finally:
        _DECOMPOSITION_ENABLED = previous


@dataclass
class Matching:
    """A solution: node/edge mapping from graph 1 into graph 2 plus cost."""

    node_map: Dict[str, str]
    edge_map: Dict[str, str]
    cost: int


def property_mismatch_cost(
    props1: Mapping[str, str], props2: Mapping[str, str]
) -> int:
    """Listing 4 cost: properties of element 1 absent or different in 2."""
    return sum(1 for key, value in props1.items() if props2.get(key) != value)


def _edge_group_key(graph: PropertyGraph, edge: Edge) -> Tuple[str, str, str]:
    return (edge.src, edge.tgt, edge.label)


def _group_edges(graph: PropertyGraph) -> Dict[Tuple[str, str, str], List[Edge]]:
    groups: Dict[Tuple[str, str, str], List[Edge]] = {}
    for edge in graph.edges():
        groups.setdefault(_edge_group_key(graph, edge), []).append(edge)
    return groups


def _group_keys_by_node(
    groups: Dict[Tuple[str, str, str], List[Edge]]
) -> Dict[str, List[Tuple[str, str, str]]]:
    """Index group keys by incident endpoint (self-loop keys appear once)."""
    index: Dict[str, List[Tuple[str, str, str]]] = {}
    for key in groups:
        src, tgt, _ = key
        index.setdefault(src, []).append(key)
        if tgt != src:
            index.setdefault(tgt, []).append(key)
    return index


def _cached_structure(graph: PropertyGraph, key: str, build: Callable[[], object]):
    """Per-graph derived-structure cache, validated by the graph version.

    Similarity classing runs many searches over the same trial graphs;
    caching label indexes, edge groups, WL colors, and search orders on
    the graph itself makes those searches share the preprocessing.  Any
    mutation bumps :attr:`PropertyGraph.version`, which discards the
    whole store (so e.g. edge groups never hold stale ``Edge`` objects
    after a ``set_prop``).
    """
    store = getattr(graph, "_matcher_cache", None)
    if store is None or store[0] != graph.version:
        store = (graph.version, {})
        graph._matcher_cache = store  # type: ignore[attr-defined]
    values = store[1]
    if key not in values:
        values[key] = build()
    return values[key]


def _wl_colors(graph: PropertyGraph) -> Dict[str, int]:
    """Weisfeiler-Leman neighborhood colors after ``_WL_ROUNDS`` rounds.

    Colors start from node labels and are refined over the multiset of
    (edge label, direction, neighbor color).  Each round's color is the
    hash of the canonical signature, so colors computed independently for
    two graphs are comparable within one process; hash collisions can only
    enlarge candidate sets (sound), never shrink them.  Each node's
    (edge label, neighbor) pairs are collected once, for every round.
    """
    colors = {node.id: hash(("wl0", node.label)) for node in graph.nodes()}
    outs: Dict[str, List[Tuple[str, str]]] = {node_id: [] for node_id in colors}
    ins: Dict[str, List[Tuple[str, str]]] = {node_id: [] for node_id in colors}
    for edge in graph.edges():
        outs[edge.src].append((edge.label, edge.tgt))
        ins[edge.tgt].append((edge.label, edge.src))
    for _ in range(_WL_ROUNDS):
        colors = {
            node_id: hash((
                color,
                tuple(sorted(
                    (label, colors[tgt]) for label, tgt in outs[node_id]
                )),
                tuple(sorted(
                    (label, colors[src]) for label, src in ins[node_id]
                )),
            ))
            for node_id, color in colors.items()
        }
    return colors


def _neighborhood_signatures(
    graph: PropertyGraph,
) -> Dict[str, Dict[Tuple[int, str, str], int]]:
    """Per node: counts per (direction, edge label, neighbor label) bucket,
    collected in one pass over the edges."""
    labels = {node.id: node.label for node in graph.nodes()}
    counts: Dict[str, Dict[Tuple[int, str, str], int]] = {
        node_id: {} for node_id in labels
    }
    for edge in graph.edges():
        out = counts[edge.src]
        key = (0, edge.label, labels[edge.tgt])
        out[key] = out.get(key, 0) + 1
        into = counts[edge.tgt]
        key = (1, edge.label, labels[edge.src])
        into[key] = into.get(key, 0) + 1
    return counts


def _hungarian(cost_matrix: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """Min-cost assignment of rows onto columns (rows <= columns).

    Potential-based shortest-augmenting-path formulation, O(n1·n2²).
    Returns the total cost and the column chosen for each row.
    """
    n1 = len(cost_matrix)
    n2 = len(cost_matrix[0])
    INF = float("inf")
    u = [0.0] * (n1 + 1)
    v = [0.0] * (n2 + 1)
    match = [0] * (n2 + 1)  # match[j] = row (1-based) assigned to column j
    way = [0] * (n2 + 1)
    for i in range(1, n1 + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (n2 + 1)
        used = [False] * (n2 + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            for j in range(1, n2 + 1):
                if used[j]:
                    continue
                cur = cost_matrix[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n2 + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    columns = [0] * n1
    for j in range(1, n2 + 1):
        if match[j]:
            columns[match[j] - 1] = j - 1
    total = sum(cost_matrix[i][columns[i]] for i in range(n1))
    return total, columns


def _optimal_group_assignment(
    edges1: Sequence[Edge],
    edges2: Sequence[Edge],
    pair_cost: Optional[Callable[[Edge, Edge], int]] = None,
) -> Tuple[int, List[Tuple[str, str]]]:
    """Min-cost injective assignment of parallel-edge group 1 into group 2.

    Groups are small (parallel edges with identical endpoints and label),
    so exhaustive permutation search is used up to a threshold; wider
    groups are solved exactly with the Hungarian algorithm.  Exactness is
    not part of the optimization toggle — both engine modes assign wide
    groups optimally.
    """
    if len(edges1) > len(edges2):
        raise ValueError("group 1 larger than group 2")
    cost_of = pair_cost or (
        lambda e1, e2: property_mismatch_cost(e1.props, e2.props)
    )
    cost_matrix = [[cost_of(e1, e2) for e2 in edges2] for e1 in edges1]
    n1, n2 = len(edges1), len(edges2)
    if n1 == 1:
        best_j = min(range(n2), key=lambda j: cost_matrix[0][j])
        return cost_matrix[0][best_j], [(edges1[0].id, edges2[best_j].id)]
    if n2 <= 6:
        best_cost: Optional[int] = None
        best_perm: Optional[Tuple[int, ...]] = None
        for perm in itertools.permutations(range(n2), n1):
            cost = sum(cost_matrix[i][perm[i]] for i in range(n1))
            if best_cost is None or cost < best_cost:
                best_cost, best_perm = cost, perm
        assert best_perm is not None and best_cost is not None
        pairs = [(edges1[i].id, edges2[best_perm[i]].id) for i in range(n1)]
        return best_cost, pairs
    total, columns = _hungarian(cost_matrix)
    return total, [
        (edges1[i].id, edges2[columns[i]].id) for i in range(n1)
    ]


_WL_ROUNDS = 2


def _connected_expansion_order(graph: PropertyGraph) -> List[str]:
    """Most-constrained-first node ordering, preferring connected expansion.

    Each pick is the highest-degree node adjacent to the placed prefix
    (the whole remainder when none is), ties going to the earliest in
    insertion order.  Frontier and remainder are heaps keyed
    ``(-degree, position)``, so the order costs O((V + E) log V) rather
    than a rescan of the remainder per pick, which showed up as the
    dominant search-construction cost on larger targets.  Shared by the
    monolithic search and the decomposed matcher — both must place nodes
    in exactly this order for their results to coincide.
    """
    keys = {
        node.id: (-graph.degree(node.id), position, node.id)
        for position, node in enumerate(graph.nodes())
    }
    neighbors: Dict[str, set] = {node_id: set() for node_id in keys}
    for edge in graph.edges():
        neighbors[edge.src].add(edge.tgt)
        neighbors[edge.tgt].add(edge.src)
    rest = list(keys.values())
    heapq.heapify(rest)
    frontier: List[Tuple[int, int, str]] = []
    queued: Set[str] = set()
    placed: Set[str] = set()
    order: List[str] = []
    while len(order) < len(keys):
        heap = frontier or rest
        pick = heapq.heappop(heap)[2]
        if pick in placed:
            continue
        placed.add(pick)
        order.append(pick)
        for neighbor in neighbors[pick]:
            if neighbor not in placed and neighbor not in queued:
                queued.add(neighbor)
                heapq.heappush(frontier, keys[neighbor])
    return order


def _label_postings(
    elements: Iterable[_Element],
) -> Dict[str, Tuple[int, Dict[Tuple[str, str], List[str]]]]:
    """Per label: how many elements carry it, and (key, value) property ->
    ids of those elements holding it, in insertion order."""
    counts: Dict[str, int] = {}
    postings: Dict[str, Dict[Tuple[str, str], List[str]]] = {}
    for element in elements:
        label = element.label
        counts[label] = counts.get(label, 0) + 1
        by_item = postings.setdefault(label, {})
        for item in element.props.items():
            by_item.setdefault(item, []).append(element.id)
    return {label: (counts[label], by_item) for label, by_item in postings.items()}


def _holder_counts(
    props: Mapping[str, str],
    postings: Mapping[Tuple[str, str], Sequence],
    size: int,
) -> Tuple[int, Dict]:
    """How the ``size`` elements behind ``postings`` hold ``props``'s items.

    Returns the number of items every element holds, each counted once,
    and per element the count of the other items it holds: an element's
    ``property_mismatch_cost`` is ``len(props)`` minus both.  Reads only
    the postings of ``props``'s items that some but not all elements
    hold, never the elements themselves.
    """
    common = 0
    hits: Dict = {}
    for item in props.items():
        holders = postings.get(item)
        if holders is None:
            continue
        if len(holders) == size:
            common += 1
            continue
        for holder in holders:
            hits[holder] = hits.get(holder, 0) + 1
    return common, hits


class _MatchSearch:
    """Backtracking search shared by isomorphism and subgraph embedding.

    With the optimizations on, a cost-minimizing search (the comparison's
    embedding, the monolithic exact fallback) prices nothing pair by
    pair.  An element's ``property_mismatch_cost`` against a candidate is
    its property count minus the items the candidate holds, so one walk
    over g2's per-label property postings (:func:`_holder_counts`) prices
    a g1 element against every candidate at once.  Those counts give the
    node and edge bounds, each node's cheapest-first candidate order
    (stable-sorted once, where some candidate holds one of the node's
    uncommon items; the search filters it by the inverse map) and the
    node and edge-group costs.  The reference mode calls
    ``property_mismatch_cost`` per pair.  A first-solution search prices
    nothing: its answer's node map is all it holds (no edge map, cost 0),
    and :func:`price_node_map` completes it.
    """

    def __init__(
        self,
        g1: PropertyGraph,
        g2: PropertyGraph,
        exact: bool,
        minimize_cost: bool,
        max_steps: int,
        upper_bound: Optional[int] = None,
    ) -> None:
        self.g1 = g1
        self.g2 = g2
        self.exact = exact
        self.minimize_cost = minimize_cost
        self.max_steps = max_steps
        self.steps = 0
        self.stats = solver_stats()
        self.stats.searches += 1
        self.optimized = _OPTIMIZATIONS_ENABLED
        if self.optimized:
            self.groups1 = _cached_structure(
                g1, "groups", lambda: _group_edges(g1)
            )
            self.groups2 = _cached_structure(
                g2, "groups", lambda: _group_edges(g2)
            )
            self._gkeys1_by_node = _cached_structure(
                g1, "gkeys", lambda: _group_keys_by_node(self.groups1)
            )
            self._gkeys2_by_node = (
                _cached_structure(
                    g2, "gkeys", lambda: _group_keys_by_node(self.groups2)
                )
                if exact else {}
            )
        else:
            # Reference mode scans groups directly and never consults the
            # endpoint indexes, so it does not build them.
            self.groups1 = _group_edges(g1)
            self.groups2 = _group_edges(g2)
            self._gkeys1_by_node = {}
            self._gkeys2_by_node = {}
        self.best: Optional[Matching] = None
        # Prune any branch whose bound reaches this threshold; a cached
        # similarity matching seeds it at cost+1 so only equal-or-better
        # solutions are explored (the optimum is never cut off).
        self._prune_at: Optional[int] = (
            upper_bound + 1
            if upper_bound is not None and minimize_cost and self.optimized
            else None
        )
        if self.optimized:
            self.nodes1 = _cached_structure(
                g1, "order", lambda: _connected_expansion_order(g1)
            )
            self.candidates = (
                self._refined_candidates()
                if exact
                else self._embedding_candidates()
            )
        else:
            self.nodes1 = _connected_expansion_order(g1)
            self.candidates = {
                node.id: self._node_candidates(node) for node in g1.nodes()
            }
        # Costs read from postings (optimized and minimizing): per g1 node
        # or edge (one id namespace), its cost against a same-label g2
        # element holding none of its uncommon items, and per g2 element
        # holding some, how many.
        self._costs: Dict[str, Tuple[int, Dict[str, int]]] = {}
        # Admissible lower bound: from depth d onward at least the minimum
        # candidate property cost of every remaining node must be paid.
        # Without it, symmetric nodes whose every pairing costs the same
        # (e.g. volatile timestamps on interchangeable Call nodes) force an
        # exhaustive permutation sweep.  The bound is only consulted by
        # cost-minimizing searches; similarity checks skip this set-up
        # entirely.
        if not minimize_cost:
            self._suffix_min = [0] * (len(self.nodes1) + 1)
            return
        min_cost, edge_min = (
            self._postings_bounds() if self.optimized
            else self._pairwise_bounds()
        )
        # Edge bound: an edge's cost is realized at the depth its second
        # endpoint is assigned; until then at least the cheapest
        # label-compatible g2 edge must be paid.
        position = {node_id: i for i, node_id in enumerate(self.nodes1)}
        edge_min_at = [0] * (len(self.nodes1) + 1)
        for edge in g1.edges():
            cheapest = edge_min.get(edge.id)
            if cheapest is not None:
                completion = max(position[edge.src], position[edge.tgt])
                edge_min_at[completion] += cheapest
        self._suffix_min = [0] * (len(min_cost) + 1)
        for index in range(len(min_cost) - 1, -1, -1):
            self._suffix_min[index] = (
                self._suffix_min[index + 1] + min_cost[index] + edge_min_at[index]
            )

    # -- property costs -----------------------------------------------------

    def _postings_bounds(self) -> Tuple[List[int], Dict[str, int]]:
        """Every cost the search needs, read from g2's label postings.

        Fills the cost table and puts each node's candidates in
        cheapest-first order, sorting only those of a node that some
        candidate holds an uncommon item of.  Returns each node's
        cheapest candidate cost in search order and each g1 edge's
        cheapest same-label g2 edge.
        """
        g1, g2 = self.g1, self.g2
        node_postings = _cached_structure(
            g2, "node_postings", lambda: _label_postings(g2.nodes())
        )
        edge_postings = _cached_structure(
            g2, "edge_postings", lambda: _label_postings(g2.edges())
        )
        no_postings: Tuple[int, Dict] = (0, {})

        def read(element: _Element, by_label) -> Tuple[int, int, Dict]:
            """How many same-label g2 elements, and ``element``'s entry."""
            size, postings = by_label.get(element.label, no_postings)
            common, hits = _holder_counts(element.props, postings, size)
            base = len(element.props) - common
            self._costs[element.id] = (base, hits)
            return size, base, hits

        min_cost = []
        for node_id in self.nodes1:
            _, base, hits = read(g1.node(node_id), node_postings)
            candidates = self.candidates[node_id]
            if not candidates:
                min_cost.append(0)
            elif not hits:
                min_cost.append(base)
            else:
                ordered = self.candidates[node_id] = sorted(
                    candidates, key=lambda v: -hits.get(v, 0)
                )
                min_cost.append(base - hits.get(ordered[0], 0))
        edge_min: Dict[str, int] = {}
        for edge in g1.edges():
            size, base, hits = read(edge, edge_postings)
            if size:
                edge_min[edge.id] = base - max(hits.values(), default=0)
        return min_cost, edge_min

    def _pairwise_bounds(self) -> Tuple[List[int], Dict[str, int]]:
        """The reference: each bound priced pair by pair."""
        min_cost = []
        for node_id in self.nodes1:
            costs = [
                self._node_cost(node_id, v) for v in self.candidates[node_id]
            ]
            min_cost.append(min(costs) if costs else 0)
        edges2_by_label: Dict[str, List[Edge]] = {}
        for edge in self.g2.edges():
            edges2_by_label.setdefault(edge.label, []).append(edge)
        edge_min: Dict[str, int] = {}
        for edge in self.g1.edges():
            compatible = edges2_by_label.get(edge.label)
            if compatible:
                edge_min[edge.id] = min(
                    self._edge_pair_cost(edge, other) for other in compatible
                )
        return min_cost, edge_min

    def _node_cost(self, u: str, v: str) -> int:
        entry = self._costs.get(u)
        if entry is not None:
            return entry[0] - entry[1].get(v, 0)
        return property_mismatch_cost(
            self.g1.node(u).props, self.g2.node(v).props
        )

    def _edge_pair_cost(self, e1: Edge, e2: Edge) -> int:
        entry = self._costs.get(e1.id)
        if entry is not None:
            return entry[0] - entry[1].get(e2.id, 0)
        return property_mismatch_cost(e1.props, e2.props)

    # -- candidate computation --------------------------------------------

    def _node_candidates(self, node: Node) -> List[str]:
        """Reference O(|V1|·|V2|) label/degree scan (optimizations off)."""
        result = []
        deg1_out = len(self.g1.out_edges(node.id))
        deg1_in = len(self.g1.in_edges(node.id))
        for other in self.g2.nodes():
            if other.label != node.label:
                continue
            deg2_out = len(self.g2.out_edges(other.id))
            deg2_in = len(self.g2.in_edges(other.id))
            if self.exact:
                if deg1_out != deg2_out or deg1_in != deg2_in:
                    continue
            else:
                if deg1_out > deg2_out or deg1_in > deg2_in:
                    continue
            result.append(other.id)
        return result

    def _refined_candidates(self) -> Dict[str, List[str]]:
        """Exact-mode candidate domains from WL neighborhood refinement.

        An isomorphism can only map nodes of equal WL color, so each g1
        node's domain is the g2 color class of its own color.  Round one
        already subsumes the label + exact in/out-degree checks.  Colors
        and color classes are cached per graph (see :func:`_wl_colors`).
        """
        g1 = self.g1
        colors1 = _cached_structure(g1, "wl", lambda: _wl_colors(g1))
        by_color = _node_color_classes(self.g2)
        empty: List[str] = []
        return {
            node.id: by_color.get(colors1[node.id], empty)
            for node in g1.nodes()
        }

    def _embedding_candidates(self) -> Dict[str, List[str]]:
        """Embedding-mode domains from a label index + containment test.

        WL equality is unsound for subgraph embedding (the host node may
        have extra structure), so the refinement is one-sided: every
        (direction, edge label, neighbor label) bucket of the pattern node
        must be covered by the candidate's bucket.  This subsumes the
        in/out-degree inequalities.  Nodes sharing a label and a signature
        share one domain, computed once.
        """
        g1, g2 = self.g1, self.g2

        def label_index() -> Dict[str, List[str]]:
            index: Dict[str, List[str]] = {}
            for node in g2.nodes():
                index.setdefault(node.label, []).append(node.id)
            return index

        nodes2_by_label = _cached_structure(g2, "by_label", label_index)
        need_sig = _cached_structure(
            g1, "neigh", lambda: _neighborhood_signatures(g1)
        )
        have_sig = _cached_structure(
            g2, "neigh", lambda: _neighborhood_signatures(g2)
        )
        domains: Dict[Tuple, List[str]] = {}
        result: Dict[str, List[str]] = {}
        for node in g1.nodes():
            need = need_sig[node.id]
            signature = (node.label, frozenset(need.items()))
            domain = domains.get(signature)
            if domain is None:
                domain = domains[signature] = [
                    other_id
                    for other_id in nodes2_by_label.get(node.label, ())
                    if all(
                        have_sig[other_id].get(key, 0) >= count
                        for key, count in need.items()
                    )
                ]
            result[node.id] = domain
        return result

    # -- feasibility and cost ---------------------------------------------

    def _group_feasible(
        self,
        node_map: Dict[str, str],
        inv: Dict[str, str],
        u: str,
        v: str,
    ) -> bool:
        """Check parallel-edge-group counts for edges between mapped nodes.

        Only the groups incident to the newly mapped ``u`` (and, in exact
        mode, to its image ``v``) can change feasibility, so only those are
        examined; the inverse node map ``inv`` is maintained incrementally
        by the search rather than rebuilt per step.
        """
        if self.optimized:
            keys1: Iterable[Tuple[str, str, str]] = (
                self._gkeys1_by_node.get(u, ())
            )
        else:
            keys1 = (
                key for key in self.groups1 if u in (key[0], key[1])
            )
        for key in keys1:
            src, tgt, label = key
            mapped_src = node_map.get(src)
            mapped_tgt = node_map.get(tgt)
            if mapped_src is None or mapped_tgt is None:
                continue
            edges2 = self.groups2.get((mapped_src, mapped_tgt, label))
            count2 = len(edges2) if edges2 else 0
            count1 = len(self.groups1[key])
            if self.exact:
                if count2 != count1:
                    return False
            elif count2 < count1:
                return False
        if self.exact:
            # Reverse direction: mapped g2 nodes must not have extra edges
            # between them that g1 lacks.
            if self.optimized:
                keys2: Iterable[Tuple[str, str, str]] = (
                    self._gkeys2_by_node.get(v, ())
                )
            else:
                keys2 = (
                    key for key in self.groups2 if v in (key[0], key[1])
                )
            for key in keys2:
                src2, tgt2, label = key
                inv_src = inv.get(src2)
                inv_tgt = inv.get(tgt2)
                if inv_src is None or inv_tgt is None:
                    continue
                edges1 = self.groups1.get((inv_src, inv_tgt, label))
                count1 = len(edges1) if edges1 else 0
                if count1 != len(self.groups2[key]):
                    return False
        return True

    def _edge_cost_for(
        self, node_map: Dict[str, str], u: str
    ) -> Tuple[int, List[Tuple[str, str]]]:
        """Cost and pairing of edge groups completed by mapping node ``u``."""
        total = 0
        pairs: List[Tuple[str, str]] = []
        if self.optimized:
            keys: Iterable[Tuple[str, str, str]] = (
                self._gkeys1_by_node.get(u, ())
            )
        else:
            keys = (key for key in self.groups1 if u in (key[0], key[1]))
        for key in keys:
            src, tgt, label = key
            # A self-loop group completes on its single endpoint; a normal
            # group completes when its second endpoint is mapped.
            other = tgt if u == src else src
            if other != u and other not in node_map:
                continue
            if src == tgt and u != src:
                continue
            edges1 = self.groups1[key]
            mapped_key = (node_map[src], node_map[tgt], label)
            edges2 = self.groups2.get(mapped_key, [])
            if len(edges1) == 1 and len(edges2) == 1:
                # By far the most common shape: no assignment to optimize.
                e1, e2 = edges1[0], edges2[0]
                total += self._edge_pair_cost(e1, e2)
                pairs.append((e1.id, e2.id))
                continue
            cost, group_pairs = _optimal_group_assignment(
                edges1, edges2, self._edge_pair_cost
            )
            total += cost
            pairs.extend(group_pairs)
        return total, pairs

    # -- search -------------------------------------------------------------

    def run(self) -> Optional[Matching]:
        try:
            if self.exact:
                if self.g1.node_count != self.g2.node_count:
                    return None
                if self.g1.edge_count != self.g2.edge_count:
                    return None
            else:
                if self.g1.node_count > self.g2.node_count:
                    return None
                if self.g1.edge_count > self.g2.edge_count:
                    return None
            if any(not cands for cands in self.candidates.values()):
                return None
            # The DFS recurses one frame per g1 node; scalability graphs
            # (scale512 ~ 1000+ nodes) overflow CPython's default 1000
            # frame limit.  Bump-only: the limit is process-global and
            # concurrent searches may be running on other threads.
            needed = 1000 + 8 * len(self.nodes1)
            if sys.getrecursionlimit() < needed:
                sys.setrecursionlimit(needed)
            self._search(0, {}, {}, {}, 0)
            return self.best
        finally:
            self.stats.steps += self.steps

    def _search(
        self,
        depth: int,
        node_map: Dict[str, str],
        inv: Dict[str, str],
        edge_map: Dict[str, str],
        cost: int,
    ) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise SolverLimit(
                f"matching exceeded {self.max_steps} search steps"
            )
        if self.best is not None and not self.minimize_cost:
            return
        if self.minimize_cost:
            limit = (
                self.best.cost if self.best is not None else self._prune_at
            )
            if limit is not None and cost + self._suffix_min[depth] >= limit:
                return
        if depth == len(self.nodes1):
            if self.best is None or cost < self.best.cost:
                self.best = Matching(dict(node_map), dict(edge_map), cost)
            return
        u = self.nodes1[depth]
        candidates = [v for v in self.candidates[u] if v not in inv]
        if self.minimize_cost and not self.optimized:
            # Cheapest-first ordering finds a low-cost solution early, after
            # which branch-and-bound prunes the symmetric alternatives
            # (e.g. OPUS's many interchangeable Env nodes).  Optimized,
            # each node's candidates were sorted once, up front.
            candidates.sort(key=lambda v: self._node_cost(u, v))
        for v in candidates:
            node_map[u] = v
            inv[v] = u
            if not self._group_feasible(node_map, inv, u, v):
                del node_map[u]
                del inv[v]
                continue
            pairs: List[Tuple[str, str]] = []
            placed = 0
            if self.minimize_cost:
                placed, pairs = self._edge_cost_for(node_map, u)
                placed += self._node_cost(u, v)
                for edge1_id, edge2_id in pairs:
                    edge_map[edge1_id] = edge2_id
            self._search(depth + 1, node_map, inv, edge_map, cost + placed)
            for edge1_id, _ in pairs:
                del edge_map[edge1_id]
            del node_map[u]
            del inv[v]


# -- decomposed exact matching ---------------------------------------------
#
# The monolithic branch-and-bound treats the two trial graphs as one big
# matching problem, and its steps grow superlinearly on the scalability
# sweep (CamFlow: 33,736 at scale128, 527,944 at scale512).  The
# decomposed matcher instead partitions the
# problem: WL-singleton nodes are *anchors* whose image is forced, and the
# residual graph splits into connected components that are solved
# independently — each component's nodes take the first feasible candidate
# from their WL color class, exactly as the monolithic DFS would — and the
# per-piece results are stitched into one matching (parallel-edge groups
# are still assigned with the shared Hungarian machinery, property costs
# are still memoized per pair).
#
# Byte-identical results are guaranteed by construction, not by hope:
#
# * the stitched pass places nodes in the engine's canonical
#   ``_connected_expansion_order`` and takes, for each node, the first
#   not-yet-used candidate of its WL class passing the same
#   parallel-edge-group feasibility check the DFS applies, visiting the
#   class in the DFS's own candidate order (g2 insertion order, stably
#   sorted by property cost when minimizing) — i.e. it follows the DFS's
#   leftmost branch; if that branch completes, it is precisely the first
#   complete solution the DFS would report;
# * for *first-solution* searches (similarity classing) that is already
#   the full answer;
# * for *cost-minimizing* searches (generalization) the branch is kept
#   only when a lower-bound certificate, checked after the pass, proves
#   it minimal: every node pays its class-minimum property cost, every
#   parallel-edge group pays its class-minimum assignment cost, and
#   value-structured edge classes meet their slot potential (see
#   :func:`_decomposed_isomorphism` for why that branch is exactly the
#   minimum the monolithic branch-and-bound keeps);
# * in every other situation (class mismatch, a branch above the bound,
#   a stuck leftmost branch) the matcher falls back to the monolithic
#   search.
#
# ``SolverStats.decomposed_components`` counts the independent pieces so
# the win shows up in every report; ``component_steps_max`` records the
# largest single piece (for camflow's scaleN this stays at the spoke size
# while ``solver_steps`` grows linearly with N).

#: sentinel: the decomposed matcher cannot prove equivalence — run the
#: monolithic search instead.
_FALLBACK = object()


def _node_color_classes(graph: PropertyGraph) -> Dict[int, List[str]]:
    """g2-side WL color classes in node insertion order (cached)."""
    colors = _cached_structure(graph, "wl", lambda: _wl_colors(graph))

    def build() -> Dict[int, List[str]]:
        by_color: Dict[int, List[str]] = {}
        for node in graph.nodes():
            by_color.setdefault(colors[node.id], []).append(node.id)
        return by_color

    return _cached_structure(graph, "wl_classes", build)


def _class_postings(
    graph: PropertyGraph,
) -> Dict[int, Dict[Tuple[str, str], List[int]]]:
    """Per WL class: (key, value) property -> positions of its holders.

    Positions index :func:`_node_color_classes` (ascending), so a posting
    longer than zero and shorter than its class marks an item that
    discriminates between candidates.
    """
    classes = _node_color_classes(graph)

    def build() -> Dict[int, Dict[Tuple[str, str], List[int]]]:
        postings: Dict[int, Dict[Tuple[str, str], List[int]]] = {}
        for color, members in classes.items():
            by_item = postings[color] = {}
            for position, node_id in enumerate(members):
                for item in graph.node(node_id).props.items():
                    by_item.setdefault(item, []).append(position)
        return postings

    return _cached_structure(graph, "wl_postings", build)


def _cheapest_members(
    props: Mapping[str, str],
    postings: Dict[Tuple[str, str], List[int]],
    size: int,
) -> List[int]:
    """Positions of the class members cheapest for ``props``, ascending.

    Only items held by some but not all of a class make
    ``property_mismatch_cost`` differ across it: each one a member holds
    lowers its cost by one.  The members holding the most such items
    are the class minimum and head the DFS's stable pcost order, in
    insertion order.  Empty when no item discriminates (the cost is
    constant over the class).  Reads only the postings of ``props``'s
    items, never the whole class.
    """
    hits = _holder_counts(props, postings, size)[1]
    if not hits:
        return []
    top = max(hits.values())
    return sorted(position for position, count in hits.items() if count == top)


def _edge_class_profiles(
    graph: PropertyGraph,
) -> Dict[Tuple[int, int, str], Tuple[int, Dict[Tuple[str, str], int]]]:
    """Per (src color, tgt color, label) edge class: size + property counts."""
    colors = _cached_structure(graph, "wl", lambda: _wl_colors(graph))

    def build():
        classes: Dict[Tuple[int, int, str], List] = {}
        for edge in graph.edges():
            key = (colors[edge.src], colors[edge.tgt], edge.label)
            entry = classes.setdefault(key, [0, {}])
            entry[0] += 1
            profile = entry[1]
            for item in edge.props.items():
                profile[item] = profile.get(item, 0) + 1
        return {key: (entry[0], entry[1]) for key, entry in classes.items()}

    return _cached_structure(graph, "wl_edge_profiles", build)


def _class_edge_groups(
    graph: PropertyGraph,
) -> Dict[Tuple[int, int, str], Dict[Tuple[str, str], List[Edge]]]:
    """Per edge class: its parallel-edge groups by endpoint pair (cached)."""
    colors = _cached_structure(graph, "wl", lambda: _wl_colors(graph))

    def build():
        by_class: Dict[
            Tuple[int, int, str], Dict[Tuple[str, str], List[Edge]]
        ] = {}
        for edge in graph.edges():
            key = (colors[edge.src], colors[edge.tgt], edge.label)
            by_class.setdefault(key, {}).setdefault(
                (edge.src, edge.tgt), []
            ).append(edge)
        return by_class

    return _cached_structure(graph, "wl_class_groups", build)


def _groups_pay_class_minimum(
    paid: Sequence[Tuple[List[Edge], int]],
    groups2: Iterable[List[Edge]],
    pair_cost: Callable[[Edge, Edge], int],
) -> bool:
    """True when every g1 group of one edge class paid its class minimum.

    ``paid`` holds every g1 group of the class with the assignment cost
    the stitched matching gave it.  An exact matching pairs a group only
    with a same-size g2 group of the same class, so that minimum ranges
    over ``groups2``.  ``pcost`` reads only g1's items, so g2 groups whose
    edges agree on the class's g1 item set cost the same against every g1
    group: one representative per such bucket is evaluated.  Groups whose
    fingerprint multisets are identical (e.g. one ``creat`` plus one
    ``unlink`` edge each) form one bucket, as do groups differing only in
    volatile values the g1 side never carries.
    """
    items1 = {
        item for edges1, _ in paid for edge in edges1
        for item in edge.props.items()
    }
    representatives: Dict[Tuple, List[Edge]] = {}
    for edges2 in groups2:
        fingerprint = tuple(sorted(
            tuple(sorted(
                item for item in edge.props.items() if item in items1
            ))
            for edge in edges2
        ))
        representatives.setdefault(fingerprint, edges2)
    for edges1, cost in paid:
        for edges2 in representatives.values():
            if len(edges2) != len(edges1):
                continue
            if _optimal_group_assignment(edges1, edges2, pair_cost)[0] < cost:
                return False
    return True


class _ValuePlan:
    """A value-structured edge class: its cost varies through one key only.

    Tier 3 of the cost model (see :func:`_minimize_cost_plan`).  Every
    edge of the class carries the volatile ``key`` (e.g. CamFlow's
    ``cf:jiffies``); stripping it leaves each group with pairwise-distinct
    fingerprints over one shared keyset — the group's *slots* — and every
    group (both graphs) carries the same slot set.  A group is then a
    vector ``slot -> key value``, and pairing g1 group ``v`` with g2 group
    ``w`` costs exactly the Hamming distance between the slot-aligned
    vectors: misaligning slots trades >= 1 stripped mismatch per edge for
    <= 1 volatile match, so the slot-aligned assignment is always optimal.

    The minimal total mismatch count is then bounded below per slot by
    ``remaining_pairings - sum_v min(a[v], b[v])`` over the slot's
    remaining value counts — a potential no pairing can decrease.
    :meth:`pin` consumes a pairing only when every slot's potential is
    preserved; a greedy run that completes under that rule achieves every
    slot's bound simultaneously, hence the true minimum.
    """

    __slots__ = ("g1_vectors", "g2_vectors", "counts")

    def __init__(
        self,
        g1_vectors: Dict[Tuple[str, str], Tuple[str, ...]],
        g2_vectors: Dict[Tuple[str, str], Tuple[str, ...]],
        slot_count: int,
    ) -> None:
        self.g1_vectors = g1_vectors
        self.g2_vectors = g2_vectors
        self.counts: List[Tuple[Dict[str, int], Dict[str, int]]] = [
            ({}, {}) for _ in range(slot_count)
        ]
        for vector in g1_vectors.values():
            for slot, value in enumerate(vector):
                a = self.counts[slot][0]
                a[value] = a.get(value, 0) + 1
        for vector in g2_vectors.values():
            for slot, value in enumerate(vector):
                b = self.counts[slot][1]
                b[value] = b.get(value, 0) + 1

    def pin(
        self, vec1: Tuple[str, ...], vec2: Tuple[str, ...]
    ) -> Optional[List[Tuple]]:
        """Consume one group pairing; None when it cannot stay minimal.

        Per slot: an equal-value pin always preserves the slot potential;
        an unequal pin preserves it exactly when both sides hold a surplus
        of their value.  Rolls itself back and returns None on the first
        slot that would raise its potential.  Returns undo tokens.
        """
        applied: List[Tuple] = []
        for slot, (val1, val2) in enumerate(zip(vec1, vec2)):
            a, b = self.counts[slot]
            if val1 == val2:
                a[val1] -= 1
                b[val1] -= 1
                applied.append((a, val1, b, val1))
            elif a.get(val1, 0) > b.get(val1, 0) and b.get(val2, 0) > a.get(
                val2, 0
            ):
                a[val1] -= 1
                b[val2] -= 1
                applied.append((a, val1, b, val2))
            else:
                for undo_a, key_a, undo_b, key_b in applied:
                    undo_a[key_a] += 1
                    undo_b[key_b] += 1
                return None
        return applied


def _value_structured_plan(
    g1: PropertyGraph, g2: PropertyGraph, class_key: Tuple[int, int, str]
) -> Optional[_ValuePlan]:
    """Build the tier-3 plan for one edge class, or None when unprovable."""
    groups1 = _class_edge_groups(g1).get(class_key)
    groups2 = _class_edge_groups(g2).get(class_key)
    if not groups1 or not groups2:
        return None
    # Candidate keys: those whose items differ between two g2 groups'
    # fingerprint multisets (typically exactly one, e.g. cf:jiffies).
    fingerprints = [
        tuple(sorted(tuple(sorted(e.props.items())) for e in edges))
        for edges in groups2.values()
    ]
    reference = fingerprints[0]
    candidate_keys: Set[str] = set()
    for other in fingerprints[1:]:
        if other != reference:
            flat_ref = set(itertools.chain.from_iterable(reference))
            flat_other = set(itertools.chain.from_iterable(other))
            candidate_keys.update(
                item[0] for item in flat_ref ^ flat_other
            )
            break
    for key in sorted(candidate_keys):
        slots_and_vectors = _slot_valued_groups(groups2, key, slots=None)
        if slots_and_vectors is None:
            continue
        slots, vectors2 = slots_and_vectors
        # The Hamming cost lemma needs distinct same-keyset slots: two
        # misaligned edges must each pay a stripped mismatch.
        keysets = {tuple(item[0] for item in slot) for slot in slots}
        if len(keysets) != 1:
            continue
        from_g1 = _slot_valued_groups(groups1, key, slots=slots)
        if from_g1 is None:
            continue
        return _ValuePlan(from_g1[1], vectors2, len(slots))
    return None


def _slot_valued_groups(
    groups: Dict[Tuple[str, str], List[Edge]],
    key: str,
    slots: Optional[Tuple[Tuple, ...]],
) -> Optional[Tuple[Tuple[Tuple, ...], Dict[Tuple[str, str], Tuple[str, ...]]]]:
    """Per-group slot-aligned values of ``key``; None when the shape fails.

    Every edge must carry ``key``; within a group the key-stripped
    fingerprints must be pairwise distinct (they define the slot order),
    and every group must present exactly the same slot set — the first
    group's when ``slots`` is None (the g2 side), the given one otherwise
    (the g1 side, forcing both graphs onto one canonical alignment).
    """
    vectors: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for pair, edges in groups.items():
        slot_values = []
        for edge in edges:
            value = edge.props.get(key)
            if value is None:
                return None
            stripped = tuple(
                sorted(
                    item for item in edge.props.items() if item[0] != key
                )
            )
            slot_values.append((stripped, value))
        slot_values.sort()
        group_slots = tuple(stripped for stripped, _ in slot_values)
        if len(set(group_slots)) != len(group_slots):
            return None
        if slots is None:
            slots = group_slots
        elif group_slots != slots:
            return None
        vectors[pair] = tuple(value for _, value in slot_values)
    return slots, vectors


def _minimize_cost_plan(
    g1: PropertyGraph, g2: PropertyGraph
) -> Optional[
    Tuple[Dict[Tuple[int, int, str], _ValuePlan], Set[Tuple[int, int, str]]]
]:
    """Sort g1's edge classes by how their minimum cost is proven.

    Returns ``(plans, checked)``, or None when some g1 edge class has no
    g2 counterpart.  Three kinds of class:

    1. *Pooled uniformity* — each g1 edge's (key, value) pairs are carried
       by all or none of its class's g2 edges, so every group pairing costs
       the same and nothing needs checking.
    2. *Value-structured collisions* (``plans``) — cost varies through
       exactly one key (e.g. CamFlow's ``cf:jiffies`` colliding across
       trials at scale512); the :class:`_ValuePlan` lets the stitched pass
       consume pairings only when the class's minimal mismatch count is
       preserved.  Its per-slot potential is a global bound that
       per-group minima cannot give: colliding values make each group's
       cheapest partner contended.
    3. Every other class (``checked``) goes to the lower-bound
       certificate: after the pass each of its groups must have paid its
       class-minimum assignment cost (:func:`_groups_pay_class_minimum`).

    Nodes need no plan: the pass visits them in the DFS's pcost order and
    the certificate checks each pays its class minimum.
    """
    colors1 = _cached_structure(g1, "wl", lambda: _wl_colors(g1))
    edge_profiles2 = _edge_class_profiles(g2)
    failing: Set[Tuple[int, int, str]] = set()
    for edge in g1.edges():
        key = (colors1[edge.src], colors1[edge.tgt], edge.label)
        entry = edge_profiles2.get(key)
        if entry is None:
            return None
        size, profile = entry
        if size == 1 or key in failing:
            continue
        for item in edge.props.items():
            count = profile.get(item, 0)
            if count != 0 and count != size:
                failing.add(key)
                break
    plans: Dict[Tuple[int, int, str], _ValuePlan] = {}
    checked: Set[Tuple[int, int, str]] = set()
    for key in failing:
        plan = _value_structured_plan(g1, g2, key)
        if plan is None:
            checked.add(key)
        else:
            plans[key] = plan
    return plans, checked


def _exact_group_feasible(
    groups1: Dict[Tuple[str, str, str], List[Edge]],
    groups2: Dict[Tuple[str, str, str], List[Edge]],
    gkeys1: Dict[str, List[Tuple[str, str, str]]],
    gkeys2: Dict[str, List[Tuple[str, str, str]]],
    node_map: Dict[str, str],
    inv: Dict[str, str],
    u: str,
    v: str,
) -> bool:
    """Exact-mode parallel-edge-group feasibility of mapping ``u -> v``.

    Mirrors ``_MatchSearch._group_feasible`` (optimized, exact) so the
    stitched pass accepts and rejects candidates exactly as the DFS does.
    ``node_map``/``inv`` must already contain the tentative ``u -> v``.
    """
    for key in gkeys1.get(u, ()):
        src, tgt, label = key
        mapped_src = node_map.get(src)
        mapped_tgt = node_map.get(tgt)
        if mapped_src is None or mapped_tgt is None:
            continue
        edges2 = groups2.get((mapped_src, mapped_tgt, label))
        count2 = len(edges2) if edges2 else 0
        if count2 != len(groups1[key]):
            return False
    for key in gkeys2.get(v, ()):
        src2, tgt2, label = key
        inv_src = inv.get(src2)
        inv_tgt = inv.get(tgt2)
        if inv_src is None or inv_tgt is None:
            continue
        edges1 = groups1.get((inv_src, inv_tgt, label))
        count1 = len(edges1) if edges1 else 0
        if count1 != len(groups2[key]):
            return False
    return True


def _pin_value_groups(
    plans: Dict[Tuple[int, int, str], "_ValuePlan"],
    colors1: Dict[str, int],
    gkeys1: Dict[str, List[Tuple[str, str, str]]],
    node_map: Dict[str, str],
    u: str,
) -> bool:
    """Consume the group pairings newly fixed by mapping ``u``.

    Mapping ``u`` pins every incident parallel-edge group whose other
    endpoint is already mapped.  For groups in a value-structured class
    the pairing must keep the class's minimal mismatch count reachable
    (:meth:`_ValuePlan.pin`); one failed pin rejects the whole candidate
    and rolls this call's pins back.  The potential argument makes the
    rejection safe: a pin that raises the minimum admits *no* min-cost
    completion, so the DFS skips the same candidate.  ``node_map`` must
    already contain the tentative ``u -> v``.
    """
    applied: List[Tuple] = []
    for gkey in gkeys1.get(u, ()):
        src, tgt, label = gkey
        mapped_src = node_map.get(src)
        mapped_tgt = node_map.get(tgt)
        if mapped_src is None or mapped_tgt is None:
            continue
        plan = plans.get((colors1[src], colors1[tgt], label))
        if plan is None:
            continue
        vec1 = plan.g1_vectors.get((src, tgt))
        vec2 = plan.g2_vectors.get((mapped_src, mapped_tgt))
        tokens = (
            plan.pin(vec1, vec2)
            if vec1 is not None and vec2 is not None
            else None
        )
        if tokens is None:
            for a, key_a, b, key_b in applied:
                a[key_a] += 1
                b[key_b] += 1
            return False
        applied.extend(tokens)
    return True


def _residual_components(g1: PropertyGraph) -> List[List[str]]:
    """Connected components of g1 minus its anchor (WL-singleton) nodes.

    These are the independent sub-problems the decomposed matcher solves;
    cached per graph version (anchors are a property of g1 alone).
    """
    def build() -> List[List[str]]:
        classes1 = _node_color_classes(g1)
        colors1 = _cached_structure(g1, "wl", lambda: _wl_colors(g1))
        anchors = {
            node.id
            for node in g1.nodes()
            if len(classes1[colors1[node.id]]) == 1
        }
        adjacency: Dict[str, List[str]] = {
            node.id: [] for node in g1.nodes()
        }
        for edge in g1.edges():
            adjacency[edge.src].append(edge.tgt)
            adjacency[edge.tgt].append(edge.src)
        components: List[List[str]] = []
        seen: set = set()
        for node in g1.nodes():
            node_id = node.id
            if node_id in anchors or node_id in seen:
                continue
            seen.add(node_id)
            component = [node_id]
            queue = [node_id]
            while queue:
                current = queue.pop()
                for neighbor in adjacency[current]:
                    if neighbor in anchors or neighbor in seen:
                        continue
                    seen.add(neighbor)
                    component.append(neighbor)
                    queue.append(neighbor)
            components.append(component)
        return components

    return _cached_structure(g1, "residual_components", build)


def _decomposed_isomorphism(
    g1: PropertyGraph,
    g2: PropertyGraph,
    minimize_cost: bool,
    max_steps: int,
):
    """Stitch per-component first-fit matchings into the DFS's answer.

    Returns a :class:`Matching` when the decomposition provably reproduces
    the monolithic search's result, or :data:`_FALLBACK` when it cannot.
    A first-solution pass returns the branch's node map as soon as the
    branch completes, with no edge map and no cost:
    :func:`price_node_map` derives both from it.

    When minimizing, the pass follows the monolithic DFS's leftmost
    branch: each node visits its class in ``_MatchSearch._search``'s
    order, the class stably sorted by pcost with used members skipped.
    A node whose pcost is constant
    over its class keeps the first-fit pointer scan; any other must take
    one of its class-minimum members (:func:`_cheapest_members`) or the
    pass falls back.

    The branch is kept only when it attains a lower bound on every exact
    matching's cost: the sum of each node's class-minimum pcost, each
    parallel-edge group's class-minimum assignment cost (over same-size
    g2 groups of the same edge class, because exact matching pairs no
    others), and each value-structured class's slot potential.  The
    monolithic search then returns exactly this branch.  Members the pass
    skipped ahead of it are used, infeasible, or fail a value-plan pin
    and so root only subtrees costlier than the bound.  Until the DFS
    reaches the branch it prunes only at ``warm.cost + 1`` or at such a
    costlier solution; along the branch, prefix cost plus suffix bound
    never exceeds the branch's total, which is the bound and so at most
    ``warm.cost``, so the branch is never pruned.  Once found, only a
    strictly cheaper solution replaces it, and none exists.
    """
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return _FALLBACK
    colors1 = _cached_structure(g1, "wl", lambda: _wl_colors(g1))
    classes1 = _node_color_classes(g1)
    classes2 = _node_color_classes(g2)
    if len(classes1) != len(classes2):
        return _FALLBACK
    for color, members in classes1.items():
        others = classes2.get(color)
        if others is None or len(others) != len(members):
            return _FALLBACK
    plans: Dict[Tuple[int, int, str], _ValuePlan] = {}
    checked: Set[Tuple[int, int, str]] = set()
    postings: Dict[int, Dict[Tuple[str, str], List[int]]] = {}
    if minimize_cost:
        built = _minimize_cost_plan(g1, g2)
        if built is None:
            return _FALLBACK
        plans, checked = built
        postings = _class_postings(g2)
    order = _cached_structure(
        g1, "order", lambda: _connected_expansion_order(g1)
    )
    if len(order) > max_steps:
        return _FALLBACK
    groups1 = _cached_structure(g1, "groups", lambda: _group_edges(g1))
    groups2 = _cached_structure(g2, "groups", lambda: _group_edges(g2))
    gkeys1 = _cached_structure(
        g1, "gkeys", lambda: _group_keys_by_node(groups1)
    )
    gkeys2 = _cached_structure(
        g2, "gkeys", lambda: _group_keys_by_node(groups2)
    )
    node_map: Dict[str, str] = {}
    inv: Dict[str, str] = {}

    def place(u: str, v: str) -> bool:
        """Map ``u -> v`` when the DFS would descend there, else undo."""
        node_map[u] = v
        inv[v] = u
        if _exact_group_feasible(
            groups1, groups2, gkeys1, gkeys2, node_map, inv, u, v
        ) and (
            not plans
            or _pin_value_groups(plans, colors1, gkeys1, node_map, u)
        ):
            return True
        del node_map[u]
        del inv[v]
        return False

    # Per-class scan position: every member before it is used, and
    # members are never released (no backtracking), so it only advances.
    scan_from: Dict[int, int] = {}
    for u in order:
        color = colors1[u]
        members = classes2[color]
        cheapest = (
            _cheapest_members(g1.node(u).props, postings[color], len(members))
            if minimize_cost else ()
        )
        chosen: Optional[str] = None
        if cheapest:
            # Past these the node would pay more than its class minimum,
            # breaking the certificate.
            for position in cheapest:
                v = members[position]
                if v not in inv and place(u, v):
                    chosen = v
                    break
        else:
            index = scan_from.get(color, 0)
            while index < len(members) and members[index] in inv:
                index += 1
            scan_from[color] = index
            for position in range(index, len(members)):
                v = members[position]
                if v not in inv and place(u, v):
                    chosen = v
                    break
        if chosen is None:
            # The DFS would backtrack across components (or descend into
            # a costlier member) here; stitching cannot replicate that, so
            # hand the pair to the full search.
            return _FALLBACK
    # The leftmost branch completed.  A similarity check needs no more;
    # otherwise compose the edge map and total cost group by group.
    found: object = node_map
    if minimize_cost:
        cost = _memoized_cost()
        found, group_costs = _priced(g1, g2, node_map, cost)
        paid: Dict[Tuple[int, int, str], List[Tuple[List[Edge], int]]] = {}
        for ((src, tgt, label), edges1), group_cost in zip(
            groups1.items(), group_costs
        ):
            class_key = (colors1[src], colors1[tgt], label)
            if class_key in checked:
                paid.setdefault(class_key, []).append((edges1, group_cost))
        class_groups2 = _class_edge_groups(g2)
        for class_key, class_paid in paid.items():
            if not _groups_pay_class_minimum(
                class_paid, class_groups2[class_key].values(), cost
            ):
                return _FALLBACK
    stats = solver_stats()
    components = _residual_components(g1)
    stats.searches += 1
    stats.steps += len(order)
    stats.decomposed_components += len(components)
    if components:
        largest = max(len(component) for component in components)
        if largest > stats.component_steps_max:
            stats.component_steps_max = largest
    return found


def _memoized_cost() -> Callable[[_Element, _Element], int]:
    """Property mismatch cost of two elements, memoized per id pair.

    Node and edge ids share one namespace within a graph, so one memo
    serves both kinds; each hit counts in ``cost_cache_hits``.
    """
    stats = solver_stats()
    memo: Dict[Tuple[str, str], int] = {}

    def cost(first: _Element, second: _Element) -> int:
        key = (first.id, second.id)
        cached = memo.get(key)
        if cached is not None:
            stats.cost_cache_hits += 1
            return cached
        value = memo[key] = property_mismatch_cost(first.props, second.props)
        return value

    return cost


def _priced(
    g1: PropertyGraph,
    g2: PropertyGraph,
    node_map: Dict[str, str],
    cost: Callable[[_Element, _Element], int],
) -> Tuple[Matching, List[int]]:
    """The matching an isomorphism's node map induces, priced as the DFS
    prices it, and what each g1 parallel-edge group paid, in group order.

    Every node pays its property mismatch cost against its image, and
    every g1 group its min-cost assignment onto its image group (which
    exists, with as many edges, because ``node_map`` is an isomorphism's).
    """
    groups1 = _cached_structure(g1, "groups", lambda: _group_edges(g1))
    groups2 = _cached_structure(g2, "groups", lambda: _group_edges(g2))
    total = 0
    for node in g1.nodes():
        total += cost(node, g2.node(node_map[node.id]))
    edge_map: Dict[str, str] = {}
    group_costs: List[int] = []
    for (src, tgt, label), edges1 in groups1.items():
        edges2 = groups2[(node_map[src], node_map[tgt], label)]
        if len(edges1) == 1:
            group_cost = cost(edges1[0], edges2[0])
            edge_map[edges1[0].id] = edges2[0].id
        else:
            group_cost, pairs = _optimal_group_assignment(
                edges1, edges2, cost
            )
            edge_map.update(pairs)
        group_costs.append(group_cost)
        total += group_cost
    return Matching(node_map, edge_map, total), group_costs


def price_node_map(
    g1: PropertyGraph, g2: PropertyGraph, node_map: Mapping[str, str]
) -> Matching:
    """The full matching of an isomorphism known by its node map.

    The edge map and cost are those the search itself would have built
    for that node map (see :func:`partition_similarity_classes`, whose
    node maps come unpriced).
    """
    return _priced(g1, g2, dict(node_map), _memoized_cost())[0]


DEFAULT_MAX_STEPS = 2_000_000


def find_isomorphism(
    g1: PropertyGraph,
    g2: PropertyGraph,
    minimize_properties: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
    upper_bound: Optional[int] = None,
) -> Optional[Matching]:
    """Find a structure-preserving bijection between ``g1`` and ``g2``.

    With ``minimize_properties`` the search continues past the first
    solution and returns the isomorphism with the fewest property
    mismatches (the generalization objective).  ``upper_bound`` seeds the
    branch-and-bound with the cost of a known valid matching (e.g. from a
    previous similarity check) so pruning starts immediately; the result
    is identical to the unseeded search.  Returns ``None`` when the graphs
    are not similar.  A first solution is found unpriced, then priced
    once (:func:`price_node_map`).
    """
    if not minimize_properties:
        node_map = _similarity_node_map(g1, g2, max_steps)
        return None if node_map is None else price_node_map(g1, g2, node_map)
    if g1.is_empty() and g2.is_empty():
        return Matching({}, {}, 0)
    if _OPTIMIZATIONS_ENABLED and _DECOMPOSITION_ENABLED:
        stitched = _decomposed_isomorphism(g1, g2, True, max_steps)
        if stitched is not _FALLBACK:
            return stitched
    search = _MatchSearch(
        g1, g2, exact=True, minimize_cost=True,
        max_steps=max_steps, upper_bound=upper_bound,
    )
    return search.run()


def _signature_of(graph: PropertyGraph) -> Tuple:
    """Structural signature, cached per graph version when optimizing."""
    if not _OPTIMIZATIONS_ENABLED:
        return graph.structural_signature()
    return _cached_structure(graph, "signature", graph.structural_signature)


def are_similar(
    g1: PropertyGraph, g2: PropertyGraph, max_steps: int = DEFAULT_MAX_STEPS
) -> bool:
    """Paper §3.4: same shape and labels, properties ignored."""
    if _signature_of(g1) != _signature_of(g2):
        return False
    return _similarity_node_map(g1, g2, max_steps) is not None


def embed_subgraph(
    g1: PropertyGraph,
    g2: PropertyGraph,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Optional[Matching]:
    """Min-cost embedding of ``g1`` into ``g2`` (Listing 4).

    Finds an injective mapping of every node and edge of ``g1`` onto nodes
    and edges of ``g2`` preserving labels and incidence, minimizing the
    number of ``g1`` properties with no matching ``g2`` property.  Extra
    ``g2`` structure is allowed (non-induced embedding).
    """
    if g1.is_empty():
        return Matching({}, {}, 0)
    search = _MatchSearch(
        g1, g2, exact=False, minimize_cost=True, max_steps=max_steps
    )
    return search.run()


def generalize_pair(
    g1: PropertyGraph,
    g2: PropertyGraph,
    gid: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    warm: Optional[Matching] = None,
) -> Optional[PropertyGraph]:
    """Paper §3.4: generalize two similar graphs into one.

    Searches for the isomorphism minimizing property mismatches, then keeps
    exactly the properties on which both graphs agree (discarding volatile
    values such as timestamps and identifiers).  Returns ``None`` when the
    graphs are not similar.  Element ids of ``g1`` are kept.

    ``warm`` supplies a matching already found between the same pair
    (:func:`price_node_map` prices one that classing found); its cost
    becomes the initial branch-and-bound upper bound, which prunes most
    of the re-search while provably returning the same minimal matching.

    Graphs with different structural signatures are refuted without a
    search.
    """
    if _signature_of(g1) != _signature_of(g2):
        return None
    bound: Optional[int] = None
    if warm is not None and _OPTIMIZATIONS_ENABLED:
        solver_stats().matching_cache_hits += 1
        bound = warm.cost
    matching = find_isomorphism(
        g1, g2, minimize_properties=True, max_steps=max_steps,
        upper_bound=bound,
    )
    if matching is None:
        return None
    return apply_matching(g1, g2, matching, gid)


def apply_matching(
    g1: PropertyGraph,
    g2: PropertyGraph,
    matching: Matching,
    gid: Optional[str] = None,
) -> PropertyGraph:
    """``g1`` keeping exactly the properties on which each element
    agrees with its image in ``g2`` under ``matching`` (an isomorphism's,
    found by either engine).  Element ids of ``g1`` are kept."""
    out = PropertyGraph(gid or g1.gid)
    for node in g1.nodes():
        other = g2.node(matching.node_map[node.id])
        props = {
            key: value
            for key, value in node.props.items()
            if other.props.get(key) == value
        }
        out.add_node(node.id, node.label, props)
    for edge in g1.edges():
        other_edge = g2.edge(matching.edge_map[edge.id])
        props = {
            key: value
            for key, value in edge.props.items()
            if other_edge.props.get(key) == value
        }
        out.add_edge(edge.id, edge.src, edge.tgt, edge.label, props)
    return out


DUMMY_LABEL = "Dummy"


def subtract_background(
    foreground: PropertyGraph,
    background: PropertyGraph,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Optional[PropertyGraph]:
    """Paper §3.5: remove the background embedding from the foreground.

    Returns the difference graph — the benchmark *target graph* — or
    ``None`` when the background cannot be embedded into the foreground
    (a failed comparison, reported upstream as a mismatched run).

    Matched nodes that anchor unmatched edges are retained as ``Dummy``
    placeholder nodes (the paper's green/gray nodes), so the result is a
    well-formed graph.
    """
    matching = embed_subgraph(background, foreground, max_steps=max_steps)
    if matching is None:
        return None
    return subtract_matching(foreground, matching)


def subtract_matching(
    foreground: PropertyGraph, matching: Matching
) -> PropertyGraph:
    """The foreground minus the image of a background embedding into it.

    The target graph of :func:`subtract_background`, for a matching that
    is already known (the pipeline's comparison stage computes its own).
    """
    matched_nodes = set(matching.node_map.values())
    matched_edges = set(matching.edge_map.values())
    result = PropertyGraph(foreground.gid + "_target")
    kept_edges = [
        edge for edge in foreground.edges() if edge.id not in matched_edges
    ]
    kept_nodes = {
        node.id for node in foreground.nodes() if node.id not in matched_nodes
    }
    anchors = set()
    for edge in kept_edges:
        for endpoint in (edge.src, edge.tgt):
            if endpoint not in kept_nodes:
                anchors.add(endpoint)
    for node in foreground.nodes():
        if node.id in kept_nodes:
            result.add_node(node.id, node.label, node.props)
        elif node.id in anchors:
            result.add_node(node.id, DUMMY_LABEL, {"was": node.label})
    for edge in kept_edges:
        result.add_edge(edge.id, edge.src, edge.tgt, edge.label, edge.props)
    return result


def partition_similarity_classes(
    graphs: Sequence[PropertyGraph],
    max_steps: int = DEFAULT_MAX_STEPS,
    collect_matchings: bool = False,
    known: Optional[Mapping[Tuple[int, int], bool]] = None,
):
    """Partition trial graphs into similarity classes (paper §3.4).

    Returns lists of indices into ``graphs``.  A cheap structural signature
    pre-partitions; an isomorphism search confirms membership within
    buckets.  Membership is all it decides: the decomposed pass stops at
    its first complete branch and prices nothing, calling neither
    ``property_mismatch_cost`` nor the parallel-edge-group assignment.

    ``known`` maps index pairs ``(i, j)``, ``i < j``, to a verdict the
    caller has already established (generalization's pair search proves
    or refutes trials 0 and 1); such a pair is not searched again.

    With ``collect_matchings`` the return value is ``(classes, node_maps)``
    where ``node_maps[(i, j)]`` is the node map of the isomorphism found
    from ``graphs[i]`` (a class representative) into ``graphs[j]``, for
    every pair the search joined.  :func:`price_node_map` turns one into
    the matching that warm-starts the generalization search.
    """
    known = known or {}
    buckets: Dict[Tuple, List[List[int]]] = {}
    node_maps: Dict[Tuple[int, int], Dict[str, str]] = {}
    for index, graph in enumerate(graphs):
        classes = buckets.setdefault(_signature_of(graph), [])
        for cls in classes:
            similar = known.get((cls[0], index))
            if similar is None:
                node_map = _similarity_node_map(
                    graphs[cls[0]], graph, max_steps
                )
                similar = node_map is not None
                if similar:
                    node_maps[(cls[0], index)] = node_map
            if similar:
                cls.append(index)
                break
        else:
            classes.append([index])
    result: List[List[int]] = []
    for classes in buckets.values():
        result.extend(classes)
    result.sort(key=lambda cls: cls[0])
    if collect_matchings:
        return result, node_maps
    return result


def _similarity_node_map(
    g1: PropertyGraph, g2: PropertyGraph, max_steps: int
) -> Optional[Dict[str, str]]:
    """The node map of the first isomorphism the search finds, unpriced
    (None when the graphs are not similar)."""
    if g1.is_empty() and g2.is_empty():
        return {}
    if _OPTIMIZATIONS_ENABLED and _DECOMPOSITION_ENABLED:
        node_map = _decomposed_isomorphism(g1, g2, False, max_steps)
        if node_map is not _FALLBACK:
            return node_map
    found = _MatchSearch(
        g1, g2, exact=True, minimize_cost=False, max_steps=max_steps
    ).run()
    return None if found is None else found.node_map

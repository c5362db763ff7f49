"""A MiMAG-style diversified cross-graph quasi-clique miner (ref. [4]).

The paper compares its algorithms against MiMAG (Boden et al., KDD 2012),
closed-source C++ research code that mines vertex sets which are
γ-quasi-cliques on at least ``s`` layers of a multi-layer graph and then
reports a diversified (low-redundancy) subset of them.  This module is the
substitution documented in docs/experiments.md ("Substitutions"): a
faithful-in-behaviour miner built on set-enumeration branch-and-bound.

Key properties mirrored from the original:

* the search tree enumerates *vertex subsets* (2^|V| nodes in the worst
  case — the structural reason Fig. 29 shows MiMAG orders of magnitude
  slower than BU-DCCS, whose tree has only 2^l nodes);
* candidates must be γ-quasi-cliques on at least ``min_support`` layers and
  have at least ``min_size`` vertices;
* only maximal candidates are reported, and a redundancy filter keeps a
  cluster only when enough of it is not already covered (the
  "diversified result" of [4]).

Because quasi-cliques are not hereditary, the enumeration uses sound but
loose degree bounds; a node budget caps worst-case blow-up and is recorded
in the result so experiments can report truncation honestly.
"""

from dataclasses import dataclass, field

from repro.baselines.quasiclique import (
    is_quasi_clique,
    quasi_clique_threshold,
    supporting_layers,
)
from repro.utils.errors import ParameterError
from repro.utils.timer import Timer


@dataclass
class MiMAGResult:
    """Output of :func:`mimag`.

    Attributes
    ----------
    clusters:
        The diversified quasi-cliques (list of frozensets).
    all_maximal:
        Every maximal quasi-clique found before diversification.
    nodes_explored:
        Search-tree nodes visited.
    truncated:
        Whether the node budget stopped the enumeration early.
    elapsed:
        Wall-clock seconds.
    """

    clusters: list
    all_maximal: list = field(default_factory=list)
    nodes_explored: int = 0
    truncated: bool = False
    elapsed: float = 0.0

    @property
    def cover(self):
        """``Cov(R_Q)`` — the union of the diversified clusters."""
        covered = set()
        for cluster in self.clusters:
            covered |= cluster
        return covered

    @property
    def cover_size(self):
        return len(self.cover)


def mimag(graph, gamma, min_size, min_support, node_budget=200000,
          redundancy=0.25, max_cluster_size=8):
    """Mine diversified cross-graph quasi-cliques.

    Parameters
    ----------
    graph:
        The multi-layer graph.
    gamma:
        Quasi-clique density in ``[0, 1]`` (the paper uses 0.8).
    min_size:
        Minimum cluster size ``d'`` (the paper sets ``d' = d + 1``).
    min_support:
        Minimum number of supporting layers ``s``.
    node_budget:
        Hard cap on search-tree nodes; exceeding it sets ``truncated``.
    redundancy:
        A maximal cluster is kept only when at least this fraction of its
        vertices is not yet covered by previously kept (larger) clusters.
    max_cluster_size:
        Cap on cluster size (default 8; ``None`` disables).  Besides
        bounding depth, the cap powers the strongest prune: every current
        member survives into any final cluster of size ``m <= cap``, and a
        γ-quasi-clique member misses at most ``(m−1) − ⌈γ(m−1)⌉`` fellow
        members per supporting layer — one vertex for γ = 0.8, m = 8 — so
        branches whose members are not near-cliques die immediately.
        Quasi-cliques are microscopic by design (the limitation the paper
        criticises), so a cap of 8 matches what MiMAG reports in Fig. 29.

    Returns a :class:`MiMAGResult`.
    """
    if min_size < 2:
        raise ParameterError("min_size must be at least 2")
    if not 1 <= min_support <= graph.num_layers:
        raise ParameterError(
            "min_support must be in [1, {}]".format(graph.num_layers)
        )
    with Timer() as timer:
        miner = _Miner(graph, gamma, min_size, min_support,
                       node_budget, max_cluster_size)
        miner.run()
        maximal = _maximal_only(miner.found)
        clusters = _diversify(maximal, redundancy)
    return MiMAGResult(
        clusters=clusters,
        all_maximal=maximal,
        nodes_explored=miner.nodes,
        truncated=miner.truncated,
        elapsed=timer.elapsed,
    )


class _Miner:
    """Set-enumeration DFS with per-layer viability pruning.

    Each node carries, besides the member tuple and the candidate
    extension, the set of *viable* layers — layers on which every member
    still reaches the γ-degree bound inside ``members ∪ extension``.  Two
    sound prunes follow (proofs in the method docstrings): branches with
    fewer than ``min_support`` viable layers die, and extension vertices
    that cannot reach the bound on enough viable layers are dropped, which
    in turn shrinks the pool and re-tightens viability down the tree.
    """

    def __init__(self, graph, gamma, min_size, min_support,
                 node_budget, max_cluster_size):
        self.graph = graph
        self.gamma = gamma
        self.min_size = min_size
        self.min_support = min_support
        self.node_budget = node_budget
        self.max_size = max_cluster_size
        # Per-layer miss budget: a member of a final cluster of size at
        # most `max_size` may be non-adjacent to at most this many fellow
        # members on a supporting layer.  None disables the prune.
        if max_cluster_size is None:
            self.miss_budget = None
        else:
            self.miss_budget = (max_cluster_size - 1) - quasi_clique_threshold(
                gamma, max_cluster_size
            )
        self.found = []
        self.nodes = 0
        self.truncated = False
        # A total order over vertices makes the enumeration canonical:
        # every subset is generated exactly once, in sorted-tuple form.
        self.vertex_order = {
            vertex: rank
            for rank, vertex in enumerate(sorted(graph.vertices(), key=str))
        }
        # Union adjacency drives candidate generation: an extension must
        # be adjacent to the current set somewhere, otherwise it could
        # never reach degree >= 1 inside the cluster.
        self.union_adj = {}
        for vertex in graph.vertices():
            neighbors = set()
            for layer in graph.layers():
                neighbors |= graph.neighbors(layer, vertex)
            self.union_adj[vertex] = neighbors

    def run(self):
        """Enumerate connected vertex sets with the exclusion-set scheme.

        Seeds are processed in rank order, each banned from all later
        seeds' trees; within a node, each candidate is banned from its
        later siblings' subtrees.  This enumerates every connected subset
        of the union graph exactly once (connectivity is guaranteed for
        γ >= 0.5 quasi-cliques, whose minimum degree exceeds half the
        size), and pruned candidates simply join the ban set.
        """
        all_layers = tuple(self.graph.layers())
        seeds = sorted(self.vertex_order, key=self.vertex_order.get)
        banned = set()
        # Budget is sliced per seed region so that one dense community
        # cannot consume the whole allowance and starve the rest of the
        # graph; unspent slices roll over.
        slice_size = max(1000, self.node_budget // max(1, len(seeds) // 8))
        for seed in seeds:
            if self.nodes >= self.node_budget:
                self.truncated = True
                return
            if len(self.union_adj[seed]) + 1 >= self.min_size:
                self._seed_limit = min(
                    self.node_budget, self.nodes + slice_size
                )
                extension = sorted(
                    self.union_adj[seed] - banned,
                    key=self.vertex_order.get,
                )
                self._expand((seed,), extension, frozenset(banned),
                             all_layers)
            banned.add(seed)

    # ------------------------------------------------------------------

    def _extendable(self, members, survivors, viable):
        """Whether some surviving candidate extends ``members`` validly."""
        for u in survivors:
            grown = members + (u,)
            support = sum(
                1 for layer in viable
                if is_quasi_clique(self.graph, layer, grown, self.gamma)
            )
            if support >= self.min_support:
                return True
        return False

    def _expand(self, members, extension, banned, layers):
        self.nodes += 1
        if self.nodes > getattr(self, "_seed_limit", self.node_budget):
            # Seed slice exhausted: mark the run truncated (coverage is
            # incomplete) but let the next seed region start fresh.
            self.truncated = True
            return
        size = len(members)

        # Viability: a layer can support some cluster grown from this node
        # only if every current member reaches the γ-degree bound for the
        # smallest admissible final size inside the whole remaining pool
        # (degrees only shrink as the pool shrinks, and the bound only
        # grows with the final size).
        pool = set(members) | set(extension)
        member_set = set(members)
        required = quasi_clique_threshold(
            self.gamma, max(self.min_size, size)
        )
        # Member-based floor: all current members reach the final cluster,
        # so each may miss at most `miss_budget` of the others per layer.
        member_floor = 0
        if self.miss_budget is not None:
            member_floor = size - 1 - self.miss_budget
        viable = []
        for layer in layers:
            adjacency = self.graph.adjacency(layer)
            if all(
                len(adjacency[v] & pool) >= required
                and len(adjacency[v] & member_set) >= member_floor
                for v in members
            ):
                viable.append(layer)
        if len(viable) < self.min_support:
            return

        valid_here = False
        if size >= self.min_size:
            support = [
                layer for layer in viable
                if is_quasi_clique(self.graph, layer, members, self.gamma)
            ]
            valid_here = len(support) >= self.min_support
        if self.max_size is not None and size >= self.max_size:
            if valid_here:
                self.found.append(frozenset(members))
            return
        if not valid_here and size + len(extension) < self.min_size:
            return

        # Drop extensions that cannot reach the degree bound on enough
        # viable layers: any cluster through this node containing such a
        # vertex is a subset of the pool, where the vertex already fails.
        grown = quasi_clique_threshold(
            self.gamma, max(self.min_size, size + 1)
        )
        adjacencies = [self.graph.adjacency(layer) for layer in viable]
        joiner_floor = 0
        if self.miss_budget is not None:
            joiner_floor = size - self.miss_budget
        survivors = []
        dropped = set()
        for u in extension:
            reachable = sum(
                1 for adjacency in adjacencies
                if len(adjacency[u] & pool) >= grown
                and len(adjacency[u] & member_set) >= joiner_floor
            )
            if reachable >= self.min_support:
                survivors.append(u)
            else:
                dropped.add(u)

        if valid_here and not self._extendable(members, survivors, viable):
            # Locally maximal: no surviving candidate grows it validly.
            # (Cross-branch supersets through banned vertices can slip in;
            # the output-side maximality pass removes the cheap cases.)
            self.found.append(frozenset(members))
        if size + len(survivors) < self.min_size:
            return

        sibling_banned = set(banned) | dropped
        for index, vertex in enumerate(survivors):
            child_members = members + (vertex,)
            child_extension = list(survivors[index + 1:])
            present = set(child_extension)
            # New frontier: neighbours of the fresh vertex not banned in
            # this subtree keep the enumeration connected.
            for u in self.union_adj[vertex]:
                if (
                    u not in present
                    and u not in member_set
                    and u != vertex
                    and u not in sibling_banned
                ):
                    child_extension.append(u)
                    present.add(u)
            child_extension.sort(key=self.vertex_order.get)
            self._expand(child_members, child_extension,
                         frozenset(sibling_banned), tuple(viable))
            if self.nodes > self._seed_limit:
                # Unwind this seed's tree; the next seed gets a new slice.
                return
            sibling_banned.add(vertex)


def _maximal_only(found, quadratic_cap=4000):
    """Drop any cluster strictly contained in another.

    The pairwise pass is quadratic; above ``quadratic_cap`` distinct
    clusters it falls back to deduplication only.  Clusters are already
    locally maximal when recorded, so the pass only removes the rare
    cross-branch containments.
    """
    ordered = sorted(set(found), key=len, reverse=True)
    if len(ordered) > quadratic_cap:
        return ordered
    maximal = []
    for cluster in ordered:
        if not any(cluster < other for other in maximal):
            maximal.append(cluster)
    return maximal


def _diversify(clusters, redundancy):
    """The redundancy filter of [4]: keep clusters adding enough novelty."""
    kept = []
    covered = set()
    for cluster in sorted(clusters, key=len, reverse=True):
        novel = len(cluster - covered)
        if not kept or novel >= redundancy * len(cluster):
            kept.append(cluster)
            covered |= cluster
    return kept

"""The pure-Python reference peels the equivalence suites compare against.

Every production peel is a numpy kernel over the frozen CSR
(``repro.graph.kernels``).  These are the small, readable
implementations they are held to:

* :func:`d_core` — single-layer cascade peeling over an adjacency dict;
* :func:`core_decomposition` / :func:`core_sizes_by_threshold` — the
  Batagelj–Zaversnik bin-sort core numbers;
* :func:`coherent_core` — the paper's dCC procedure (Appendix B,
  Fig. 35), bucket peeling by ``m(v) = min_{i in L} deg_i(v)``, written
  against the graph protocol so it runs on either graph class;
* :func:`check_maintainer` — an
  :class:`~repro.core.maintain.ArrayCoreMaintainer`'s state against a
  from-scratch recomputation with :func:`d_core`;
* :func:`vertex_deletion`, :func:`hierarchy_index`,
  :func:`reachable_scope`, :func:`refine_potential` and
  :func:`init_topk` — set forms of the preprocessing, the top-down
  index, RefineU and InitTopK, recomputed from scratch with the peels
  above.
"""

from repro.utils.errors import check_degree


def d_core(adjacency, d, within=None):
    """The d-core of a single-layer graph ``{vertex: neighbours}`` as a set.

    With ``within`` the core is computed on the induced subgraph; a FIFO
    of violating vertices touches each edge O(1) times.
    """
    check_degree(d)
    if within is None:
        alive = set(adjacency)
        degree = {v: len(neighbors) for v, neighbors in adjacency.items()}
    else:
        alive = set(within) & set(adjacency)
        degree = {v: len(set(adjacency[v]) & alive) for v in alive}
    if d == 0:
        return alive
    queue = [v for v, deg in degree.items() if deg < d]
    in_queue = set(queue)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        alive.discard(v)
        for u in adjacency[v]:
            if u in alive and u not in in_queue:
                degree[u] -= 1
                if degree[u] < d:
                    queue.append(u)
                    in_queue.add(u)
    return alive


def core_decomposition(adjacency, within=None):
    """``{vertex: core number}`` by the O(m) bin-sort algorithm.

    The Batagelj–Zaversnik array scheme with ``bin``, ``order`` and
    ``pos`` — the bookkeeping Fig. 35 generalises to multiple layers.
    """
    if within is None:
        vertices = list(adjacency)
    else:
        vertices = list(set(within) & set(adjacency))
    member = set(vertices)
    if not vertices:
        return {}
    degree = {v: len(set(adjacency[v]) & member) for v in vertices}
    max_degree = max(degree.values())
    counts = [0] * (max_degree + 1)
    for v in vertices:
        counts[degree[v]] += 1
    bins = [0] * (max_degree + 2)
    start = 0
    for deg in range(max_degree + 1):
        bins[deg] = start
        start += counts[deg]
    order = [None] * len(vertices)
    pos = {}
    fill = list(bins[: max_degree + 1])
    for v in vertices:
        pos[v] = fill[degree[v]]
        order[pos[v]] = v
        fill[degree[v]] += 1
    core = dict(degree)
    for i in range(len(order)):
        v = order[i]
        for u in adjacency[v]:
            if u not in member or core[u] <= core[v]:
                continue
            # Move u one bin down: swap it with the first vertex of its
            # bin, then advance that bin's start.
            deg_u = core[u]
            first_pos = bins[deg_u]
            first_vertex = order[first_pos]
            if first_vertex != u:
                order[pos[u]], order[first_pos] = first_vertex, u
                pos[first_vertex], pos[u] = pos[u], first_pos
            bins[deg_u] += 1
            core[u] -= 1
    return core


def core_sizes_by_threshold(adjacency, within=None):
    """``{d: |d-core|}`` for every achievable d, from one decomposition."""
    core = core_decomposition(adjacency, within=within)
    if not core:
        return {0: 0}
    return {d: sum(1 for value in core.values() if value >= d)
            for d in range(max(core.values()) + 1)}


def coherent_core(graph, layers, d, within=None, stats=None):
    """The paper's dCC procedure (Fig. 35); a frozenset of ``graph``'s vertices.

    Vertices sit in buckets by ``m(v) = min_{i in L} deg_i(v)`` within
    the alive set; each round removes a vertex of minimum ``m`` while
    ``m(v) < d``.  ``stats`` counts one ``dcc_calls`` and one
    ``peel_operations`` per removed vertex, as the kernels do.
    """
    layer_tuple = tuple(sorted(set(layers)))
    check_degree(d)
    if stats is not None:
        stats.dcc_calls += 1
    if within is None:
        alive = graph.vertices()
    else:
        alive = {v for v in set(within) if graph.has_vertex(v)}
    if d == 0 or not alive:
        return frozenset(alive)
    degrees = [graph.induced_degrees(layer, alive) for layer in layer_tuple]
    m_value = {v: min(degree[v] for degree in degrees) for v in alive}
    buckets = {}
    for v, m in m_value.items():
        buckets.setdefault(m, set()).add(v)
    floor = min(buckets)
    while alive:
        while floor not in buckets or not buckets[floor]:
            buckets.pop(floor, None)
            floor += 1
            if floor > max(buckets, default=-1):
                return frozenset(alive)
        if floor >= d:
            break
        v = buckets[floor].pop()
        alive.discard(v)
        del m_value[v]
        if stats is not None:
            stats.peel_operations += 1
        touched = set()
        for layer, degree in zip(layer_tuple, degrees):
            for u in graph.neighbors(layer, v):
                if u in alive:
                    degree[u] -= 1
                    touched.add(u)
        for u in touched:
            new_m = min(degree[u] for degree in degrees)
            if new_m != m_value[u]:
                buckets[m_value[u]].discard(u)
                buckets.setdefault(new_m, set()).add(u)
                floor = min(floor, new_m)
                m_value[u] = new_m
    return frozenset(alive)


def check_maintainer(maintainer):
    """Recompute a maintainer's cores, support and core degrees; compare.

    Raises :class:`AssertionError` naming the first drift; returns
    ``True`` otherwise.
    """
    graph, d = maintainer.graph, maintainer.d
    alive, cores, support = maintainer.snapshot()
    for layer in graph.layers():
        adjacency = graph.adjacency(layer)
        expected = d_core(adjacency, d, within=alive)
        assert cores[layer] == expected, (
            "layer {} core drifted: {} vs {}".format(
                layer, sorted(cores[layer]), sorted(expected)))
        degrees = maintainer._degrees[layer]
        for v in expected:
            inside = len(set(adjacency[v]) & expected)
            assert degrees[v] == inside, (
                "layer {} degree of {} drifted".format(layer, v))
    for vertex in alive:
        true_support = sum(1 for core in cores if vertex in core)
        assert support.get(vertex, 0) == true_support, (
            "support[{!r}] = {} but should be {}".format(
                vertex, support.get(vertex), true_support))
    return True


def layer_cores(graph, d, alive):
    """Each layer's d-core within ``alive``, and ``Num(v)`` per vertex."""
    cores = [d_core(graph.adjacency(layer), d, within=alive)
             for layer in graph.layers()]
    support = {v: sum(v in core for core in cores) for v in alive}
    return cores, support


def vertex_deletion(graph, d, s, enabled=True):
    """Fig. 7, lines 1–7: ``(alive, cores, support, deleted, rounds)``.

    Drops every vertex in the d-cores of fewer than ``s`` layers and
    recomputes from scratch until a fixed point; ``rounds`` counts the
    recomputations, the last of which deletes nothing.
    """
    alive = graph.vertices()
    cores, support = layer_cores(graph, d, alive)
    deleted = rounds = 0
    while enabled:
        rounds += 1
        doomed = {v for v in alive if support[v] < s}
        if not doomed:
            break
        alive -= doomed
        deleted += len(doomed)
        cores, support = layer_cores(graph, d, alive)
    return alive, cores, support, deleted, rounds


def hierarchy_index(graph, d, within=None):
    """The Section V-C index: ``(level_of, threshold_of, label,
    union_adj, batches)``.

    At threshold ``h`` the vertices of support at most ``h`` leave in
    batches, recomputed from scratch after each; a batch is one level,
    ``label[v]`` the layers whose core held ``v`` just before its batch
    left, and ``union_adj[v]`` its indexed neighbours on any layer.
    """
    if within is None:
        alive = graph.vertices()
    else:
        alive = {v for v in within if graph.has_vertex(v)}
    level_of, threshold_of, label, batches = {}, {}, {}, []
    for threshold in range(1, graph.num_layers + 1):
        while alive:
            cores, support = layer_cores(graph, d, alive)
            batch = {v for v in alive if support[v] < threshold + 1}
            if not batch:
                break
            for v in batch:
                level_of[v] = len(batches)
                threshold_of[v] = threshold
                label[v] = frozenset(layer for layer, core in
                                     enumerate(cores) if v in core)
            batches.append((threshold, batch))
            alive -= batch
        if not alive:
            break
    union_adj = {
        v: {u for layer in graph.layers() for u in graph.neighbors(layer, v)
            if u in level_of and u != v}
        for v in level_of
    }
    return level_of, threshold_of, label, union_adj, batches


def reachable_scope(index, layer_subset, candidates):
    """Lemmas 8 and 9 on a :func:`hierarchy_index`: the candidates whose
    threshold is at least ``|L'|`` and that a level-monotone chain
    reaches from a vertex ``w`` with ``L' ⊆ L(w)``."""
    level_of, threshold_of, label, union_adj, _ = index
    wanted = frozenset(layer_subset)
    zone = {v for v in candidates
            if threshold_of.get(v, 0) >= max(1, len(wanted))}
    reached = {v for v in zone if wanted <= label[v]}
    stack = list(reached)
    while stack:
        v = stack.pop()
        for u in union_adj[v]:
            if u in zone and u not in reached and \
                    level_of[u] >= level_of[v]:
                reached.add(u)
                stack.append(u)
    return reached


def refine_potential(graph, d, s, potential, positions, order, cores,
                     stats=None):
    """RefineU (Fig. 9) on sets: Method 2's count over the free layers'
    cores, then Method 1's peel on the locked layers."""
    missing = [p for p in range(len(order)) if p not in positions]
    missing_max = max(missing, default=-1)
    locked = [order[p] for p in positions if p < missing_max]
    free = [order[p] for p in positions if p >= missing_max]
    needed = s - len(locked)
    current = set(potential)
    if needed > 0:
        current = {v for v in current
                   if sum(v in cores[layer] for layer in free) >= needed}
    if locked and current:
        current = set(coherent_core(graph, locked, d, within=current,
                                    stats=stats))
    return current


def init_topk(graph, d, s, k, cores, within, topk, stats=None):
    """InitTopK (Fig. 37) on sets: ``k`` greedy seeds offered to ``topk``.

    Each seed starts from the layer whose core adds the most uncovered
    vertices, intersects in ``s - 1`` more layers keeping the
    intersection largest (ties to the lowest id), and is peeled to its
    d-CC.
    """
    layers = range(graph.num_layers)
    for _ in range(k):
        covered = topk.cover()
        best = max(layers, key=lambda layer:
                   len(cores[layer]) - len(cores[layer] & covered))
        chosen = [best]
        candidate = set(cores[best]) & within
        for _ in range(s - 1):
            best = max((layer for layer in layers if layer not in chosen),
                       key=lambda layer: len(candidate & cores[layer]))
            chosen.append(best)
            candidate &= cores[best]
        label = tuple(sorted(chosen))
        core = coherent_core(graph, label, d, within=candidate, stats=stats)
        if topk.try_update(core, label=label) and stats is not None:
            stats.updates_accepted += 1
    return topk

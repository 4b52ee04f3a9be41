"""Oracles for the Prokhorov line sweep and for the crossing search.

Dinic's algorithm on the explicit bipartite graph source -> mu atoms ->
nu atoms -> sink, with an edge for every admissible pair.  It knows
nothing about the line, so it checks the sweep on supports too large
for ``prokhorov_brute``.

``bisect_infimum`` is the plain bisection of the crossing over every
breakpoint, with no start guess; it checks that the guided search
finds the same crossing from any guess.
"""

from __future__ import annotations

from gridentropy import Measure
from gridentropy.prokhorov import _sweep_flow


def admissible_pairs(mu: Measure, nu: Measure, radius: float) -> list[tuple[int, int]]:
    """Index pairs (i, j) with |x_i - y_j| <= radius."""
    return [(i, j) for i, x in enumerate(mu.positions) for j, y in enumerate(nu.positions)
            if abs(x - y) <= radius]


def dinic_max_flow(
    left: tuple[float, ...],
    right: tuple[float, ...],
    adjacency: list[tuple[int, int]],
) -> float:
    """Max flow source -> left atoms -> right atoms -> sink.

    Level-graph augmentation (BFS phases, DFS blocking flow).  Each
    augmentation zeroes at least one residual exactly (x - x == 0.0 in
    floats), so termination is combinatorial and the flow value is a
    plain sum of input masses.
    """
    n_left = len(left)
    n_right = len(right)
    source = 0
    sink = n_left + n_right + 1
    n_nodes = sink + 1

    # Edge arrays: to, residual capacity, index of the reverse edge.
    graph: list[list[list]] = [[] for _ in range(n_nodes)]

    def add_edge(u: int, v: int, cap: float) -> None:
        graph[u].append([v, cap, len(graph[v])])
        graph[v].append([u, 0.0, len(graph[u]) - 1])

    inf_cap = sum(left) + sum(right) + 1.0
    for i, a in enumerate(left):
        add_edge(source, 1 + i, a)
    for j, b in enumerate(right):
        add_edge(1 + n_left + j, sink, b)
    for i, j in adjacency:
        add_edge(1 + i, 1 + n_left + j, inf_cap)

    flow = 0.0
    while True:
        # BFS: level graph.
        level = [-1] * n_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            for edge in graph[u]:
                v, cap, _ = edge
                if cap > 0.0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return flow

        # Blocking flow: iterative DFS with per-node edge pointers.
        # Within a phase a dead end stays dead (reverse edges point down
        # a level and are never traversed), so pointers survive across
        # augmentations.
        pointer = [0] * n_nodes
        path: list[tuple[int, list]] = []
        u = source
        while True:
            if u == sink:
                bottleneck = min(edge[1] for _, edge in path)
                for _, edge in path:
                    edge[1] -= bottleneck
                    graph[edge[0]][edge[2]][1] += bottleneck
                flow += bottleneck
                # Restart from the source; saturated edges are skipped
                # by the capacity check.
                path.clear()
                u = source
                continue
            moved = False
            while pointer[u] < len(graph[u]):
                edge = graph[u][pointer[u]]
                if edge[1] > 0.0 and level[edge[0]] == level[u] + 1:
                    path.append((u, edge))
                    u = edge[0]
                    moved = True
                    break
                pointer[u] += 1
            if moved:
                continue
            if u == source:
                break
            tail, _ = path.pop()
            pointer[tail] += 1
            u = tail


def oracle_deficiency(mu: Measure, nu: Measure, radius: float) -> float:
    """max_A [mu(A) - nu(A^radius)], A^radius closed, as mu_total minus the Dinic flow."""
    flow = dinic_max_flow(mu.masses, nu.masses, admissible_pairs(mu, nu, radius))
    return max(0.0, mu.total_mass - flow)


def bisect_infimum(breakpoints, xs, x_masses, ys, y_masses, max_total) -> float:
    """The distance, bisected over its increasing breakpoints from the full range.

    Same arguments as ``prokhorov._infimum``.  The deficiency on
    (b_k, b_{k+1}] is max_total minus the sweep's flow over the closed
    edges at b_k; the crossing is the first k with b_k >= deficiency(k).
    """
    deficiency_cache: dict[int, float] = {}

    def deficiency(k: int) -> float:
        if k not in deficiency_cache:
            flow = _sweep_flow(xs, x_masses, ys, y_masses, float(breakpoints[k]))
            deficiency_cache[k] = max(0.0, max_total - flow)
        return deficiency_cache[k]

    count = len(breakpoints)
    crossing, hi = 0, count
    while crossing < hi:
        mid = (crossing + hi) // 2
        if breakpoints[mid] >= deficiency(mid):
            hi = mid
        else:
            crossing = mid + 1

    if crossing == count:
        return deficiency(count - 1)
    if crossing == 0:
        return float(breakpoints[0])
    return min(float(breakpoints[crossing]), deficiency(crossing - 1))

"""Ring perception: smallest set of smallest rings and ring-bond flags."""

from __future__ import annotations

from collections import deque


def _ring_adjacency(
    n_atoms: int, bonds: list[tuple[int, int]], ring_flags: list[bool]
) -> list[list[int]]:
    """Sorted neighbor lists over ring bonds only; no cycle contains a bridge."""
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for (a, b), in_ring in zip(bonds, ring_flags):
        if in_ring:
            adj[a].append(b)
            adj[b].append(a)
    for lst in adj:
        lst.sort()
    return adj


def _shortest_cycle(adj: list[list[int]], a: int, b: int) -> tuple[int, ...]:
    """Atoms from b back to a along the BFS path from a that avoids bond a-b."""
    parent = [-1] * len(adj)
    parent[a] = a
    q = deque([a])
    while parent[b] == -1:
        u = q.popleft()
        for v in adj[u]:
            if parent[v] == -1 and (u != a or v != b):
                parent[v] = u
                q.append(v)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(path)


def _edge_index(bonds: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    idx = {}
    for k, (a, b) in enumerate(bonds):
        idx[(min(a, b), max(a, b))] = k
    return idx


def sssr(
    n_atoms: int, bonds: list[tuple[int, int]], ring_flags: list[bool]
) -> list[tuple[int, ...]]:
    """Smallest set of smallest rings of size = cyclomatic number.

    Candidate cycles are the shortest cycle through every ring bond (as
    flagged by ``ring_bond_flags``), found by BFS over the ring bonds alone;
    they are ranked by (length, atom tuple) and greedily accepted while
    linearly independent over GF(2) on the edge space, which makes the
    result deterministic for a fixed atom numbering.
    """
    adj = _ring_adjacency(n_atoms, bonds, ring_flags)
    eidx = _edge_index(bonds)
    candidates: list[tuple[int, ...]] = []
    seen_cycles: set[frozenset[int]] = set()
    for (a, b), in_ring in zip(bonds, ring_flags):
        if not in_ring:
            continue  # bridge: no cycle through it
        cyc = _shortest_cycle(adj, a, b)
        key = frozenset(cyc)
        if len(key) == len(cyc) and key not in seen_cycles:
            seen_cycles.add(key)
            candidates.append(cyc)

    def _cycle_key(cyc: tuple[int, ...]) -> tuple:
        return (len(cyc), tuple(sorted(cyc)), cyc)

    candidates.sort(key=_cycle_key)

    basis: list[int] = []  # GF(2) edge-set vectors as bitmasks, kept reduced
    chosen: list[tuple[int, ...]] = []
    for cyc in candidates:
        vec = 0
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            vec |= 1 << eidx[(min(a, b), max(a, b))]
        red = vec
        for bv in basis:
            red = min(red, red ^ bv)
        if red == 0:
            continue
        basis.append(red)
        basis.sort(reverse=True)
        chosen.append(_normalize_ring(cyc))
    return chosen


def _normalize_ring(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect a cycle so it starts at its smallest atom, smaller-neighbor first."""
    n = len(cyc)
    start = cyc.index(min(cyc))
    fwd = tuple(cyc[(start + i) % n] for i in range(n))
    rev = tuple(cyc[(start - i) % n] for i in range(n))
    return min(fwd, rev)


def small_cycles(
    n_atoms: int, bonds: list[tuple[int, int]], ring_flags: list[bool], max_size: int = 7
) -> list[tuple[int, ...]]:
    """Every simple cycle up to max_size atoms, order-normalized.

    Aromaticity candidates must not depend on which same-length rings the
    SSSR tie-breaking happened to keep, so perception enumerates all short
    cycles instead of the ring basis. The walk follows ring bonds only.
    """
    adj = _ring_adjacency(n_atoms, bonds, ring_flags)
    cycles: set[tuple[int, ...]] = set()

    def walk(start: int, current: int, path: list[int], visited: set[int]) -> None:
        for nxt in adj[current]:
            if nxt == start and len(path) >= 3:
                cycles.add(_normalize_ring(tuple(path)))
            elif nxt > start and nxt not in visited and len(path) < max_size:
                path.append(nxt)
                visited.add(nxt)
                walk(start, nxt, path, visited)
                path.pop()
                visited.remove(nxt)

    for start in range(n_atoms):
        if adj[start]:
            walk(start, start, [start], {start})
    return sorted(cycles, key=lambda c: (len(c), c))


def ring_bond_flags(n_atoms: int, bonds: list[tuple[int, int]]) -> list[bool]:
    """True for every bond that lies on some cycle (i.e. is not a bridge).

    Each bond left out of a BFS spanning forest closes a cycle with the tree
    path between its ends, and every cycle is a sum of these; so the ring
    bonds are the non-tree bonds plus the tree bonds on their paths.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for k, (a, b) in enumerate(bonds):
        adj[a].append((b, k))
        adj[b].append((a, k))

    up = [-1] * n_atoms  # tree bond to the parent; -1 at a root
    depth = [-1] * n_atoms
    for root in range(n_atoms):
        if depth[root] != -1:
            continue
        depth[root] = 0
        queue = [root]
        for u in queue:
            for v, k in adj[u]:
                if depth[v] == -1:
                    depth[v] = depth[u] + 1
                    up[v] = k
                    queue.append(v)

    flags = [False] * len(bonds)
    tree = set(up)
    for k, (a, b) in enumerate(bonds):
        if k in tree:
            continue
        flags[k] = True
        while a != b:  # climb from the deeper end until the ends meet
            if depth[a] < depth[b]:
                a, b = b, a
            flags[up[a]] = True
            x, y = bonds[up[a]]
            a = x if y == a else y
    return flags

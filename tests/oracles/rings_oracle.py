"""Reference ring perception: the SSSR, short-cycle and ring-bond routines
as they stood before ``sssr`` dropped its component count and early exit.

Tests require ``ilkit.chem.rings`` to reproduce these results exactly.
"""

from __future__ import annotations

from collections import deque


def _bfs_parents(adj: list[list[int]], start: int, blocked_edge: tuple[int, int] | None) -> list[int]:
    """BFS parents from start, optionally ignoring one undirected edge."""
    parent = [-1] * len(adj)
    parent[start] = start
    q = deque([start])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if blocked_edge and (u, v) in (blocked_edge, blocked_edge[::-1]):
                continue
            if parent[v] == -1:
                parent[v] = u
                q.append(v)
    return parent


def _edge_index(bonds: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    idx = {}
    for k, (a, b) in enumerate(bonds):
        idx[(min(a, b), max(a, b))] = k
    return idx


def sssr(n_atoms: int, bonds: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Smallest set of smallest rings of size = cyclomatic number.

    Candidate cycles are the shortest cycle through every edge; they are
    ranked by (length, atom tuple) and greedily accepted while linearly
    independent over GF(2) on the edge space, which makes the result
    deterministic for a fixed atom numbering.
    """
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for a, b in bonds:
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj:
        lst.sort()

    eidx = _edge_index(bonds)
    n_components = _count_components(n_atoms, adj)
    target = len(bonds) - n_atoms + n_components
    if target <= 0:
        return []

    candidates: list[tuple[int, ...]] = []
    seen_cycles: set[frozenset[int]] = set()
    for a, b in bonds:
        parent = _bfs_parents(adj, a, blocked_edge=(a, b))
        if parent[b] == -1:
            continue  # bridge edge: no cycle through it
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        cyc = tuple(path)
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
        if len(chosen) == target:
            break
    return chosen


def _normalize_ring(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect a cycle so it starts at its smallest atom, smaller-neighbor first."""
    n = len(cyc)
    start = cyc.index(min(cyc))
    fwd = tuple(cyc[(start + i) % n] for i in range(n))
    rev = tuple(cyc[(start - i) % n] for i in range(n))
    return min(fwd, rev)


def _count_components(n_atoms: int, adj: list[list[int]]) -> int:
    seen = [False] * n_atoms
    count = 0
    for s in range(n_atoms):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return count


def small_cycles(n_atoms: int, bonds: list[tuple[int, int]], max_size: int = 7) -> list[tuple[int, ...]]:
    """Every simple cycle up to max_size atoms, order-normalized.

    Aromaticity candidates must not depend on which same-length rings the
    SSSR tie-breaking happened to keep, so perception enumerates all short
    cycles instead of the ring basis.
    """
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for a, b in bonds:
        adj[a].append(b)
        adj[b].append(a)
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
        walk(start, start, [start], {start})
    return sorted(cycles, key=lambda c: (len(c), c))


def ring_bond_flags(n_atoms: int, bonds: list[tuple[int, int]]) -> list[bool]:
    """True for every bond that lies on some cycle (i.e. is not a bridge)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for k, (a, b) in enumerate(bonds):
        adj[a].append((b, k))
        adj[b].append((a, k))

    flags = [True] * len(bonds)
    disc = [-1] * n_atoms
    low = [0] * n_atoms
    timer = 0
    for root in range(n_atoms):
        if disc[root] != -1:
            continue
        # Iterative Tarjan bridge finding.
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            u, pe, it = stack.pop()
            if it == 0:
                disc[u] = low[u] = timer
                timer += 1
            advanced = False
            for pos in range(it, len(adj[u])):
                v, k = adj[u][pos]
                if k == pe:
                    continue
                if disc[v] == -1:
                    stack.append((u, pe, pos + 1))
                    stack.append((v, k, 0))
                    advanced = True
                    break
                low[u] = min(low[u], disc[v])
            if not advanced and pe != -1:
                a, b = bonds[pe]
                parent = a if b == u else b
                low[parent] = min(low[parent], low[u])
                if low[u] > disc[parent]:
                    flags[pe] = False  # bridge
    return flags

"""Ring perception: smallest set of smallest rings and ring-bond flags."""

from __future__ import annotations

from collections import deque

from .mol import Adjacency, Molecule, build_adjacency


def ring_subgraph(adj: Adjacency, ring_flags: list[bool]) -> list[list[tuple[int, int]]]:
    """The adjacency restricted to ring bonds; no cycle contains a bridge."""
    return [[(v, bi) for v, bi in nbrs if ring_flags[bi]] for nbrs in adj]


def _shortest_cycle(
    ring_adj: list[list[tuple[int, int]]], a: int, b: int, bi: int
) -> tuple[tuple[int, ...], int]:
    """Atoms from b back to a along the BFS path from a that avoids bond bi,
    and the cycle's bonds as a bitmask."""
    parent = [-1] * len(ring_adj)
    via = [0] * len(ring_adj)  # bond to the BFS parent
    parent[a] = a
    q = deque([a])
    while parent[b] == -1:
        u = q.popleft()
        for v, e in ring_adj[u]:
            if parent[v] == -1 and e != bi:
                parent[v] = u
                via[v] = e
                q.append(v)
    path, edges = [b], 1 << bi
    while path[-1] != a:
        edges |= 1 << via[path[-1]]
        path.append(parent[path[-1]])
    return tuple(path), edges


def sssr(ring_adj: list[list[tuple[int, int]]]) -> list[tuple[int, ...]]:
    """Smallest set of smallest rings of size = cyclomatic number.

    Candidate cycles are the shortest cycle through every ring bond, found
    by BFS from its lower-index end over the ring bonds alone (``ring_adj``,
    from ``ring_subgraph``); they are ranked by (length, atom tuple) and
    greedily accepted while linearly independent over GF(2) on the edge
    space, which makes the result deterministic for a fixed atom numbering.
    """
    ends = {bi: (a, b) for a, nbrs in enumerate(ring_adj) for b, bi in nbrs if a < b}
    candidates: list[tuple[tuple[int, ...], int]] = []
    seen_cycles: set[frozenset[int]] = set()
    for bi in sorted(ends):
        cyc, edges = _shortest_cycle(ring_adj, *ends[bi], bi)
        key = frozenset(cyc)
        if len(key) == len(cyc) and key not in seen_cycles:
            seen_cycles.add(key)
            candidates.append((cyc, edges))

    candidates.sort(key=lambda item: (len(item[0]), tuple(sorted(item[0])), item[0]))

    basis: list[int] = []  # GF(2) edge-set vectors as bitmasks, kept reduced
    chosen: list[tuple[int, ...]] = []
    for cyc, vec in candidates:
        red = vec
        for bv in basis:
            red = min(red, red ^ bv)
        if red == 0:
            continue
        basis.append(red)
        basis.sort(reverse=True)
        chosen.append(_normalize_ring(cyc))
    return chosen


def rings_of(mol: Molecule) -> tuple[tuple[int, ...], ...]:
    """The molecule's SSSR as atom sets that do not depend on atom numbering.

    When no two of ``mol.rings`` share a bond, they serve as they are. Fused
    and bridged systems can have several SSSRs, and which one ``sssr`` keeps
    depends on atom numbering; these take the SSSR found in canonical atom
    order, mapped back to the molecule's atoms. Kept on the molecule.
    """

    def compute():
        ring_bonds = [b for b in mol.bonds if b.in_ring]
        if sum(map(len, mol.rings)) == len(ring_bonds):
            return mol.rings
        order = mol.canonical_order
        position = {atom: k for k, atom in enumerate(order)}
        ends = sorted(sorted((position[b.a], position[b.b])) for b in ring_bonds)
        rings = sssr(build_adjacency(len(order), ends))
        return tuple(tuple(order[k] for k in ring) for ring in rings)

    return mol.derived("rings", compute)


def _normalize_ring(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect a cycle so it starts at its smallest atom, smaller-neighbor first."""
    n = len(cyc)
    start = cyc.index(min(cyc))
    fwd = tuple(cyc[(start + i) % n] for i in range(n))
    rev = tuple(cyc[(start - i) % n] for i in range(n))
    return min(fwd, rev)


def small_cycles(ring_adj: list[list[tuple[int, int]]], max_size: int = 7) -> list[tuple[int, ...]]:
    """Every simple cycle up to max_size atoms, order-normalized.

    Aromaticity candidates must not depend on which same-length rings the
    SSSR tie-breaking happened to keep, so perception enumerates all short
    cycles instead of the ring basis. The walk follows ring bonds only.
    """
    cycles: set[tuple[int, ...]] = set()
    for start in range(len(ring_adj)):
        paths = [(start,)]  # simple paths from start through higher atoms only
        while paths:
            path = paths.pop()
            for nxt, _bi in ring_adj[path[-1]]:
                if nxt > start:
                    if nxt not in path and len(path) < max_size:
                        paths.append(path + (nxt,))
                elif nxt == start and len(path) >= 3:
                    cycles.add(_normalize_ring(path))
    return sorted(cycles, key=lambda c: (len(c), c))


def ring_bond_flags(adj: Adjacency) -> list[bool]:
    """True for every bond that lies on some cycle (i.e. is not a bridge).

    Each bond left out of a BFS spanning forest closes a cycle with the tree
    path between its ends, and every cycle is a sum of these; so the ring
    bonds are the non-tree bonds plus the tree bonds on their paths.
    """
    n_atoms = len(adj)
    parent = [-1] * n_atoms
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
                    parent[v] = u
                    up[v] = k
                    queue.append(v)

    flags = [False] * (sum(map(len, adj)) // 2)
    tree = set(up)
    for a, nbrs in enumerate(adj):
        for b, k in nbrs:
            if a > b or k in tree:
                continue
            flags[k] = True
            x, y = a, b
            while x != y:  # climb from the deeper end until the ends meet
                if depth[x] < depth[y]:
                    x, y = y, x
                flags[up[x]] = True
                x = parent[x]
    return flags

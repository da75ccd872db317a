"""Topological indices over the heavy-atom skeleton: kappa shape indices,
Balaban J, and a Bertz-style complexity index."""

from __future__ import annotations

import math
from collections import deque

from ..chem.mol import AROMATIC, DOUBLE, Molecule, SINGLE, TRIPLE

_BERTZ_ORDER_VALUE = {SINGLE: 1.0, DOUBLE: 2.0, TRIPLE: 3.0, AROMATIC: 1.5}


def _heavy_skeleton(mol: Molecule) -> tuple[list[int], list[tuple[int, int, str]]]:
    heavy = [i for i, a in enumerate(mol.atoms) if a.element != "H"]
    index = {old: new for new, old in enumerate(heavy)}
    edges = [
        (index[b.a], index[b.b], b.order)
        for b in mol.bonds
        if b.a in index and b.b in index
    ]
    return heavy, edges


def heavy_distances(
    mol: Molecule,
) -> tuple[list[int], list[tuple[int, int, str]], list[list[int]]]:
    """Heavy atoms, the heavy-heavy bonds re-indexed over them, and the bond
    count of a shortest path between every pair of heavy atoms (-1 where no
    path joins them)."""
    heavy, edges = _heavy_skeleton(mol)
    adj = _adjacency(len(heavy), edges)
    dist = []
    for start in range(len(heavy)):
        row = [-1] * len(heavy)
        row[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    return heavy, edges, dist


def _adjacency(n: int, edges: list[tuple[int, int, str]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b, _o in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _path_counts(n: int, edges: list[tuple[int, int, str]]) -> tuple[int, int, int]:
    """Counts of simple paths with 1, 2, and 3 edges (each path counted once)."""
    adj = _adjacency(n, edges)
    nbr_sets = [set(a) for a in adj]
    p1 = len(edges)
    p2 = sum(len(a) * (len(a) - 1) // 2 for a in adj)
    p3 = 0
    for b, c, _o in edges:
        p3 += (len(adj[b]) - 1) * (len(adj[c]) - 1) - len(nbr_sets[b] & nbr_sets[c])
    return p1, p2, p3


def kappa_indices(mol: Molecule) -> tuple[float, float, float]:
    """Kier shape indices; degenerate cases (no paths, tiny skeletons) give 0."""
    heavy, edges = _heavy_skeleton(mol)
    a = len(heavy)
    p1, p2, p3 = _path_counts(a, edges)

    k1 = a * (a - 1) ** 2 / p1**2 if p1 > 0 else 0.0
    k2 = (a - 1) * (a - 2) ** 2 / p2**2 if p2 > 0 else 0.0
    if p3 > 0:
        if a % 2 == 1:
            k3 = (a - 1) * (a - 3) ** 2 / p3**2
        else:
            k3 = (a - 3) * (a - 2) ** 2 / p3**2
    else:
        k3 = 0.0
    return float(k1), float(k2), float(max(k3, 0.0))


def balaban_j(mol: Molecule) -> float:
    """Balaban distance-connectivity index, summed over connected components."""
    _heavy, edges, dist = heavy_distances(mol)
    dist_sum = [sum(d for d in row if d > 0) for row in dist]
    # Each component is keyed by its lowest atom index, the first its rows reach.
    root = [next(j for j, d in enumerate(row) if d >= 0) for row in dist]
    comp_edges: dict[int, list[tuple[int, int]]] = {}
    for a, b, _o in edges:
        comp_edges.setdefault(root[a], []).append((a, b))

    return math.fsum(
        len(pairs) / (len(pairs) - root.count(r) + 2.0)
        * math.fsum(1.0 / math.sqrt(dist_sum[a] * dist_sum[b]) for a, b in pairs)
        for r, pairs in comp_edges.items()
    )


def bertz_ct(mol: Molecule) -> float:
    """Complexity index: connectivity term over adjacent-bond-pair classes
    plus an element-distribution term, each 2*N*log2(N) - sum(n_i*log2(n_i))."""
    heavy, edges = _heavy_skeleton(mol)
    n = len(heavy)
    if n == 0:
        return 0.0
    adj_bonds: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, order in edges:
        val = _BERTZ_ORDER_VALUE[order]
        adj_bonds[a].append((b, val))
        adj_bonds[b].append((a, val))
    degree = [len(x) for x in adj_bonds]

    classes: dict[tuple, int] = {}
    for center in range(n):
        incident = adj_bonds[center]
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                (u, vu), (w, vw) = incident[i], incident[j]
                key = (degree[center], tuple(sorted(((degree[u], vu), (degree[w], vw)))))
                classes[key] = classes.get(key, 0) + 1

    def entropy_term(counts: list[int]) -> float:
        total = sum(counts)
        if total == 0:
            return 0.0
        return 2.0 * total * math.log2(total) - math.fsum(c * math.log2(c) for c in counts)

    connectivity = entropy_term(list(classes.values()))

    element_counts: dict[str, int] = {}
    for i in heavy:
        el = mol.atoms[i].element
        element_counts[el] = element_counts.get(el, 0) + 1
    heteroatom = entropy_term(list(element_counts.values()))
    return connectivity + heteroatom

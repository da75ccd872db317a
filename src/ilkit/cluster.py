"""Agglomerative average-linkage clustering over a similarity matrix.

Distances are 1 - similarity. Ties at each merge step break toward the pair
whose clusters contain the lowest original leaf indices, which pins down a
deterministic merge tree and dendrogram leaf order. Distances live in a
dense n x n matrix (O(n^2) memory, numpy passes over length-n rows per merge);
each step takes the exact least key, never a nearest-neighbour chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IlkitError


@dataclass(frozen=True)
class Merge:
    left: int      # cluster id (leaves are 0..n-1, merges get n, n+1, ...)
    right: int
    distance: float
    size: int


@dataclass(frozen=True)
class ClusterResult:
    merges: tuple[Merge, ...]
    leaf_order: tuple[int, ...]


def hierarchical_cluster(matrix: np.ndarray) -> ClusterResult:
    """Cluster items given a symmetric similarity matrix with entries in [0,1]."""
    sim = np.asarray(matrix, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise IlkitError("similarity matrix must be square")
    if not np.allclose(sim, sim.T, rtol=0, atol=1e-12):
        raise IlkitError("similarity matrix must be symmetric")
    if sim.size and (sim.min() < -1e-12 or sim.max() > 1 + 1e-12):
        raise IlkitError("similarity entries must lie in [0, 1]")
    n = sim.shape[0]
    if n == 0:
        return ClusterResult((), ())

    # Slot s holds the live cluster whose lowest leaf is s, so the tie key
    # (distance, lower min-leaf, higher min-leaf) is (distance, row, column)
    # over the upper triangle. Only sim[i, j] with i < j is read; retired
    # slots and the diagonal hold inf.
    upper = np.triu_indices(n, 1)
    dist = np.full((n, n), np.inf)
    dist[upper] = 1.0 - sim[upper]
    # nn[r] is the first column c > r holding row r's minimum nn_d[r]; the
    # first row attaining the least nn_d is then the pair with the least key.
    nn = dist.argmin(axis=1)
    nn_d = dist[np.arange(n), nn]
    dist.T[upper] = dist[upper]

    ids = list(range(n))          # cluster id in each slot
    sizes = [1] * n
    children: list[tuple[int, int]] = []   # of cluster n + k, lower min leaf first
    merges: list[Merge] = []
    for step in range(n - 1):
        a = int(nn_d.argmin())
        b = int(nn[a])
        size = sizes[a] + sizes[b]
        merges.append(Merge(*sorted((ids[a], ids[b])), float(nn_d[a]), size))
        children.append((ids[a], ids[b]))
        # Lance-Williams average linkage (float addition commutes exactly).
        new = (sizes[a] * dist[a] + sizes[b] * dist[b]) / size
        dist[a] = dist[:, a] = new
        dist[b] = dist[:, b] = np.inf
        ids[a], sizes[a] = n + step, size
        nn[b], nn_d[b] = -1, np.inf

        # Rows above a see the new column a: take it where it is now the
        # first minimum. Rows whose minimum sat at a (and grew) or at b
        # rescan; row a is one of them, as its minimum sat at b.
        head = new[:a]
        take = (head < nn_d[:a]) | ((head == nn_d[:a]) & (nn[:a] >= a))
        stale = (nn[:b] == a) | (nn[:b] == b)
        stale[:a] &= ~take
        nn[:a][take] = a
        nn_d[:a][take] = head[take]
        rows = np.flatnonzero(stale)
        block = np.where(np.arange(n) > rows[:, None], dist[rows], np.inf)
        nn[rows] = block.argmin(axis=1)
        nn_d[rows] = block.min(axis=1)

    # Leaf order: the child holding the lower minimum leaf goes first.
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        cid = stack.pop()
        if cid < n:
            order.append(cid)
        else:
            stack += reversed(children[cid - n])
    return ClusterResult(tuple(merges), tuple(order))

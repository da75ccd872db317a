"""Average-linkage references.

``oracle_average_linkage`` recomputes every cluster distance from the
original matrix at every step instead of using update formulas; its means
can differ from incremental values by an ulp, so it cannot judge ties.
``reference_lance_williams`` is the plain-loop form of the incremental
algorithm and must match the library exactly, ties included."""

from __future__ import annotations

import numpy as np


def oracle_average_linkage(similarity: np.ndarray):
    """Merge list [(left_id, right_id, distance, size)] with scipy-style ids."""
    n = similarity.shape[0]
    dist = 1.0 - np.asarray(similarity, dtype=float)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        ids = sorted(clusters)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                members_a, members_b = clusters[a], clusters[b]
                d = float(
                    np.mean([dist[x, y] for x in members_a for y in members_b])
                )
                key = (d, min(min(members_a), min(members_b)), max(min(members_a), min(members_b)))
                if best is None or key < best[0]:
                    best = (key, a, b, d)
        _key, a, b, d = best
        merges.append((a, b, d, len(clusters[a]) + len(clusters[b])))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


def reference_lance_williams(similarity: np.ndarray):
    """Pure-Python average linkage with incremental Lance-Williams updates.

    Returns ``(merges, leaf_order)`` with merges as ``(left_id, right_id,
    distance, size)``. Every step scans all live pairs for the least key
    (distance, lower min-leaf, higher min-leaf) and a merged cluster's
    distance to k is ``(size_left * d(left, k) + size_right * d(right, k))
    / size``, so merge distances are exactly those of an implementation
    doing the same float64 operations. Reads only cells (i, j) with i < j.
    """
    sim = np.asarray(similarity, dtype=float)
    n = sim.shape[0]
    if n == 0:
        return [], ()
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = 1.0 - sim[i, j]

    # id -> (size, min original leaf)
    active: dict[int, tuple[int, int]] = {i: (1, i) for i in range(n)}
    children: dict[int, tuple[int, int]] = {}
    merges = []
    next_id = n

    def pair_key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    while len(active) > 1:
        # (id, min leaf) in id order, so every scanned pair has i < j. Min
        # leaves are distinct, so the trailing ids never decide the minimum.
        live = [(i, active[i][1]) for i in sorted(active)]
        *_key, i, j = min(
            (dist[i, j], min(li, lj), max(li, lj), i, j)
            for ai, (i, li) in enumerate(live)
            for j, lj in live[ai + 1:]
        )
        d_ij = dist[pair_key(i, j)]
        size_i, min_i = active[i]
        size_j, min_j = active[j]
        new_size = size_i + size_j
        merges.append((i, j, d_ij, new_size))
        children[next_id] = (i, j)
        for k in [x for x in active if x not in (i, j)]:
            d_new = (
                size_i * dist[pair_key(i, k)] + size_j * dist[pair_key(j, k)]
            ) / new_size
            dist[pair_key(next_id, k)] = d_new
        del active[i], active[j]
        active[next_id] = (new_size, min(min_i, min_j))
        next_id += 1

    def leaves(cid: int) -> list[int]:
        if cid < n:
            return [cid]
        left, right = children[cid]
        left_leaves = leaves(left)
        right_leaves = leaves(right)
        if min(left_leaves) <= min(right_leaves):
            return left_leaves + right_leaves
        return right_leaves + left_leaves

    return merges, tuple(leaves(next_id - 1))

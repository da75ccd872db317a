"""Reference heavy-atom distances: one BFS per heavy atom over the molecule,
the routine the atom-pair fingerprint used before it shared
``ilkit.descriptors.topology.heavy_distances``."""

from __future__ import annotations

from collections import deque


def _topological_distances(mol, heavy: list[int]) -> dict[tuple[int, int], int]:
    heavy_set = set(heavy)
    out: dict[tuple[int, int], int] = {}
    for start in heavy:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _bi in mol.neighbors(u):
                if v in heavy_set and v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        for target, d in seen.items():
            if start < target:
                out[(start, target)] = d
    return out

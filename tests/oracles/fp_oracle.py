"""Reference fingerprint identifiers: the splitmix64 fold with one ``mix64``
call per value, and the circular and atom-pair identifier routines that
hashed every atom pair separately, frozen as they stood before ``combine``
ran the mixing steps inline and atom pairs hashed each distinct key once.
``ilkit.fingerprints`` must give the same identifier sets, and so the same
folded bits, on every molecule."""

from __future__ import annotations

from ilkit.chem.elements import atomic_number
from ilkit.chem.mol import AROMATIC, BOND_CODE, DOUBLE, SINGLE, TRIPLE
from ilkit.descriptors.topology import heavy_distances

_MASK = (1 << 64) - 1
SEED = 0x1109_2001_C0FF_EE00
_PI_BONDS = {SINGLE: 0, DOUBLE: 1, TRIPLE: 2, AROMATIC: 1}
_DISTANCE_CAP = 30


def mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def combine(values, seed: int = SEED) -> int:
    h = seed & _MASK
    for v in values:
        h = mix64(h ^ (v & _MASK))
    return h


def _initial_invariants(mol) -> list[int]:
    ring_atoms = set()
    for bond in mol.bonds:
        if bond.in_ring:
            ring_atoms.add(bond.a)
            ring_atoms.add(bond.b)
    return [
        combine((atomic_number(atom.element), atom.formal_charge, mol.degree(i),
                 atom.total_h, int(atom.aromatic), int(i in ring_atoms)))
        for i, atom in enumerate(mol.atoms)
    ]


def ecfp_identifiers(mol, radius: int) -> set[int]:
    ids: set[int] = set()
    invariants = _initial_invariants(mol)
    ids.update(invariants)
    coverage: list[frozenset[int]] = [frozenset() for _ in mol.atoms]
    seen_envs: set[frozenset[int]] = {frozenset()}
    current = list(invariants)
    for layer in range(1, radius + 1):
        new_inv = []
        new_cov = []
        for i in range(len(mol.atoms)):
            nbrs = sorted(
                (BOND_CODE[mol.bonds[bi].order], current[j]) for j, bi in mol.neighbors(i)
            )
            new_inv.append(combine([layer, current[i]] + [v for pair in nbrs for v in pair]))
            cov = set(coverage[i])
            for j, bi in mol.neighbors(i):
                cov.add(bi)
                cov |= coverage[j]
            new_cov.append(frozenset(cov))
        current = new_inv
        coverage = new_cov
        fresh: dict[frozenset[int], int] = {}
        for i in range(len(mol.atoms)):
            if coverage[i] in seen_envs:
                continue
            prev = fresh.get(coverage[i])
            if prev is None or current[i] < prev:
                fresh[coverage[i]] = current[i]
        for cov, ident in fresh.items():
            seen_envs.add(cov)
            ids.add(ident)
    return ids


def atom_pair_identifiers(mol) -> set[int]:
    heavy, edges, dist = heavy_distances(mol)
    heavy_deg = [0] * len(heavy)
    pi_bonds = [0] * len(heavy)
    for a, b, order in edges:
        for i in (a, b):
            heavy_deg[i] += 1
            pi_bonds[i] += _PI_BONDS[order]
    types = [
        combine((atomic_number(mol.atoms[i].element), heavy_deg[k], pi_bonds[k]))
        for k, i in enumerate(heavy)
    ]
    ids: set[int] = set()
    for a in range(len(heavy)):
        for b in range(a + 1, len(heavy)):
            d = dist[a][b]
            if d < 0:
                continue
            t1, t2 = sorted((types[a], types[b]))
            ids.add(combine((t1, t2, min(d, _DISTANCE_CAP))))
    return ids


def folded_hex(ids: set[int], nbits: int) -> str:
    mask = 0
    for ident in ids:
        mask |= 1 << (ident % nbits)
    return format(mask, f"0{nbits // 4}x")

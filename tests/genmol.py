"""Seeded random molecule generator for property-style tests.

Builds valence-correct graphs directly (random trees plus ring closures,
bond-order upgrades, occasional stereo marks and chiral centers) and relies
on ilkit.chem.from_graph to run the normal perception pipeline.
"""

from __future__ import annotations

import random

from ilkit.chem import from_graph

_ELEMENTS = ["C"] * 10 + ["N", "N", "O", "O", "S", "F", "Cl"]
_FREE_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1}

# Charged/aromatic coverage comes from these hand-written encodings; the
# random graphs exercise chains, rings, multiple bonds, and stereo.
CURATED_SMILES = [
    "CCO", "c1ccccc1", "C1=CC=CC=C1", "Cc1ccccc1", "c1ccncc1", "c1cc[nH]c1",
    "c1ccc2ccccc2c1", "c1ccc(-c2ccccc2)cc1", "CC(C)(C)C", "C1CC1",
    "C1CCC2(CC1)CCCC2", "FC(F)(F)c1ccc(Cl)cc1", "C/C=C/C", "C/C=C\\C",
    "C/C=C/C=C/C", "F/C(Cl)=C/Br", "C[C@H](O)C(=O)[O-]", "N#Cc1ccccc1",
    "O=C=O", "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F", "CCCCn1cc[n+](C)c1",
    "CCn1cc[n+](C)c1", "OCCn1cc[nH+]c1", "CC[P+](CCCC)(CCCC)CCCC",
    "CCCCCCCC[N+]12CCC(CC1)CC2", "N#C[B-](C#N)(C#N)C#N", "N#C[N-]C#N",
    "N#C[C-](C#N)C#N", "[S-]C#N", "CCOP(=O)([O-])OCC", "CC(=O)NC",
    "CC(=O)OCC", "O.CCO", "CCO.CCO", "c1ccc(O)cc1", "NCC(=O)O",
]

# Highly symmetric molecules and ions: large automorphism groups exercise
# the pruned tie-breaking of canonicalization.
SYMMETRIC_PANEL = {
    "NTf2": "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F",
    "BETI": "O=S(=O)(C(F)(F)C(F)(F)F)[N-]S(=O)(=O)C(F)(F)C(F)(F)F",
    "N8888": "CCCCCCCC[N+](CCCCCCCC)(CCCCCCCC)CCCCCCCC",
    "P66614": "CCCCCCCCCCCCCC[P+](CCCCCC)(CCCCCC)CCCCCC",
    "neopentane": "CC(C)(C)C",
    "tetramethylbutane": "CC(C)(C)C(C)(C)C",
    "cubane": "C12C3C4C1C5C2C3C45",
    "adamantane": "C1C2CC3CC1CC(C2)C3",
    "benzene": "c1ccccc1",
    "SbF6": "F[Sb-](F)(F)(F)(F)F",
    "hexahydroxyethane": "OC(O)(O)C(O)(O)O",
}

# Hexacoordinate anions of anionic P and As.
HYPERVALENT_ANIONS = {
    "PF6": "F[P-](F)(F)(F)(F)F",
    "AsF6": "F[As-](F)(F)(F)(F)F",
    "FAP": "FC(F)(F)C(F)(F)[P-](F)(F)(F)(C(F)(F)C(F)(F)F)C(F)(F)C(F)(F)F",
}


def random_molecule(rng: random.Random, max_heavy: int = 12):
    n = rng.randint(1, max_heavy)
    elements = [rng.choice(_ELEMENTS)]
    free = [_FREE_VALENCE[elements[0]]]
    bonds: list[list] = []
    edge_set: set[tuple[int, int]] = set()

    for i in range(1, n):
        hosts = [j for j in range(i) if free[j] >= 1]
        if not hosts:
            break
        parent = rng.choice(hosts)
        el = rng.choice(_ELEMENTS)
        elements.append(el)
        free.append(_FREE_VALENCE[el])
        bonds.append([parent, len(elements) - 1, "single", None])
        edge_set.add((parent, len(elements) - 1))
        free[parent] -= 1
        free[-1] -= 1

    n_now = len(elements)

    # Ring closures between non-adjacent atoms with spare valence.
    for _ in range(rng.randint(0, 2)):
        options = [
            (a, b)
            for a in range(n_now)
            for b in range(a + 2, n_now)
            if free[a] >= 1 and free[b] >= 1 and (a, b) not in edge_set
        ]
        if not options:
            break
        a, b = rng.choice(options)
        bonds.append([a, b, "single", None])
        edge_set.add((a, b))
        free[a] -= 1
        free[b] -= 1

    ring_edges = _ring_edges(n_now, [(b[0], b[1]) for b in bonds])

    # Upgrade some bonds to double/triple where valence allows.
    for bond in bonds:
        a, b = bond[0], bond[1]
        if free[a] >= 2 and free[b] >= 2 and (a, b) not in ring_edges and rng.random() < 0.10:
            bond[2] = "triple"
            free[a] -= 2
            free[b] -= 2
        elif free[a] >= 1 and free[b] >= 1 and rng.random() < 0.22:
            bond[2] = "double"
            free[a] -= 1
            free[b] -= 1

    degree = [0] * n_now
    for a, b, _o, _s in bonds:
        degree[a] += 1
        degree[b] += 1

    # Stereo on acyclic double bonds whose ends each have exactly one other
    # heavy neighbor reached through a single bond.
    def only_other_bond_is_single(end: int, skip: tuple[int, int]) -> bool:
        others = [b for b in bonds if end in (b[0], b[1]) and (b[0], b[1]) != skip]
        return len(others) == 1 and others[0][2] == "single"

    for bond in bonds:
        a, b = bond[0], bond[1]
        if bond[2] != "double" or (a, b) in ring_edges:
            continue
        if (
            only_other_bond_is_single(a, (a, b))
            and only_other_bond_is_single(b, (a, b))
            and rng.random() < 0.5
        ):
            bond[3] = rng.choice(["cis", "trans"])

    atoms = [{"element": el} for el in elements]

    # A few chiral centers on saturated carbons.
    for i, el in enumerate(elements):
        if el != "C" or degree[i] < 3:
            continue
        orders = [o for a, b, o, _s in bonds if i in (a, b)]
        if any(o != "single" for o in orders):
            continue
        if rng.random() < 0.3:
            atoms[i] = {
                "element": "C",
                "explicit_h": 4 - degree[i],
                "chirality": rng.choice(["@", "@@"]),
            }

    return from_graph(atoms, [tuple(b) for b in bonds])


def _ring_edges(n: int, edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges on a cycle, via DFS bridge detection (recursive; graphs are tiny)."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for k, (a, b) in enumerate(edges):
        adj[a].append((b, k))
        adj[b].append((a, k))
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = [0]

    def dfs(u: int, pe: int) -> None:
        disc[u] = low[u] = timer[0]
        timer[0] += 1
        for v, k in adj[u]:
            if k == pe:
                continue
            if disc[v] == -1:
                dfs(v, k)
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    bridges.add(k)
            else:
                low[u] = min(low[u], disc[v])

    for s in range(n):
        if disc[s] == -1:
            dfs(s, -1)
    return {tuple(sorted(edges[k])) for k in range(len(edges)) if k not in bridges}


def corpus(seed: int, size: int, max_heavy: int = 12):
    """Deterministic mixed corpus: every curated SMILES plus random graphs."""
    from ilkit.chem import parse_smiles

    rng = random.Random(seed)
    mols = [parse_smiles(s) for s in CURATED_SMILES]
    while len(mols) < size:
        mols.append(random_molecule(rng, max_heavy))
    return mols[:size]

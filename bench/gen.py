"""Seeded input generation for the benchmark workloads.

Run as its own process so that nothing it computes (parsed molecules,
descriptor caches, fingerprints) is warm in the measured process:

    python3 bench/gen.py --workload screen --seed 1 --out DIR [--size small]

The measured program sees only the files written to DIR. The same seed
always writes the same bytes; another seed writes other molecules.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

from ilkit.chem import canonicalize, from_graph, parse_smiles, write_smiles
from ilkit.datasets import SystemRecord, build_pseudo_labels, save_records
from ilkit.errors import IlkitError
from ilkit.fingerprints import ecfp, tanimoto
from ilkit.predictor import save_model, train_ridge
from workloads import PROPERTY, SEARCH_FLOOR, TEMPERATURE

# Element mix and free valences for the random-graph generator. Charged and
# aromatic species come from the fixture ions instead.
_ELEMENTS = ("C",) * 10 + ("N", "N", "O", "O", "S", "F", "Cl")
_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1}

# Symmetric and hypervalent ions that stress canonicalization and the
# valence table (N8888+, PF6-, FAP-, tetra-tert-butylmethane); NTf2-, BETI-
# and P66614+ are already fixture ions.
PANEL = (
    ("N8888", "CCCC[N+](CCCC)(CCCC)CCCC"),
    ("PF6", "F[P-](F)(F)(F)(F)F"),
    ("FAP", "FC(F)(F)C(F)(F)[P-](F)(F)(F)(C(F)(F)C(F)(F)F)C(F)(F)C(F)(F)F"),
    ("tBu4", "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"),
)

SIZES = {
    "full": {"pool": 400, "seeds": 16, "records": 2000, "mols": 300},
    "small": {"pool": 40, "seeds": 4, "records": 1000, "mols": 24},
}


def fixture_ions(root: Path) -> list[tuple[str, str]]:
    """(name, SMILES) pairs from the bundled ion list."""
    out = []
    for line in (root / "src" / "ilkit" / "data" / "ions.smi").read_text().splitlines():
        if line.strip():
            smiles, name = line.split()
            out.append((name, smiles))
    return out


def random_molecule(rng: random.Random, max_heavy: int):
    """A random valence-correct graph: a tree, up to two ring closures, then
    some double and triple bonds."""
    elements = [rng.choice(_ELEMENTS)]
    free = [_VALENCE[elements[0]]]
    bonds: list[list] = []
    for _ in range(rng.randint(1, max_heavy) - 1):
        hosts = [i for i, f in enumerate(free) if f > 0]
        if not hosts:
            break
        host = rng.choice(hosts)
        element = rng.choice(_ELEMENTS)
        elements.append(element)
        free.append(_VALENCE[element] - 1)
        free[host] -= 1
        bonds.append([host, len(elements) - 1, "single"])
    for _ in range(rng.randint(0, 2)):
        pairs = {(a, b) for a, b, _o in bonds}
        options = [
            (a, b)
            for a in range(len(elements))
            for b in range(a + 2, len(elements))
            if free[a] > 0 and free[b] > 0 and (a, b) not in pairs
        ]
        if not options:
            break
        a, b = rng.choice(options)
        bonds.append([a, b, "single"])
        free[a] -= 1
        free[b] -= 1
    for bond in bonds:
        a, b = bond[0], bond[1]
        roll = rng.random()
        if roll < 0.05 and free[a] >= 2 and free[b] >= 2:
            bond[2] = "triple"
            free[a] -= 2
            free[b] -= 2
        elif roll < 0.25 and free[a] >= 1 and free[b] >= 1:
            bond[2] = "double"
            free[a] -= 1
            free[b] -= 1
    return from_graph([{"element": e} for e in elements], [tuple(b) for b in bonds])


def respell(smiles: str, rng: random.Random) -> str:
    """The same molecule written from a random atom order."""
    mol = parse_smiles(smiles)
    order = list(range(len(mol.atoms)))
    rng.shuffle(order)
    return write_smiles(mol, order)


def screening_pool(rng: random.Random, size: int, anions: list[str]) -> list[str]:
    """Alkyl chains with one substituent, then random molecules of at most
    10 heavy atoms, then the fixture anions; deduplicated by ECFP bits."""
    seen: set[int] = set()
    pool: list[str] = []

    def admit(smiles: str) -> None:
        smiles = canonicalize(smiles)
        bits = ecfp(parse_smiles(smiles)).bits
        if bits not in seen:
            seen.add(bits)
            pool.append(smiles)

    for _ in range(max(5, size // 15)):
        chain = "C" * rng.randint(5, 12)
        sub = rng.choice(["O", "N", "S", "Cl", ""])
        pos = rng.randint(1, len(chain) - 1)
        admit(chain[:pos] + (f"({sub})" if sub else "") + chain[pos:])
    while len(pool) < size - len(anions):
        try:
            admit(random_molecule(rng, 10).canonical_smiles)
        except IlkitError:
            continue
    for anion in anions:
        admit(anion)
    return pool


def gen_screen(out: Path, seed: int, size: dict, root: Path) -> None:
    rng = random.Random(seed)
    ions = fixture_ions(root)
    cations = [canonicalize(s) for name, s in ions if name.endswith("_cation")]
    anions = [s for name, s in ions if name.endswith("_anion")]
    pool = screening_pool(rng, size["pool"], anions)
    solute = canonicalize("O=C=O")

    # Ridge model over a planted linear target, fitted on ion pairs that
    # cover part of the pool.
    train = [
        SystemRecord("il_solute", cation=c, anion=a, solute=solute,
                     temperature=TEMPERATURE, property=PROPERTY, value=0.0)
        for c in cations
        for a in rng.sample(pool, min(40, len(pool)))
    ]
    X = np.array([build_pseudo_labels(r) for r in train])
    w = np.random.Generator(np.random.PCG64(seed)).normal(size=X.shape[1]) * 0.05
    save_model(train_ridge(X, X @ w + 0.1, 1.0, PROPERTY), out / "model.json")

    # Seed anions need a pool neighbour at the similarity floor; without
    # one, beam_search rejects the seed by design.
    fps = {s: ecfp(parse_smiles(s)) for s in pool}
    eligible = [
        s for s in pool
        if any(t != s and tanimoto(fps[s], fps[t]) >= SEARCH_FLOOR for t in pool)
    ]
    pairs = [(c, a) for c in cations for a in eligible]
    rng.shuffle(pairs)
    seeds = [
        SystemRecord("il_solute", cation=c, anion=a, solute=solute, temperature=TEMPERATURE)
        for c, a in pairs[: size["seeds"]]
    ]
    save_records(seeds, out / "seeds.csv")
    (out / "pool.smi").write_text("".join(s + "\n" for s in pool))


# Criterion-10 style pools: 30 imidazolium cations, 25 carboxylate and
# sulfonate anions, 15 neutral solutes.
CV_CATIONS = [f"CC{'C' * i}n1cc[n+](C{'C' * (i % 3)})c1" for i in range(30)]
CV_ANIONS = [f"{'C' * i}CC(=O)[O-]" for i in range(13)] + [
    f"{'C' * i}CS(=O)(=O)[O-]" for i in range(12)
]
CV_SOLUTES = ["O=C=O", "N", "CCO", "CCC", "CC(C)O", "c1ccccc1", "CCN", "CS",
              "CCCl", "C1CC1", "CC=C", "C#N", "CCOC", "CC(C)=O", "CCBr"]


def gen_ingest_cv(out: Path, seed: int, size: dict, root: Path) -> None:
    rng = random.Random(seed)
    cations = [canonicalize(s) for s in CV_CATIONS]
    anions = [canonicalize(s) for s in CV_ANIONS]
    solutes = [canonicalize(s) for s in CV_SOLUTES]
    triples = rng.sample(
        [(c, a, s) for c in cations for a in anions for s in solutes], size["records"]
    )
    canonical = [
        SystemRecord("il_solute", cation=c, anion=a, solute=s,
                     temperature=TEMPERATURE, property=PROPERTY)
        for c, a, s in triples
    ]
    X = np.array([build_pseudo_labels(r) for r in canonical])
    w = np.random.Generator(np.random.PCG64(seed)).normal(size=X.shape[1]) * 0.05
    y = X @ w + 0.1
    written = []
    for rec, value in zip(canonical, y):
        cation, anion = rec.cation, rec.anion
        if rng.random() < 0.5:
            cation, anion = respell(cation, rng), respell(anion, rng)
        written.append(SystemRecord("il_solute", cation=cation, anion=anion, solute=rec.solute,
                                    temperature=TEMPERATURE, property=PROPERTY,
                                    value=float(value)))
    save_records(written, out / "records.csv")
    (out / "expected_roles.txt").write_text(
        "".join(f"{c} {a} {s}\n" for c, a, s in triples)
    )


def gen_similarity(out: Path, seed: int, size: dict, root: Path) -> None:
    """Distinct random molecules (at most 14 heavy atoms), the fixture ions
    and the panel, each written from a random atom order."""
    rng = random.Random(seed)
    seen: set[str] = set()
    lines = []
    while len(lines) < size["mols"]:
        try:
            mol = random_molecule(rng, 14)
            key = mol.canonical_smiles
        except IlkitError:
            continue
        if key in seen:
            continue
        seen.add(key)
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        lines.append(f"{write_smiles(mol, order)} rand{len(lines)}")
    for name, smiles in fixture_ions(root) + list(PANEL):
        try:
            smiles = respell(smiles, rng)
        except IlkitError:
            pass  # unparsable today; kept verbatim so the failure stays visible
        lines.append(f"{smiles} {name}")
    rng.shuffle(lines)
    (out / "mols.smi").write_text("".join(line + "\n" for line in lines))


GENERATORS = {"screen": gen_screen, "ingest_cv": gen_ingest_cv, "similarity": gen_similarity}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--root", default=".", help="checkout holding src/ilkit")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](out, args.seed, SIZES[args.size], Path(args.root))
    (out / "meta.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "size": args.size}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())

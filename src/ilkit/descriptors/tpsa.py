"""Topological polar surface area from N/O fragment contributions."""

from __future__ import annotations

import math

from ..chem.mol import AROMATIC, DOUBLE, Molecule, SINGLE, TRIPLE
from ..chem.rings import rings_of
from .tables import tpsa_table


def _fragment_label(mol: Molecule, idx: int) -> str | None:
    atom = mol.atoms[idx]
    if atom.element not in ("N", "O"):
        return None
    s = d = t = a = 0
    for _j, bi in mol.neighbors(idx):
        order = mol.bonds[bi].order
        if order == SINGLE:
            s += 1
        elif order == DOUBLE:
            d += 1
        elif order == TRIPLE:
            t += 1
        elif order == AROMATIC:
            a += 1
    h = atom.total_h
    q = atom.formal_charge
    in3 = any(len(r) == 3 and idx in r for r in rings_of(mol))

    sym = atom.element.lower() if atom.aromatic else atom.element
    if q > 0:
        sym += "p"
    elif q < 0:
        sym += "m"
    if h:
        sym += f"H{h}"
    bonds_part = ""
    for label, count in (("s", s), ("d", d), ("t", t), ("a", a)):
        if count:
            bonds_part += f"{label}{count}"
    label = f"{sym}_{bonds_part}" if bonds_part else sym
    if in3:
        ringed = f"{label}_r3"
        if ringed in tpsa_table():
            return ringed
    return label


def _fallback(mol: Molecule, idx: int) -> float:
    """Generic contribution for N/O environments outside the fragment table."""
    atom = mol.atoms[idx]
    x = mol.degree(idx) + atom.total_h
    if atom.element == "N":
        return max(0.0, 30.5 - x * 8.2 + atom.total_h * 1.5)
    return max(0.0, 28.5 - x * 8.6 + atom.total_h * 1.5)


def tpsa(mol: Molecule) -> float:
    """Polar surface area in A^2 (nitrogen and oxygen contributions only)."""
    table = tpsa_table()
    labels = ((idx, _fragment_label(mol, idx)) for idx in range(len(mol.atoms)))
    return math.fsum(
        table[label] if label in table else _fallback(mol, idx)
        for idx, label in labels
        if label is not None
    )

"""The 21 physicochemical descriptors used for pseudo-labels and baselines.

Every float sum runs through ``math.fsum``, which rounds exactly once, and
ring counts read ``rings_of``, so a molecule's descriptors have the same bits
whatever its atom order.

Field order (also the CSV column order) follows the canonical listing:
hydrogen-bond donors and acceptors, rotatable bonds, polar surface area,
stereocenters, Crippen logP and molar refractivity, sp3 carbon fraction,
ring counts (total / hetero / aromatic / aromatic-hetero), spiro atoms,
molecular weight, heteroatoms, heavy atoms, the three kappa shape indices,
Balaban J, and the Bertz complexity index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ..chem.elements import atomic_weight
from ..chem.mol import DOUBLE, Molecule, SINGLE
from ..chem.rings import rings_of
from .crippen import crippen_atom_types, crippen_logp_mr
from .topology import balaban_j, bertz_ct, kappa_indices
from .tpsa import tpsa

@dataclass(frozen=True)
class DescriptorVector:
    hbd: int
    hba: int
    rotatable_bonds: int
    tpsa: float
    stereocenters: int
    logp: float
    molar_refractivity: float
    frac_csp3: float
    ring_count: int
    heterocycles: int
    aromatic_rings: int
    aromatic_heterocycles: int
    spiro_atoms: int
    mol_weight: float
    heteroatoms: int
    heavy_atoms: int
    kappa1: float
    kappa2: float
    kappa3: float
    balaban_j: float
    bertz_ct: float

    def as_list(self) -> list[float]:
        return [float(getattr(self, name)) for name in DESCRIPTOR_NAMES]


DESCRIPTOR_NAMES = tuple(f.name for f in fields(DescriptorVector))


def _is_sp3_carbon(mol: Molecule, idx: int) -> bool:
    atom = mol.atoms[idx]
    if atom.element != "C" or atom.aromatic:
        return False
    return all(mol.bonds[bi].order == SINGLE for _j, bi in mol.neighbors(idx))


def _heavy_degree(mol: Molecule, idx: int) -> int:
    return sum(1 for j, _bi in mol.neighbors(idx) if mol.atoms[j].element != "H")


def count_hbd(mol: Molecule) -> int:
    """N/O atoms carrying at least one hydrogen."""
    return sum(1 for a in mol.atoms if a.element in ("N", "O") and a.total_h >= 1)


def count_hba(mol: Molecule) -> int:
    """All N/O atoms."""
    return sum(1 for a in mol.atoms if a.element in ("N", "O"))


def count_rotatable_bonds(mol: Molecule) -> int:
    """Non-ring single bonds between heavy atoms of heavy-degree >= 2,
    excluding amide C-N bonds."""
    count = 0
    for bond in mol.bonds:
        if bond.order != SINGLE or bond.in_ring:
            continue
        a, b = mol.atoms[bond.a], mol.atoms[bond.b]
        if a.element == "H" or b.element == "H":
            continue
        if _heavy_degree(mol, bond.a) < 2 or _heavy_degree(mol, bond.b) < 2:
            continue
        if _is_amide_cn(mol, bond.a, bond.b) or _is_amide_cn(mol, bond.b, bond.a):
            continue
        count += 1
    return count


def _is_amide_cn(mol: Molecule, c_idx: int, n_idx: int) -> bool:
    if mol.atoms[c_idx].element != "C" or mol.atoms[n_idx].element != "N":
        return False
    for j, bi in mol.neighbors(c_idx):
        if mol.bonds[bi].order == DOUBLE and mol.atoms[j].element == "O":
            return True
    return False


def count_stereocenters(mol: Molecule) -> int:
    """Atoms carrying an explicit tetrahedral mark."""
    return sum(1 for a in mol.atoms if a.chirality)


def count_spiro_atoms(mol: Molecule) -> int:
    """Atoms in >= 2 rings whose containing rings pairwise share only that atom."""
    count = 0
    for idx in range(len(mol.atoms)):
        containing = [set(r) for r in rings_of(mol) if idx in r]
        if len(containing) < 2:
            continue
        spiro = all(
            containing[i] & containing[j] == {idx}
            for i in range(len(containing))
            for j in range(i + 1, len(containing))
        )
        if spiro:
            count += 1
    return count


def frac_csp3(mol: Molecule) -> float:
    carbons = [i for i, a in enumerate(mol.atoms) if a.element == "C"]
    if not carbons:
        return 0.0
    return sum(1 for i in carbons if _is_sp3_carbon(mol, i)) / len(carbons)


def mol_weight(mol: Molecule) -> float:
    """Sum of standard atomic weights, hydrogens included; isotopes use
    their mass number."""
    h_weight = atomic_weight("H")
    heavy = [a.isotope if a.isotope is not None else atomic_weight(a.element) for a in mol.atoms]
    return math.fsum(heavy + [a.total_h * h_weight for a in mol.atoms])


def compute_descriptors(mol: Molecule) -> DescriptorVector:
    """All 21 descriptors for one molecule; pure and deterministic."""
    logp, mr = crippen_logp_mr(mol)
    k1, k2, k3 = kappa_indices(mol)
    rings = rings_of(mol)
    hetero = [any(mol.atoms[i].element != "C" for i in r) for r in rings]
    aromatic = [all(mol.atoms[i].aromatic for i in r) for r in rings]
    return DescriptorVector(
        hbd=count_hbd(mol),
        hba=count_hba(mol),
        rotatable_bonds=count_rotatable_bonds(mol),
        tpsa=tpsa(mol),
        stereocenters=count_stereocenters(mol),
        logp=logp,
        molar_refractivity=mr,
        frac_csp3=frac_csp3(mol),
        ring_count=len(rings),
        heterocycles=sum(hetero),
        aromatic_rings=sum(aromatic),
        aromatic_heterocycles=sum(h and a for h, a in zip(hetero, aromatic)),
        spiro_atoms=count_spiro_atoms(mol),
        mol_weight=mol_weight(mol),
        heteroatoms=sum(1 for a in mol.atoms if a.element not in ("C", "H")),
        heavy_atoms=sum(1 for a in mol.atoms if a.element != "H"),
        kappa1=k1,
        kappa2=k2,
        kappa3=k3,
        balaban_j=balaban_j(mol),
        bertz_ct=bertz_ct(mol),
    )


__all__ = [
    "DESCRIPTOR_NAMES",
    "DescriptorVector",
    "compute_descriptors",
    "crippen_logp_mr",
    "crippen_atom_types",
    "kappa_indices",
    "balaban_j",
    "bertz_ct",
    "tpsa",
    "count_hbd",
    "count_hba",
    "count_rotatable_bonds",
    "count_stereocenters",
    "count_spiro_atoms",
    "frac_csp3",
    "mol_weight",
]

"""Wildman-Crippen logP and molar refractivity.

Each heavy atom (and each of its hydrogens) is assigned one of the published
atom types by structural rules evaluated in the publication's order, then
logP and MR are exactly rounded sums of the tabulated contributions.
"""

from __future__ import annotations

import math

from ..chem.mol import AROMATIC, DOUBLE, Molecule, SINGLE, TRIPLE
from ..errors import DescriptorError
from .tables import crippen_table

_HALOGENS = ("F", "Cl", "Br", "I")
_HETERO_FOR_C = ("N", "O", "P", "S", "F", "Cl", "Br", "I")
# Post-transition metals and metalloids grouped as "Me2" in the publication.
_ME2 = ("B", "Si", "As", "Se", "Al", "Ga", "Ge", "In", "Sn", "Sb", "Te", "Tl", "Pb", "Bi")
_ME1 = (
    "Li", "Na", "K", "Rb", "Cs", "Be", "Mg", "Ca", "Sr", "Ba",
    "Ti", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn", "Zr", "Mo",
    "Ru", "Rh", "Pd", "Ag", "Cd", "W", "Pt", "Au", "Hg",
)


class _Env:
    """Pre-digested bonding environment of one atom."""

    __slots__ = ("idx", "atom", "nbrs", "single", "double", "triple", "arom", "n_heavy", "h")

    def __init__(self, mol: Molecule, idx: int):
        self.idx = idx
        self.atom = mol.atoms[idx]
        self.nbrs: list[tuple] = []  # (atom, order, index) per heavy neighbor
        self.single: list = []
        self.double: list = []
        self.triple: list = []
        self.arom: list = []
        for j, bi in mol.neighbors(idx):
            other = mol.atoms[j]
            order = mol.bonds[bi].order
            self.nbrs.append((other, order, j))
            {SINGLE: self.single, DOUBLE: self.double,
             TRIPLE: self.triple, AROMATIC: self.arom}[order].append(other)
        self.n_heavy = len(self.nbrs)
        self.h = self.atom.total_h


def _is_aliph(atom) -> bool:
    return not atom.aromatic


def _carbon_type(mol: Molecule, env: _Env) -> str:
    a = env.atom
    h, n = env.h, env.n_heavy
    if a.aromatic:
        exo = [(x, order) for x, order, _j in env.nbrs if order != AROMATIC]
        if h == 0 and any(
            order == SINGLE and _is_aliph(x) and x.element not in _HETERO_FOR_C + ("C",)
            for x, order in exo
        ):
            return "C13"
        for hal, code in zip(_HALOGENS, ("C14", "C15", "C16", "C17")):
            if any(x.element == hal for x, _ in exo):
                return code
        if h >= 1:
            return "C18"
        if len(env.arom) >= 3:
            return "C19"
        for x, order in exo:
            if order == SINGLE:
                if x.aromatic:
                    return "C20"
                if x.element == "C":
                    return "C21"
                if x.element == "N":
                    return "C22"
                if x.element == "O":
                    return "C23"
                if x.element == "S":
                    return "C24"
            if order == DOUBLE and x.element in ("C", "N", "O"):
                return "C25"
        return "CS"

    sp3 = not (env.double or env.triple or env.arom)
    all_aliph_c = bool(env.nbrs) and all(
        x.element == "C" and _is_aliph(x) for x, _o, _j in env.nbrs
    )
    if sp3:
        if (h, n) in ((4, 0), (3, 1), (2, 2)) and (n == 0 or all_aliph_c):
            return "C1"
        if (h, n) in ((1, 3), (0, 4)) and all_aliph_c:
            return "C2"
        has_aliph_het = any(
            x.element in _HETERO_FOR_C and _is_aliph(x) for x, _o, _j in env.nbrs
        )
        if has_aliph_het and h >= 2:
            return "C3"
        if has_aliph_het and h + n == 4:
            return "C4"
    if env.double and any(x.element != "C" and _is_aliph(x) for x in env.double):
        return "C5"
    if env.double and any(x.element == "C" and _is_aliph(x) for x in env.double):
        has_arom_nbr = any(x.aromatic for x, _o, _j in env.nbrs)
        return "C26" if has_arom_nbr else "C6"
    if env.triple and h + n == 2 and any(_is_aliph(x) for x in env.triple):
        return "C7"
    if sp3 and any(x.aromatic for x, _o, _j in env.nbrs):
        if h == 3:
            only_c = all(x.element == "C" for x, _o, _j in env.nbrs if x.aromatic)
            return "C8" if only_c else "C9"
        if h + n == 4:
            return {2: "C10", 1: "C11", 0: "C12"}[h]
    if env.double and any(x.aromatic and x.element == "C" for x in env.double):
        return "C26"
    if sp3 and h + n == 4 and any(
        x.element not in _HETERO_FOR_C + ("C",) for x, _o, _j in env.nbrs
    ):
        return "C27"
    return "CS"


def _nitrogen_type(env: _Env) -> str:
    a = env.atom
    h, n, q = env.h, env.n_heavy, a.formal_charge
    if a.aromatic:
        if q == 0:
            return "N11"
        if q > 0:
            return "N12"
        return "NS"  # anionic aromatic nitrogen has no published type
    if q == 0:
        if h == 2 and n == 1:
            return "N1" if _is_aliph(env.nbrs[0][0]) else "N3"
        if h == 1 and n == 2 and not env.double and not env.triple:
            if all(_is_aliph(x) for x, _o, _j in env.nbrs):
                return "N2"
            return "N4"
        if h == 1 and env.double:
            return "N5"
        if h == 0 and env.double and n == 2:
            return "N6"
        if h == 0 and n == 3 and not env.double and not env.triple:
            if all(_is_aliph(x) for x, _o, _j in env.nbrs):
                return "N7"
            return "N8"
        if h == 0 and env.triple:
            return "N9"
        return "NS"
    if q > 0:
        if h >= 1:
            return "N10"
        if env.triple:
            return "N14"
        if n == 4 or env.double:
            return "N13"
        return "NS"
    return "N14"


def _oxygen_type(mol: Molecule, env: _Env) -> str:
    a = env.atom
    h, n, q = env.h, env.n_heavy, a.formal_charge
    if a.aromatic:
        return "O1"
    if h >= 1:
        return "O2"
    if n == 2 and not env.double:
        if all(_is_aliph(x) for x, _o, _j in env.nbrs):
            return "O3"
        return "O4"
    if (env.double and env.double[0].element in ("N", "O")) or (
        q < 0 and n == 1 and env.nbrs[0][0].element == "N"
    ):
        return "O5"
    if (q < 0 and n == 1 and env.nbrs[0][0].element == "S") or (
        q == 0
        and env.double
        and env.double[0].element == "S"
        and env.double[0].formal_charge == 0
    ):
        return "O6"
    if q < 0 and n == 1:
        partner, _order, j = env.nbrs[0]
        if partner.element == "C" and _carbon_has_carbonyl(mol, j):
            return "O12"
        if partner.element not in ("N", "S"):
            return "O7"
        return "OS"
    if env.double and env.double[0].element == "C":
        if env.double[0].aromatic:
            return "O8"
        return _carbonyl_subtype(mol, env)
    return "OS"


def _carbon_has_carbonyl(mol: Molecule, c_idx: int) -> bool:
    for j, bi in mol.neighbors(c_idx):
        if mol.bonds[bi].order == DOUBLE and mol.atoms[j].element == "O":
            return True
    return False


def _carbonyl_subtype(mol: Molecule, env: _Env) -> str:
    """O9/O10/O11 by the substitution pattern of the carbonyl carbon."""
    c_idx = next(j for x, order, j in env.nbrs if order == DOUBLE and x.element == "C")
    carbon = mol.atoms[c_idx]
    others = [
        (mol.atoms[j], mol.bonds[bi].order)
        for j, bi in mol.neighbors(c_idx)
        if j != env.idx
    ]
    if any(x.aromatic for x, _ in others):
        return "O10"
    if carbon.total_h >= 1 or not others:
        return "O9"
    if all(x.element != "C" for x, _ in others):
        return "O11"
    return "O9"


def _hydrogen_type(mol: Molecule, parent: int) -> str:
    p = mol.atoms[parent]
    if p.element in ("C", "H"):
        return "H1"
    if p.element == "N":
        return "H3"
    if p.element == "O":
        heavies = [
            (mol.atoms[j], j)
            for j, _bi in mol.neighbors(parent)
            if mol.atoms[j].element != "H"
        ]
        if not heavies:
            return "H2"  # water: the other substituent is hydrogen
        y, y_idx = heavies[0]
        if y.element == "C":
            y_env = _Env(mol, y_idx)
            if y.aromatic or not (y_env.double or y_env.triple or y_env.arom):
                return "H2"  # phenol or sp3 alcohol
            if any(x.element in ("C", "N", "O", "S") for x in y_env.double):
                return "H4"  # acid / enol
            return "HS"
        if y.element in ("O", "S"):
            return "H4"
        if y.element == "N":
            return "H3"
        return "H2"
    return "H2"  # S-H, P-H, B-H, ...


def crippen_atom_types(mol: Molecule) -> list[tuple[str, str | None]]:
    """Per-atom (heavy type, hydrogen type or None) assignments."""
    out: list[tuple[str, str | None]] = []
    table = crippen_table()
    for i, atom in enumerate(mol.atoms):
        env = _Env(mol, i)
        el = atom.element
        if el == "C":
            t = _carbon_type(mol, env)
        elif el == "N":
            t = _nitrogen_type(env)
        elif el == "O":
            t = _oxygen_type(mol, env)
        elif el == "H":
            nbr = mol.neighbor_atoms(i)
            t = _hydrogen_type(mol, nbr[0]) if nbr else "HS"
        elif el in _HALOGENS:
            t = el if atom.formal_charge == 0 else "Hal"
        elif el == "P":
            t = "P"
        elif el == "S":
            if atom.aromatic:
                t = "S3"
            elif atom.formal_charge != 0:
                t = "S2"
            else:
                t = "S1"
        elif el in _ME2:
            t = "Me2"
        elif el in _ME1:
            t = "Me1"
        else:
            raise DescriptorError(
                f"atom {i} ({el}, charge {atom.formal_charge:+d}, "
                f"{env.n_heavy} heavy neighbors) has no logP/MR atom type"
            )
        if t not in table:
            raise DescriptorError(f"atom {i}: type {t} missing from contribution table")
        h_type = _hydrogen_type(mol, i) if atom.total_h else None
        out.append((t, h_type))
    return out


def crippen_logp_mr(mol: Molecule) -> tuple[float, float]:
    """(logP, molar refractivity) as sums of atomic contributions."""
    table = crippen_table()
    terms = []
    for i, (t, h_type) in enumerate(crippen_atom_types(mol)):
        terms.append(table[t])
        if h_type is not None:
            nh = mol.atoms[i].total_h
            terms.append([nh * c for c in table[h_type]])
    return math.fsum(t[0] for t in terms), math.fsum(t[1] for t in terms)

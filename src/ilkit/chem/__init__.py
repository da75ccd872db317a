"""Molecular graph core: SMILES parsing, perception, canonicalization."""

from .build import from_graph
from .canon import canonicalize, structural_match, write_smiles
from .mol import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    STEREO_CIS,
    STEREO_NONE,
    STEREO_TRANS,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
)
from .parser import parse_smiles


__all__ = [
    "Atom",
    "Bond",
    "Molecule",
    "parse_smiles",
    "write_smiles",
    "canonicalize",
    "structural_match",
    "from_graph",
    "SINGLE",
    "DOUBLE",
    "TRIPLE",
    "AROMATIC",
    "STEREO_NONE",
    "STEREO_CIS",
    "STEREO_TRANS",
]

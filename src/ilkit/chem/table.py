"""Process-wide molecule table: each SMILES text is canonicalized once.

One bounded store holds four kinds of entry:

- input text -> canonical SMILES, filled by ``ilkit.chem.canonicalize``
  and ``derived``;
- (canonical SMILES, key) -> a value derived from the molecule, filled by
  ``derived`` under a key the caller gives (``"descriptors"``, a
  fingerprint's kind/radius/width, ...);
- certificate -> (canonical SMILES, emission order in ranks), filled by
  ``canonical_form`` for achiral components with all-distinct refinement
  ranks, so every spelling of such a molecule shares one entry;
- any other key a caller fills through ``memo``, such as a beam-search
  pool and the floor survivors of its molecules.

Entries are strings, numbers and derived values, never ``Molecule`` or
``Atom`` objects. Every value is a pure function of the molecule, whatever
spelling it was computed from, so neither eviction (oldest entry first, once
``MAX_ENTRIES`` are held) nor the order entries arrived in can change a
result. Errors are not stored: bad input raises on every call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from .mol import Molecule
from .parser import parse_smiles

T = TypeVar("T")

# A search over a 2000-molecule pool fills about 4k entries. Full, the table
# holds 5-15 MiB for molecules of up to 14 heavy atoms, about 50 MiB of
# unfolded fingerprints (README, "Caching").
MAX_ENTRIES = 1 << 14

_entries: OrderedDict = OrderedDict()


def memo(key: Hashable, compute: Callable[[], T]) -> T:
    """The value stored under ``key``, or ``compute()`` stored there, evicting
    the oldest entries past the bound."""
    value = _entries.get(key)
    if value is None:
        value = compute()
        while len(_entries) >= MAX_ENTRIES:
            _entries.popitem(last=False)
        _entries[key] = value
    return value


def derived(text: str, key: Hashable, compute: Callable[[Molecule], T]) -> tuple[str, T]:
    """(canonical SMILES, ``compute`` of the molecule) of any SMILES text,
    memoized under ``text`` and ``(canonical SMILES, key)``.

    On a miss the text is parsed once and both entries come from that
    molecule. A text not in the table may itself be canonical, so its own
    ``(text, key)`` entry is looked up first.
    """
    canonical = _entries.get(text, text)
    value = _entries.get((canonical, key))
    if value is None:
        mol = parse_smiles(text)
        canonical = memo(text, lambda: mol.canonical_smiles)
        value = memo((canonical, key), lambda: compute(mol))
    return canonical, value

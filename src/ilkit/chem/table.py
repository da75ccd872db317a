"""Process-wide molecule table: each SMILES text is canonicalized once.

One bounded store holds two kinds of entry:

- input text -> canonical SMILES, filled by ``ilkit.chem.canonicalize``;
- (canonical SMILES, key) -> a value derived from the molecule parsed from
  that canonical SMILES, filled by ``derived`` under a key the caller
  gives (``"descriptors"``, a fingerprint's kind/radius/width, ...).

Entries are strings and derived values, never ``Molecule`` objects. Every
value is a pure function of its key, so neither eviction (oldest entry
first, once ``MAX_ENTRIES`` are held) nor the order entries arrived in can
change a result. Errors are not stored: bad input raises on every call.
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


def derived(canonical: str, key: Hashable, compute: Callable[[Molecule], T]) -> T:
    """``compute(parse_smiles(canonical))``, memoized under ``(canonical, key)``.

    ``canonical`` must already be canonical: the value is computed from the
    molecule parsed from exactly this string, so a respelling would be a
    different entry with possibly different floating-point bits.
    """
    return memo((canonical, key), lambda: compute(parse_smiles(canonical)))

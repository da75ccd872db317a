"""One-vs-pool packed Tanimoto against the scalar ``tanimoto``.

``beam_search`` and ``similarity_matrix`` pick similarities from
``packed_tanimoto`` over rows that ``pack`` builds; every entry must equal
the scalar value, bit for bit, for random bitmasks of several widths,
including empty and full fingerprints and widths below one word.
"""

import numpy as np
import pytest

from ilkit.fingerprints import Fingerprint, pack, packed_tanimoto, tanimoto

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _packed_equals_scalar(nbits, query, masks):
    fps = [Fingerprint("ecfp", nbits, 2, m, m.bit_count()) for m in masks]
    q = Fingerprint("ecfp", nbits, 2, query, query.bit_count())
    row, count = pack([q], nbits)
    words, counts = pack(fps, nbits)
    sims = packed_tanimoto(row[0], count[0], words, counts)
    assert sims.dtype == np.float64 and sims.shape == (len(fps),)
    assert sims.tolist() == [tanimoto(fp, q) for fp in fps]


@hypothesis.settings(max_examples=60, derandomize=True, database=None, deadline=None)
@hypothesis.given(data=st.data(), nbits=st.sampled_from([8, 64, 128, 2048]))
def test_one_vs_pool_packed_tanimoto_equals_scalar(data, nbits):
    # Empty fingerprints are drawn often: their pairs with each other are 1.0.
    mask = st.one_of(st.just(0), st.integers(0, 2**nbits - 1), st.just(2**nbits - 1))
    _packed_equals_scalar(nbits, data.draw(mask), data.draw(st.lists(mask, max_size=24)))


def test_one_vs_pool_packed_tanimoto_edge_cases():
    for nbits in (8, 32, 64, 128, 2048):
        full = 2**nbits - 1
        _packed_equals_scalar(nbits, 0, [0, 1, full, 0])
        _packed_equals_scalar(nbits, full, [0, full, 1 << (nbits - 1)])
        _packed_equals_scalar(nbits, 1, [])

"""``combine`` runs the splitmix64 steps inline; it must equal the fold
through one ``mix64`` call per value that the fingerprints were defined
with, for any integers: negative ones and ones of 64 bits or more are
reduced modulo 2**64 first."""

import pytest

from ilkit.stablehash import SEED, combine
from oracles import fp_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-8, 8),
    st.sampled_from([2**63, 2**64 - 1, 2**64, 2**64 + 1, -(2**63), -(2**64)]),
)


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(values=st.lists(_INTS, max_size=12), seed=st.one_of(st.just(SEED), _INTS))
def test_combine_equals_the_mix64_fold(values, seed):
    assert combine(values) == fp_oracle.combine(values)
    assert combine(values, seed) == fp_oracle.combine(values, seed)
    assert 0 <= combine(values, seed) < 2**64


def test_combine_of_nothing_is_the_masked_seed():
    assert combine(()) == SEED
    assert combine((), -1) == 2**64 - 1

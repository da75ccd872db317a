import dataclasses
import json
import random

import numpy as np
import pytest

from genmol import corpus
from ilkit.cluster import ClusterResult, Merge, hierarchical_cluster
from ilkit.errors import IlkitError
from ilkit.fingerprints import similarity_matrix
from oracles.cluster_oracle import oracle_average_linkage, reference_lance_williams


def _random_similarity(rng, n, step=None):
    """Random symmetric matrix; with ``step`` every entry is a multiple of it."""
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = 1.0
        for j in range(i + 1, n):
            v = rng.random() if step is None else rng.randrange(round(1 / step) + 1) * step
            m[i, j] = m[j, i] = v
    return m


def _assert_matches_reference(m):
    res = hierarchical_cluster(m)
    want_merges, want_order = reference_lance_williams(m)
    assert [(g.left, g.right, g.distance, g.size) for g in res.merges] == want_merges
    assert res.leaf_order == want_order


def test_two_items_single_merge():
    m = np.array([[1.0, 0.4], [0.4, 1.0]])
    res = hierarchical_cluster(m)
    assert len(res.merges) == 1
    assert res.merges[0].distance == pytest.approx(0.6)
    assert res.leaf_order == (0, 1)


def test_block_diagonal_clusters_merge_internally_first():
    m = np.eye(4)
    m[0, 1] = m[1, 0] = 1.0
    m[2, 3] = m[3, 2] = 1.0
    res = hierarchical_cluster(m)
    first_two = {(res.merges[0].left, res.merges[0].right), (res.merges[1].left, res.merges[1].right)}
    assert (0, 1) in first_two and (2, 3) in first_two
    assert res.merges[2].size == 4


def test_merge_sequence_matches_oracle():
    rng = random.Random(6)
    for trial in range(20):
        n = rng.randint(5, 10)
        m = _random_similarity(rng, n)
        res = hierarchical_cluster(m)
        want = oracle_average_linkage(m)
        assert len(res.merges) == len(want)
        for got, (a, b, d, size) in zip(res.merges, want):
            assert {got.left, got.right} == {a, b}, f"trial {trial}"
            assert got.distance == pytest.approx(d, abs=1e-9)
            assert got.size == size


def test_leaf_order_is_permutation():
    rng = random.Random(8)
    m = _random_similarity(rng, 9)
    res = hierarchical_cluster(m)
    assert sorted(res.leaf_order) == list(range(9))


def test_non_symmetric_rejected():
    for m in (
        [[1.0, 0.2], [0.5, 1.0]],
        # Asymmetric by 8e-6 relative, inside numpy's default rtol: once
        # accepted, clustering at 0.5 and its transpose at 0.499996.
        [[1.0, 0.5], [0.500004, 1.0]],
    ):
        for matrix in (np.array(m), np.array(m).T):
            with pytest.raises(IlkitError):
                hierarchical_cluster(matrix)


def test_out_of_range_rejected():
    m = np.array([[1.0, 1.4], [1.4, 1.0]])
    with pytest.raises(IlkitError):
        hierarchical_cluster(m)


def test_determinism_with_ties():
    m = np.full((4, 4), 0.5)
    np.fill_diagonal(m, 1.0)
    a = hierarchical_cluster(m)
    b = hierarchical_cluster(m)
    assert a == b
    # All distances tie; lowest-leaf pairs must merge first.
    assert (a.merges[0].left, a.merges[0].right) == (0, 1)


@pytest.mark.parametrize("step", [None, 0.25, 0.1])
def test_matches_lance_williams_reference_exactly(step):
    # Multiples of 1/4 and 1/10 tie heavily, also after averaging.
    rng = random.Random(31 if step is None else round(1 / step))
    for _ in range(40):
        _assert_matches_reference(_random_similarity(rng, rng.randint(2, 40), step))


def test_matches_lance_williams_reference_on_molecule_matrix():
    mols = corpus(seed=41, size=300)
    m = (similarity_matrix(mols, "ecfp") + similarity_matrix(mols, "atom_pair")) / 2
    _assert_matches_reference(m)


def test_reads_upper_triangle_only():
    rng = random.Random(12)
    m = _random_similarity(rng, 12)
    skewed = m.copy()
    lower = np.tril_indices(12, -1)
    skewed[lower] += 1e-14       # inside the symmetry check's tolerance
    assert hierarchical_cluster(skewed) == hierarchical_cluster(m)


def test_chain_dendrogram_leaf_order_needs_no_recursion():
    # d(i, j) grows with max(i, j): leaf k joins the cluster {0..k-1}, so
    # the dendrogram is a chain deeper than the interpreter's recursion limit.
    n = 1500
    idx = np.arange(n)
    m = 1.0 - np.maximum.outer(idx, idx) / n
    np.fill_diagonal(m, 1.0)
    res = hierarchical_cluster(m)
    assert res.leaf_order == tuple(range(n))
    assert (res.merges[0].left, res.merges[0].right) == (0, 1)
    for k in range(2, n):
        merge = res.merges[k - 1]
        assert (merge.left, merge.right, merge.size) == (k, n + k - 2, k + 1)


def test_result_fields_are_plain_python_values():
    res = hierarchical_cluster(_random_similarity(random.Random(3), 7))
    for merge in res.merges:
        assert type(merge) is Merge
        assert [type(merge.left), type(merge.right), type(merge.distance), type(merge.size)] == [
            int, int, float, int
        ]
    assert all(type(leaf) is int for leaf in res.leaf_order)
    assert json.loads(json.dumps(dataclasses.asdict(res)))["leaf_order"] == list(res.leaf_order)


def test_empty_and_single_item():
    assert hierarchical_cluster(np.zeros((0, 0))) == ClusterResult((), ())
    assert hierarchical_cluster(np.eye(1)) == ClusterResult((), (0,))

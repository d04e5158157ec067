"""Deterministic stream contracts."""

import numpy as np
import pytest

from distill_ssl.rng import Rng, derive_seed, normals


def test_same_seed_same_sequence():
    assert np.array_equal(Rng(123).uniform(64), Rng(123).uniform(64))
    assert np.array_equal(Rng(123).normal(64), Rng(123).normal(64))


def test_blockwise_matches_scalar_draws():
    block = Rng(9).uniform(10)
    single = Rng(9)
    scalar = np.array([single.uniform() for _ in range(10)])
    assert np.array_equal(block, scalar)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_scalar_draws_equal_block_draws(seed):
    # the scalar path mixes Python ints; at 2**64 - 1 seed + count * GOLDEN wraps
    block = Rng(seed).uniform(12)
    single = Rng(seed)
    assert [single.uniform() for _ in range(6)] == block[:6].tolist()
    assert [single.integer(1000) for _ in range(6)] == [int(u * 1000) for u in block[6:]]
    assert single.uniform(3).tolist() == Rng(seed).uniform(15)[12:].tolist()


def test_golden_values_pinned():
    # Regression anchor: any change to the generator breaks reproducibility
    # of every seeded artifact.
    u = Rng(42).uniform(3)
    assert u.tolist() == [0.7415648787718233, 0.1599103928769201, 0.27860113025513866]
    assert derive_seed(42, 1, 2, 3) == 8475483118109164514


def test_derive_does_not_consume_parent_draws():
    parent = Rng(5)
    before = parent.uniform(4)
    parent2 = Rng(5)
    _ = parent2.derive(1), parent2.derive(2, 3)
    assert np.array_equal(before, parent2.uniform(4))


def test_children_with_different_keys_differ():
    a = Rng(5).derive(1).uniform(8)
    b = Rng(5).derive(2).uniform(8)
    assert not np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = Rng(11).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = Rng(13).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_permutation_is_a_permutation():
    perm = Rng(3).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))
    assert np.array_equal(perm, Rng(3).permutation(50))


def test_permutation_pinned():
    # regression anchor: the scalar draw path fixes every shuffle
    assert Rng(42).permutation(10).tolist() == [8, 3, 6, 5, 4, 0, 9, 2, 1, 7]


def test_normal_pinned_at_wrapping_seed():
    assert Rng(2**64 - 1).normal(3).tolist() == [
        0.09024340852575238,
        -0.38257184953758605,
        0.4648471082275357,
    ]


@pytest.mark.parametrize("n", [1, 7, 64])
def test_normals_rows_equal_per_stream_draws(n):
    streams = [Rng(s) for s in (0, 9, 2**64 - 1)]
    for s, k in zip(streams, (0, 3, 5)):
        s.uniform(k)  # each stream at its own counter
    ref = [Rng(s.seed) for s in streams]
    for r, k in zip(ref, (0, 3, 5)):
        r.uniform(k)
    rows = normals(streams, n)
    assert rows.shape == (3, n)
    for row, r in zip(rows, ref):
        assert row.tolist() == r.normal(n).tolist()
    # both advanced alike: the next draws agree
    assert [s.uniform() for s in streams] == [r.uniform() for r in ref]

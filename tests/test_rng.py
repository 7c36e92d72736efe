"""The stream derivation against its oracle, numpy's SeedSequence: the Philox
key and the first draws of every stream must be those of
``Philox(SeedSequence(seed, spawn_key=path))``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesums.rng import _KEY_BLOCK, MAX_SEED, _replicates, stream, streams


def _oracle(seed, *path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def _key(gen):
    return gen.bit_generator.state["state"]["key"].tolist()


SEEDS = st.one_of(st.sampled_from([0, 2**32, MAX_SEED]), st.integers(0, MAX_SEED))
# a path component is one 32-bit word
PATHS = st.lists(st.integers(0, 2**32 - 1), max_size=4)


@settings(max_examples=200, deadline=None)
@given(SEEDS, PATHS)
@example(0, [])
@example(2**32, [])
@example(MAX_SEED, [])
@example(7, [2**32 - 1])
def test_stream_is_the_seed_sequence_stream(seed, path):
    got, want = stream(seed, *path), _oracle(seed, *path)
    assert _key(got) == _key(want)
    assert got.random(4).tolist() == want.random(4).tolist()
    assert got.standard_normal(3).tolist() == want.standard_normal(3).tolist()


@settings(max_examples=100, deadline=None)
@given(SEEDS, PATHS, st.integers(0, 40))
@example(0, [], 0)
@example(0, [], 1)
@example(MAX_SEED, [2**32 - 1], 1)
@example(2**32, [0], 3)
# prefixes of 1, 4 and 5 components: SeedSequence's hash count 16 + 4 per
# component, up to and past its pool of 4 words
@example(5, [2**32 - 1], 2)
@example(MAX_SEED, [1, 2, 3, 2**32 - 1], 3)
@example(2**32, [0, 9, 2**31, 4, 2**32 - 1], 2)
def test_streams_are_the_stream_of_each_replicate(seed, prefix, count):
    items = 0
    for r, got in enumerate(streams(seed, *prefix, count=count)):
        want = _oracle(seed, *prefix, r)
        assert _key(got) == _key(want)
        assert got.random(2).tolist() == want.random(2).tolist()
        assert got.standard_exponential(2).tolist() == want.standard_exponential(2).tolist()
        items += 1
    assert items == count


def test_streams_keys_run_across_key_blocks():
    count = _KEY_BLOCK + 5
    got = [_key(g) for g in streams(11, 0, count=count)]
    assert got == [_key(_oracle(11, 0, r)) for r in range(count)]


@pytest.mark.parametrize("prefix", [(), (0,)])
@pytest.mark.parametrize("width", [1, 3])
def test_replicates_row_r_is_the_row_of_stream_r(prefix, width):
    # past the first block of keyed indices, so rows come from two blocks
    reps = _KEY_BLOCK + 4

    def row(gen):
        return gen.random() if width == 1 else gen.standard_normal(width)

    got = _replicates(5, prefix, reps, row, width)
    assert got.shape == (reps, width)
    want = [np.atleast_1d(row(stream(5, *prefix, r))) for r in range(reps)]
    np.testing.assert_array_equal(got, want)


def test_stream_spawns_its_children_and_streams_items_cannot():
    for seed, path in [(3, ()), (3, (0,)), (MAX_SEED, (2**32 - 1, 5))]:
        children = stream(seed, *path).spawn(2)
        for i, child in enumerate(children):
            want = stream(seed, *path, i)
            assert _key(child) == _key(want)
            assert child.random(3).tolist() == want.random(3).tolist()
    # one shared generator, re-keyed for each replicate: it has no SeedSequence
    with pytest.raises(TypeError):
        next(streams(3, 0, count=1)).spawn(1)


def test_streams_checks_its_seed_when_called():
    # refused at the call, before any item is taken
    with pytest.raises(ValueError, match="^seed must be in"):
        streams(MAX_SEED + 1, count=1)

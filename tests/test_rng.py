"""The stream derivation against its oracle, numpy's SeedSequence: the Philox
key and the first draws of every stream must be those of
``Philox(SeedSequence(seed, spawn_key=path))``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesums.rng import _KEY_BLOCK, MAX_SEED, _replicates, stream


def _oracle(seed, *path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def _key(gen):
    return gen.bit_generator.state["state"]["key"].tolist()


def _unreached(_):
    raise AssertionError("a replicate was drawn")


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


def _keyed_rows(seed, prefix, reps):
    """_replicates' matrix when replicate r draws 2 uniforms and 2
    exponentials as its row, and the Philox key each was drawn under."""
    keys = []

    def draw(gen):
        keys.append(_key(gen))
        return np.concatenate((gen.random(2), gen.standard_exponential(2)))

    return _replicates(seed, tuple(prefix), reps, draw, lambda x: x, 4), keys


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
def test_streams_are_the_stream_of_each_replicate(seed, prefix, reps):
    got, keys = _keyed_rows(seed, prefix, reps)
    assert got.shape == (reps, 4)
    wants = [_oracle(seed, *prefix, r) for r in range(reps)]
    assert keys == [_key(want) for want in wants]
    for row, want in zip(got.tolist(), wants):
        assert row == want.random(2).tolist() + want.standard_exponential(2).tolist()


def test_streams_keys_run_across_key_blocks():
    _, keys = _keyed_rows(11, (0,), _KEY_BLOCK + 5)
    assert keys == [_key(_oracle(11, 0, r)) for r in range(_KEY_BLOCK + 5)]


@pytest.mark.parametrize("prefix", [(), (0,)])
@pytest.mark.parametrize("width", [1, 3])
def test_replicates_row_r_is_the_row_of_stream_r(prefix, width):
    # past the first block of keyed indices, so rows come from two blocks
    reps = _KEY_BLOCK + 4

    def draw(gen):
        return gen.random(width) if width == 1 else gen.standard_normal(width)

    def row(x):
        return x[0] if width == 1 else x

    got = _replicates(5, prefix, reps, draw, row, width)
    assert got.shape == (reps, width)
    want = [np.atleast_1d(row(draw(stream(5, *prefix, r)))) for r in range(reps)]
    np.testing.assert_array_equal(got, want)


def test_stream_spawns_its_children_and_replicate_generators_cannot():
    for seed, path in [(3, ()), (3, (0,)), (MAX_SEED, (2**32 - 1, 5))]:
        children = stream(seed, *path).spawn(2)
        for i, child in enumerate(children):
            want = stream(seed, *path, i)
            assert _key(child) == _key(want)
            assert child.random(3).tolist() == want.random(3).tolist()
    # one shared generator, re-keyed for each replicate: it has no SeedSequence
    with pytest.raises(TypeError):
        _replicates(3, (0,), 1, lambda gen: gen.spawn(1), _unreached)


def test_replicates_check_the_seed_before_any_row():
    with pytest.raises(ValueError, match="^seed must be in"):
        _replicates(MAX_SEED + 1, (), 1, _unreached, _unreached)

"""Keyed random-stream derivation."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfto.rng import StreamFactory, derive_seed


def test_derive_seed_is_deterministic():
    assert derive_seed(1, "elect", 3, 7) == derive_seed(1, "elect", 3, 7)


def test_derive_seed_distinguishes_every_key_component():
    base = derive_seed(1, "elect", 3, 7)
    assert derive_seed(2, "elect", 3, 7) != base
    assert derive_seed(1, "attack", 3, 7) != base
    assert derive_seed(1, "elect", 4, 7) != base
    assert derive_seed(1, "elect", 3, 8) != base


def test_derive_seed_pinned_values():
    # computed before the per-subsystem prefix cache existed; every
    # simulation output rests on these
    assert derive_seed(1, "elect", 3, 7) == 0x1BC672A5FF4B9E8B
    assert derive_seed(0, "channel", -1, 0) == 0x12A8AA12346438BA
    assert derive_seed(2**64 + 5, "observe", 12, -1) == 0xD48A3892369539A7


def test_derive_seed_rejects_unhashable_key_types():
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)


def test_streams_replay_identically():
    a = StreamFactory(9).stream("observe", 4, 12)
    b = StreamFactory(9).stream("observe", 4, 12)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_streams_are_order_independent():
    f = StreamFactory(9)
    first = f.stream("elect", 0, 0).random()
    f.stream("attack", 5, 3).random()  # interleaved draws elsewhere
    again = f.stream("elect", 0, 0).random()
    assert first == again


def test_stream_outputs_look_uniform():
    rng = StreamFactory(123).stream("channel", round_idx=0)
    n = 20_000
    mean = sum(rng.random() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.01


def test_distinct_streams_decorrelated():
    f = StreamFactory(7)
    xs = [f.stream("elect", i, 0).random() for i in range(2000)]
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.03
    assert len({round(x, 12) for x in xs}) == len(xs)  # no collisions



keys = st.integers(min_value=-2**70, max_value=2**70) | st.sampled_from([-1, -2, 0])


@settings(max_examples=200, deadline=None)
@given(master=st.integers(min_value=-2**80, max_value=2**80),
       draws=st.lists(st.tuples(st.text(max_size=12), keys, keys), min_size=1, max_size=6))
def test_factory_streams_equal_random_seeded_with_derive_seed(master, draws):
    # one factory for every key, so its cached subsystem prefixes are reused
    factory = StreamFactory(master)
    for subsystem, node, round_idx in draws:
        ours = factory.stream(subsystem, node, round_idx)
        reference = random.Random(derive_seed(master, subsystem, node, round_idx))
        assert [ours.random() for _ in range(3)] == [reference.random() for _ in range(3)]

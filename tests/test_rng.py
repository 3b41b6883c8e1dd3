import random

import pytest

from csslab.csp import random_ccp_instance
from csslab.graphs import comparability_from_random_poset, gen_gnp
from csslab.rng import TWO64, SplitMix64

from oracles import (ScalarSplitMix64, scalar_bernoulli_mask, scalar_ccp_instance, scalar_gnp,
                     scalar_poset_comparability)


def test_scalar_stream_matches_published_outputs():
    # the first outputs of SplitMix64 seeded with 0, as published with the
    # algorithm's reference implementation
    rng = ScalarSplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == \
        [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_draws_match_scalar_stream():
    rnd = random.Random(20261020)
    for seed in (0, 1, TWO64 - 1, rnd.getrandbits(64), rnd.getrandbits(64)):
        fast, slow = SplitMix64(seed), ScalarSplitMix64(seed)
        for n in (0, 1, 2, 63, 64, 65, 300):
            got = fast.draws(n)
            assert got.dtype.name == "uint64" and got.shape == (n,)
            assert got.tolist() == [slow.next_u64() for _ in range(n)], (seed, n)


def test_bernoulli_mask_matches_scalar_draws():
    rnd = random.Random(20140601)
    for n in (0, 1, 63, 64, 65, 704):
        for threshold in (0, 1, 1 << 63, TWO64 - 1, TWO64, rnd.getrandbits(64)):
            for _ in range(3):
                seed = rnd.getrandbits(64)
                fast, slow = SplitMix64(seed), ScalarSplitMix64(seed)
                assert fast.bernoulli_mask(n, threshold) == \
                    scalar_bernoulli_mask(slow, n, threshold), (seed, n, threshold)
                assert fast.draws(1)[0] == slow.next_u64(), (seed, n, threshold)


def test_bernoulli_flags_match_scalar_draws():
    rnd = random.Random(20261018)
    for n in (0, 1, 63, 64, 65, 704):
        for threshold in (0, 1, 1 << 63, TWO64 - 1, TWO64, rnd.getrandbits(64)):
            for _ in range(3):
                seed = rnd.getrandbits(64)
                fast, slow = SplitMix64(seed), ScalarSplitMix64(seed)
                flags = fast.bernoulli_flags(n, threshold)
                assert flags.dtype == bool and flags.shape == (n,)
                want = scalar_bernoulli_mask(slow, n, threshold)
                assert [v for v in range(n) if flags[v]] == \
                    [v for v in range(n) if want >> v & 1], (seed, n, threshold)
                assert fast.draws(1)[0] == slow.next_u64(), (seed, n, threshold)


def test_negative_draw_count_raises_and_consumes_nothing():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="-3"):
        rng.draws(-3)
    with pytest.raises(ValueError, match="-3"):
        rng.bernoulli_mask(-3, 1 << 63)
    with pytest.raises(ValueError, match="-3"):
        rng.bernoulli_flags(-3, 1 << 63)
    # a count of 0 is legal and draws nothing
    assert rng.draws(0).shape == (0,)
    assert rng.bernoulli_mask(0, 1 << 63) == 0
    assert rng.bernoulli_flags(0, 1 << 63).shape == (0,)
    assert rng.draws(1)[0] == ScalarSplitMix64(1).next_u64()


def test_samplers_match_scalar_oracles():
    rnd = random.Random(20261021)
    for n in range(41):
        for _ in range(2):
            seed = rnd.getrandbits(64)
            for p in (0.0, 1.0, 0.3, 0.5, rnd.random()):
                assert gen_gnp(n, p, seed) == scalar_gnp(n, p, seed), (n, p, seed)
            assert comparability_from_random_poset(n, seed) == \
                scalar_poset_comparability(n, seed), (n, seed)
            assert random_ccp_instance(n, seed) == scalar_ccp_instance(n, seed), (n, seed)

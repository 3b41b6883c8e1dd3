import random

import pytest

from csslab.rng import TWO64, SplitMix64

from oracles import scalar_bernoulli_mask


def test_bernoulli_mask_matches_scalar_draws():
    rnd = random.Random(20140601)
    for n in (0, 1, 63, 64, 65, 704):
        for threshold in (0, 1, 1 << 63, TWO64 - 1, TWO64, rnd.getrandbits(64)):
            for _ in range(3):
                seed = rnd.getrandbits(64)
                fast, slow = SplitMix64(seed), SplitMix64(seed)
                assert fast.bernoulli_mask(n, threshold) == \
                    scalar_bernoulli_mask(slow, n, threshold), (seed, n, threshold)
                assert fast.next_u64() == slow.next_u64(), (seed, n, threshold)



def test_bernoulli_flags_match_scalar_draws():
    rnd = random.Random(20261018)
    for n in (0, 1, 63, 64, 65, 704):
        for threshold in (0, 1, 1 << 63, TWO64 - 1, TWO64, rnd.getrandbits(64)):
            for _ in range(3):
                seed = rnd.getrandbits(64)
                fast, slow = SplitMix64(seed), SplitMix64(seed)
                flags = fast.bernoulli_flags(n, threshold)
                assert flags.dtype == bool and flags.shape == (n,)
                want = scalar_bernoulli_mask(slow, n, threshold)
                assert [v for v in range(n) if flags[v]] == \
                    [v for v in range(n) if want >> v & 1], (seed, n, threshold)
                assert fast.next_u64() == slow.next_u64(), (seed, n, threshold)


def test_negative_draw_count_raises_and_consumes_nothing():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="-3"):
        rng.bernoulli_mask(-3, 1 << 63)
    with pytest.raises(ValueError, match="-3"):
        rng.bernoulli_flags(-3, 1 << 63)
    # a count of 0 is legal and draws nothing
    assert rng.bernoulli_mask(0, 1 << 63) == 0
    assert rng.bernoulli_flags(0, 1 << 63).shape == (0,)
    assert rng.next_u64() == SplitMix64(1).next_u64()

"""Slow scalar reference implementations that the library is tested
against, and fixture builders that only tests use."""

from csslab.graphs import greedy_coloring
from csslab.packing import BicliqueCovering
from csslab.rng import SplitMix64, bernoulli_threshold
from csslab.separator import (CutFamily, SeparatorBuildError,
                              disjoint_maximal_pairs, family_from_masks)


def as_covering(cert, t: int) -> BicliqueCovering:
    """The packing certificate's bicliques, orientation forgotten, as a
    covering with multiplicity cap ``t``: a star partition is a 1-covering,
    and any packing certificate a 2-covering (once per direction)."""
    return BicliqueCovering(cert.host,
                            tuple((bc.a_side, bc.b_side) for bc in cert.bicliques), t)


def all_cuts_family(n: int) -> CutFamily:
    """Every side-A subset of n vertices, which separates every pair."""
    return family_from_masks(n, range(1 << n))


def greedy_base_colorer(h, partition) -> tuple[int, ...]:
    """First-fit greedy base colorer for ``compose_coloring``."""
    return greedy_coloring(h)


def scalar_bernoulli_mask(rng: SplitMix64, n: int, threshold: int) -> int:
    """One ``next_u64`` per vertex: bit v set iff the v-th draw is below threshold."""
    mask = 0
    for v in range(n):
        if rng.next_u64() < threshold:
            mask |= 1 << v
    return mask


def greedy_separator(g, p: float, seed: int, max_rounds: int | None = None) -> CutFamily:
    """Pure-Python greedy random-cut construction on Python-int masks.

    Same contract as ``build_random_separator``: each round draws 32
    candidates of n draws each, candidate after candidate, and keeps the
    first one covering the most uncovered disjoint maximal pairs.
    """
    pairs = disjoint_maximal_pairs(g)
    if not pairs:
        return CutFamily(g.n, ())
    cap = 2 * g.n ** 7 if max_rounds is None else max_rounds
    rng = SplitMix64(seed)
    threshold = bernoulli_threshold(p)
    chosen = []
    rounds = 0
    while pairs and rounds < cap:
        rounds += 1
        cands = [scalar_bernoulli_mask(rng, g.n, threshold) for _ in range(32)]
        best, best_covered = -1, None
        for i, a in enumerate(cands):
            cov = [j for j, (k, s) in enumerate(pairs) if k & ~a == 0 and s & a == 0]
            if best_covered is None or len(cov) > len(best_covered):
                best, best_covered = i, cov
        if not best_covered:
            continue
        chosen.append(cands[best])
        drop = set(best_covered)
        pairs = [pr for j, pr in enumerate(pairs) if j not in drop]
    if pairs:
        raise SeparatorBuildError(len(pairs), rounds)
    return family_from_masks(g.n, chosen)

"""Seeded random instances shared across the test modules, and profiles
whose voters all cast distinct ballots."""

from __future__ import annotations

import itertools
import math
import random

from hypothesis import strategies as st

from vetoflow.profiles import PreferenceProfile


def random_profile(rng: random.Random, nmax: int = 6, mmax: int = 5) -> PreferenceProfile:
    n, m = rng.randint(1, nmax), rng.randint(1, mmax)
    rankings = []
    for _ in range(n):
        r = list(range(m))
        rng.shuffle(r)
        rankings.append(tuple(r))
    return PreferenceProfile.of(rankings)


def random_profiles(count: int, seed: int, nmax: int = 6, mmax: int = 5):
    rng = random.Random(seed)
    return [random_profile(rng, nmax, mmax) for _ in range(count)]


def repeated_profiles(count: int, seed: int):
    """Profiles of up to 40 voters drawing from at most four distinct ballots."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, types, n = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 40)
        ballots = [tuple(rng.sample(range(m), m)) for _ in range(types)]
        out.append(PreferenceProfile.of([rng.choice(ballots) for _ in range(n)]))
    return out


def distinct_ballots(n: int) -> PreferenceProfile:
    """n voters casting the first n permutations of range(k), for the least
    k with k! >= n, so that ballot type i is voter i: the left side of a
    bare bipartite network."""
    k = next(k for k in itertools.count(1) if math.factorial(k) >= n)
    return PreferenceProfile.of(itertools.islice(itertools.permutations(range(k)), n))


profiles_strategy = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: random_profile(random.Random(seed))
)

"""Exact outcome distribution of quantum counting (Theorem 4.2).

Quantum counting [BHT98a] runs phase estimation on the Grover iterate G.  On
the uniform starting state, G has eigenvalues e^{±2iθ} with sin²θ = t/N, and
the start state is an equal-weight mixture of the two eigenvectors.  P-point
phase estimation of an eigenphase ω (in turns) returns y ∈ {0, …, P−1} with
the exact Fejér-type kernel

    Pr[y] = | sin(πP(ω − y/P)) / (P·sin(π(ω − y/P))) |².

The count estimate is t̃ = N·sin²(πy/P), and the error bound of Theorem 4.2,

    |t − t̃| < (2π/P)·√(tN) + (π²/P²)·N   with probability ≥ 8/π²,

follows from this distribution — we sample from the true law, so the bound
holds here for the same reason it holds on a quantum computer.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.util.rng import RandomSource

__all__ = [
    "counting_error_bound",
    "counting_estimate_from_outcome",
    "eigenphase_turns",
    "qpe_distribution",
    "sample_counting_estimate",
]


def eigenphase_turns(t: int, N: int) -> float:
    """ω = θ/π ∈ [0, 1/2]: the Grover eigenphase in units of full turns."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 <= t <= N:
        raise ValueError(f"t must be in [0, {N}], got {t}")
    theta = math.asin(math.sqrt(t / N))
    return theta / math.pi


@functools.lru_cache(maxsize=256)
def qpe_distribution(omega: float, P: int) -> np.ndarray:
    """Exact P-point phase-estimation outcome distribution for phase ω.

    Entry y holds Pr[measure y] = |sin(πPδ_y) / (P sin(πδ_y))|² with
    δ_y = ω − y/P (taken modulo 1); when δ_y is an integer the kernel is 1.
    Results are memoized (a sweep asks for a handful of distinct (ω, P)
    pairs thousands of times) and therefore returned read-only.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    y = np.arange(P)
    delta = omega - y / P
    # Wrap to the principal branch; the kernel is 1-periodic in delta.
    delta = delta - np.round(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = np.sin(np.pi * P * delta)
        denominator = P * np.sin(np.pi * delta)
        kernel = np.where(np.abs(denominator) < 1e-300, 1.0, numerator / denominator)
    probabilities = kernel**2
    # Guard against tiny float drift before sampling.
    total = probabilities.sum()
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        probabilities = probabilities / total
    probabilities.flags.writeable = False
    return probabilities


def counting_estimate_from_outcome(y: int, N: int, P: int) -> float:
    """t̃ = N·sin²(πy/P) — the count estimate decoded from outcome y."""
    return N * math.sin(math.pi * y / P) ** 2


def sample_counting_estimate(
    t: int,
    N: int,
    P: int,
    rng: RandomSource,
) -> float:
    """Sample one quantum-counting estimate t̃ of the true count t among N.

    The starting state splits half/half over the two conjugate eigenvectors
    (for 0 < t < N); the degenerate endpoints t = 0 and t = N have a single
    eigenphase.
    """
    omega = eigenphase_turns(t, N)
    if 0 < t < N and rng.bernoulli(0.5):
        omega = 1.0 - omega  # the e^{-2iθ} eigenvector
    distribution = qpe_distribution(omega, P)
    y = int(rng.generator.choice(P, p=distribution))
    return counting_estimate_from_outcome(y, N, P)


def counting_error_bound(t: int, N: int, P: int) -> float:
    """Theorem 4.2's error radius: (2π/P)√(tN) + (π²/P²)N."""
    return (2.0 * math.pi / P) * math.sqrt(t * N) + (math.pi**2 / P**2) * N

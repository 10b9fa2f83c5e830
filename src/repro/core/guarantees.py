"""Theoretical probability guarantees (Sections 2.2 and 5.4).

* PCT detects a depth-``d`` bug with probability ≥ ``1/(t · k^(d-1))``.
* PCTWM samples a given ``h``-bounded ``d``-communication execution with
  probability ≥ ``1/O((h · k_com)^d)``: it picks an ordered tuple of ``d``
  sinks out of ``C(k_com, d) · d! ≤ k_com^d`` possibilities and, for each
  sink, one of ``h`` sources.

These bounds are *lower* bounds on hitting one particular target execution;
tests check that empirical hit rates respect them on small programs.
"""

from __future__ import annotations

from math import comb, factorial


def pct_sample_space(t: int, k: int, d: int) -> int:
    """Size bound of PCT's sample set: ``t · k^(d-1)``."""
    _validate(t=t, k=k, d=d)
    return t * k ** max(d - 1, 0)


def pct_lower_bound(t: int, k: int, d: int) -> float:
    """PCT's guaranteed bug-detection probability ``1/(t · k^(d-1))``."""
    return 1.0 / pct_sample_space(t, k, d)


def pctwm_sample_space(k_com: int, d: int, h: int) -> int:
    """Exact count of PCTWM's sampled configurations.

    ``C(k_com, d) · d!`` ordered sink tuples times ``h^d`` source choices.
    For ``d = 0`` this is 1: the single no-communication execution.
    """
    _validate(k_com=k_com, d=d, h=h)
    if d > k_com:
        raise ValueError("cannot select more sinks than communication events")
    return comb(k_com, d) * factorial(d) * h ** d


def pctwm_lower_bound(k_com: int, d: int, h: int) -> float:
    """PCTWM's guaranteed sampling probability ``1/(P(k_com,d) · h^d)``."""
    return 1.0 / pctwm_sample_space(k_com, d, h)


def pctwm_loose_bound(k_com: int, d: int, h: int) -> float:
    """The paper's looser closed form ``1/(h · k_com)^d``.

    ``P(k_com, d) ≤ k_com^d`` so this is always ≤ the exact bound.
    """
    _validate(k_com=k_com, d=d, h=h)
    return 1.0 / (h * k_com) ** d if d else 1.0


def naive_detection_probability(choices: int, length: int) -> float:
    """Naive random walk: probability ``(1/choices)^length`` (Section 2.2).

    Program P1's bug needs the first thread chosen at all ``k`` scheduling
    points among 2 enabled threads: probability ``1/2^k``.
    """
    if choices < 1 or length < 0:
        raise ValueError("choices must be >= 1 and length >= 0")
    return (1.0 / choices) ** length


def _validate(**kwargs: int) -> None:
    for name, value in kwargs.items():
        minimum = 0 if name == "d" else 1
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


__all__ = [
    "naive_detection_probability",
    "pct_lower_bound",
    "pct_sample_space",
    "pctwm_loose_bound",
    "pctwm_lower_bound",
    "pctwm_sample_space",
]

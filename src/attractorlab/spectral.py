"""Eigenvalue sequences of the sectorial operator, spectral-gap quantities,
and the parity obstruction at the two equilibria.

Each equilibrium's linearization is block diagonal: 2x2 rotation blocks
[[-lambda_a, L], [-L, -lambda_b]] over the pairs of `site_pairs`, plus the
plus site's lone mode 1 with eigenvalue L - lambda_1.  A block's
characteristic polynomial x^2 + (lambda_a + lambda_b) x + lambda_a lambda_b
+ L^2 has discriminant (lambda_b - lambda_a)^2 - 4L^2, so the block has two
real eigenvalues (a double one at equality) exactly when its gap
lambda_b - lambda_a is at least 2L, and none otherwise.  No eigenvalue is
computed.

The sign is decided exactly for the stored doubles.  Every gap is rounded
toward -inf (`_gaps_down`), and 2L is a double, so a rounded gap is at
least 2L exactly when the exact gap is.  L0 is the largest such rounded
consecutive gap, and the two sites' blocks together take every consecutive
gap once, so every block is complex exactly when 2L > L0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "SpectrumError",
    "make_spectrum",
    "spectral_gap",
    "regime_bound",
    "site_pairs",
    "ObstructionVerdict",
    "c1_obstruction_check",
    "cube_width",
]


class SpectrumError(ValueError):
    """Invalid spectrum construction or truncation request."""


def cube_width(n: int) -> int:
    """ceil(sqrt(n)) for n >= 1, in exact integer arithmetic: the number of
    modes, and the log2 of the vertex count, of the level-n almost cube."""
    return math.isqrt(n - 1) + 1


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing positive eigenvalues lambda_1..lambda_{n_max} plus the
    growth family they were generated from ("linear", "power", "quadratic",
    "explicit")."""

    family: str
    n_max: int
    values: np.ndarray
    params: dict

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.n_max < 2:
            raise SpectrumError("need at least two eigenvalues")
        if len(vals) != self.n_max:
            raise SpectrumError("stored values disagree with n_max")
        if vals[0] <= 0.0:
            raise SpectrumError("eigenvalues must be positive")
        bad = np.nonzero(np.diff(vals) < 0)[0]
        if bad.size:
            raise SpectrumError(f"non-monotone eigenvalues at index {int(bad[0]) + 1}")

    def lam(self, n: int) -> float:
        """lambda_n, 1-based; extends analytically beyond the truncation for
        family spectra (explicit lists cannot extend)."""
        if 1 <= n <= self.n_max:
            return float(self.values[n - 1])
        if n < 1:
            raise SpectrumError(f"mode index {n} out of range")
        if self.family == "linear":
            return self.params["c"] * n
        if self.family == "power":
            return float(n ** self.params["kappa"])
        if self.family == "quadratic":
            return float(n * n)
        raise SpectrumError(
            f"mode {n} beyond stored truncation {self.n_max} of an explicit spectrum"
        )

    def truncated(self, n: int) -> "Spectrum":
        """The first n eigenvalues: past the stored truncation, the stored
        values followed by lam(k) for each new mode k."""
        if n > self.n_max:
            tail = [self.lam(k) for k in range(self.n_max + 1, n + 1)]
            return Spectrum(self.family, n, np.concatenate((self.values, tail)), self.params)
        return Spectrum(self.family, n, self.values[:n], self.params)


def make_spectrum(family: str, params=None, n_max: int = 2) -> Spectrum:
    """Build a truncated eigenvalue sequence for one of the growth families.

    families: "linear" (c*n), "power" (n^kappa), "quadratic" (n^2),
    "explicit" (validated list in params["values"]).
    """
    params = dict(params or {})
    if n_max < 2:
        raise SpectrumError("n_max must be at least 2")
    n = np.arange(1, n_max + 1, dtype=float)
    if family == "linear":
        c = float(params.get("c", 1.0))
        if c <= 0:
            raise SpectrumError("linear family needs c > 0")
        return Spectrum("linear", n_max, c * n, {"c": c})
    if family == "power":
        kappa = float(params.get("kappa", 1.0))
        if kappa <= 0:
            raise SpectrumError("power family needs kappa > 0")
        return Spectrum("power", n_max, n**kappa, {"kappa": kappa})
    if family == "quadratic":
        return Spectrum("quadratic", n_max, n**2, {})
    if family == "explicit":
        vals = np.asarray(params.get("values", ()), dtype=float)
        if len(vals) < 2:
            raise SpectrumError("explicit family needs at least two values")
        return Spectrum("explicit", len(vals), vals, {"values": tuple(map(float, vals))})
    raise SpectrumError(f"unknown spectrum family {family!r}")


def _gaps_down(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """upper - lower rounded toward -inf: the nearest-rounded difference,
    stepped down one ulp where its exact error (Knuth's TwoSum) is
    negative."""
    gaps = upper - lower
    z = gaps - upper
    err = (upper - (gaps - z)) - (lower + z)
    return np.where(err < 0, np.nextafter(gaps, -np.inf), gaps)


def spectral_gap(spec: Spectrum) -> float:
    """L0, the max consecutive gap of the stored sequence, rounded toward
    -inf; math.inf when the analytic family's gap diverges beyond any
    truncation (quadratic, and power with kappa > 1)."""
    if spec.family == "quadratic":
        return math.inf
    if spec.family == "power" and spec.params.get("kappa", 1.0) > 1.0:
        return math.inf
    return float(np.max(_gaps_down(spec.values[:-1], spec.values[1:])))


def regime_bound(spec: Spectrum) -> float:
    """max(L0/2, lambda_1), the bound a Lipschitz budget L must exceed for
    the rotation construction: 2L beats every in-block gap, so each rotation
    block has non-real eigenvalues, and the plus site's first-mode
    eigenvalue L - lambda_1 is positive.  math.inf for an unbounded gap."""
    return max(0.5 * spectral_gap(spec), float(spec.values[0]))


def site_pairs(n: int, site: str) -> tuple[np.ndarray, np.ndarray]:
    """0-based (first, second) modes of the 2x2 rotation blocks over n
    modes: the minus site pairs modes (2j-1, 2j), the plus site (2j, 2j+1).
    Mode 1 at the plus site, and a trailing mode with no partner, stay
    alone and appear in neither array."""
    start = 0 if site == "minus" else 1
    return np.arange(start, n - 1, 2), np.arange(start + 1, n, 2)


@dataclass(frozen=True)
class ObstructionVerdict:
    minus_real_count: int
    plus_real_count: int
    in_regime: bool
    minus_truncation: int
    plus_truncation: int
    note: str
    block_margin: float
    plus_margin: float


def _site_blocks(values: np.ndarray, n: int, site: str, twice: float) -> tuple[int, float]:
    """(real eigenvalue count, least twice - gap) over the 2x2 blocks of one
    site's n modes, twice = 2L, with each gap values[second] - values[first]
    rounded down.  A block counts 2 when its exact gap is at least 2L, else
    0."""
    first, second = site_pairs(n, site)
    gaps = _gaps_down(values[first], values[second])
    return 2 * int(np.count_nonzero(gaps >= twice)), float(np.min(twice - gaps))


def c1_obstruction_check(spec: Spectrum, coupling: float) -> ObstructionVerdict:
    """Parity obstruction to a finite-dimensional C^1 invariant manifold, at
    the full stored truncation: the minus site's even truncation n_minus
    and the plus site's odd one n_plus.

    The minus-site equilibrium forces even manifold dimension when its
    linearization has no real eigenvalues; the plus site forces odd when it
    has exactly one, the positive L - lambda_1 of its lone mode 1.  Each
    block's real count is 2 when its gap is at least 2L (a gap of exactly
    2L is a double real root) and 0 otherwise, decided exactly as in the
    module docstring.  So the counts are 0 and 1 exactly when
    L > regime_bound(spec) = max(L0/2, lambda_1), so in_regime certifies
    the parity contradiction.  Outside the regime the verdict reads "no
    obstruction certified".  block_margin is the least 2L - gap over both
    sites' blocks and plus_margin is L - lambda_1, both in double
    arithmetic.
    """
    n_trunc = spec.n_max
    if n_trunc < 3:
        raise SpectrumError("the obstruction needs a spectrum of at least 3 modes")
    n_minus = n_trunc if n_trunc % 2 == 0 else n_trunc - 1
    n_plus = n_trunc if n_trunc % 2 == 1 else n_trunc - 1

    twice = 2.0 * coupling
    minus_real, minus_least = _site_blocks(spec.values, n_minus, "minus", twice)
    plus_real, plus_least = _site_blocks(spec.values, n_plus, "plus", twice)

    in_regime = coupling > regime_bound(spec)
    if in_regime:
        note = (
            "parity contradiction: minus site forces even manifold dimension, "
            "plus site forces odd"
        )
    else:
        note = "no obstruction certified: L outside the regime L > max(L0/2, lambda_1)"
    return ObstructionVerdict(minus_real, 1 + plus_real, in_regime, n_minus, n_plus, note,
                              min(minus_least, plus_least), coupling - float(spec.values[0]))

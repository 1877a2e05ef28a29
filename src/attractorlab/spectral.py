"""Eigenvalue sequences of the sectorial operator, spectral-gap quantities,
and the two-equilibria linearization spectra with the parity obstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# An eigenvalue counts as real when its imaginary part is at noise level.
REAL_EIG_TOL = 1e-9
# Relative bound on the block-versus-dense eigenvalue distance.  A dense
# eigensolver resolves a coalescing (defective) rotation block, as at
# L = L0/2, only to about sqrt(machine eps): 1.8e-8 relative was the worst
# seen there on random spectra, against 7e-15 away from it.
DENSE_EIG_TOL = 1e-6

__all__ = [
    "Spectrum",
    "SpectrumError",
    "make_spectrum",
    "spectral_gap",
    "regime_bound",
    "block_eigenvalues",
    "site_pairs",
    "LinearizationSpectrum",
    "linearization_spectrum",
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
    params: dict = field(default_factory=dict)

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
        if n > self.n_max:
            vals = [self.lam(k) for k in range(1, n + 1)]
            return Spectrum(self.family, n, np.asarray(vals), self.params)
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


def spectral_gap(spec: Spectrum) -> float:
    """L0, the max consecutive gap of the stored sequence; math.inf when the
    analytic family's gap diverges beyond any truncation (quadratic, and
    power with kappa > 1)."""
    if spec.family == "quadratic":
        return math.inf
    if spec.family == "power" and spec.params.get("kappa", 1.0) > 1.0:
        return math.inf
    return float(np.max(np.diff(spec.values)))


def regime_bound(spec: Spectrum) -> float:
    """max(L0/2, lambda_1), the bound a Lipschitz budget L must exceed for
    the rotation construction: 2L beats every in-block gap, so each rotation
    block has non-real eigenvalues, and the plus site's first-mode
    eigenvalue L - lambda_1 is positive.  math.inf for an unbounded gap."""
    return max(0.5 * spectral_gap(spec), float(spec.values[0]))


def block_eigenvalues(lam_a: float, lam_b: float, coupling: float) -> tuple[complex, complex]:
    """Roots of x^2 + (lam_a+lam_b) x + lam_a*lam_b + L^2 = 0, the
    characteristic polynomial of the rotation-coupled 2x2 block.  Non-real
    exactly when 2L exceeds the in-block gap."""
    if not (0 < lam_a <= lam_b):
        raise SpectrumError("need 0 < lam_a <= lam_b")
    mean = 0.5 * (lam_a + lam_b)
    disc = (lam_b - lam_a) ** 2 - 4.0 * coupling**2
    if disc >= 0.0:
        r = 0.5 * math.sqrt(disc)
        return complex(-mean + r), complex(-mean - r)
    w = 0.5 * math.sqrt(-disc)
    return complex(-mean, w), complex(-mean, -w)


def site_pairs(n: int, site: str) -> tuple[np.ndarray, np.ndarray]:
    """0-based (first, second) modes of the 2x2 rotation blocks over n
    modes: the minus site pairs modes (2j-1, 2j), the plus site (2j, 2j+1).
    Mode 1 at the plus site, and a trailing mode with no partner, stay
    alone and appear in neither array."""
    start = 0 if site == "minus" else 1
    return np.arange(start, n - 1, 2), np.arange(start + 1, n, 2)


def _site_matrix(spec: Spectrum, coupling: float, n_trunc: int, site: str) -> np.ndarray:
    m = np.diag(-spec.values[:n_trunc])
    if site == "plus":
        m[0, 0] = coupling - spec.values[0]
    first, second = site_pairs(n_trunc, site)
    m[first, second] = coupling
    m[second, first] = -coupling
    return m


def _is_real(ev: complex) -> bool:
    return abs(ev.imag) <= REAL_EIG_TOL * (1.0 + abs(ev.real))


@dataclass(frozen=True)
class LinearizationSpectrum:
    site: str
    eigenvalues: tuple[complex, ...]
    real_count: int
    real_eigenvalues: tuple[float, ...]
    dense_mismatch: float


def linearization_spectrum(spec: Spectrum, coupling: float, site: str) -> LinearizationSpectrum:
    """Block-assembled spectrum of the linearization at one of the two
    equilibria, cross-checked against a dense eigensolver on the truncated
    matrix: dense_mismatch is the largest distance from an eigenvalue of
    either set to the nearest one of the other.

    site "minus" pairs modes (2n-1, 2n) and needs an even truncation; site
    "plus" isolates mode 1 (eigenvalue L - lambda_1) and pairs (2n, 2n+1),
    needing an odd truncation.
    """
    n = spec.n_max
    if site not in ("minus", "plus"):
        raise SpectrumError(f"unknown linearization site {site!r}")
    if site == "minus" and n % 2 != 0:
        raise SpectrumError(f"minus site would orphan trailing mode {n}; even truncation required")
    if site == "plus" and n % 2 != 1:
        raise SpectrumError(f"plus site would orphan trailing mode {n}; odd truncation required")

    eigs: list[complex] = [] if site == "minus" else [complex(coupling - spec.values[0])]
    for a, b in zip(*site_pairs(n, site)):
        eigs.extend(block_eigenvalues(spec.values[a], spec.values[b], coupling))

    # nearest-neighbour distance both ways: sorting both lists and pairing
    # them in order mismatches conjugate pairs whose real parts differ by an ulp
    dense = np.linalg.eigvals(_site_matrix(spec, coupling, n, site))
    dist = np.abs(np.asarray(eigs, dtype=complex)[:, None] - dense[None, :])
    mismatch = float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))

    reals = tuple(sorted(ev.real for ev in eigs if _is_real(ev)))
    return LinearizationSpectrum(site, tuple(eigs), len(reals), reals, mismatch)


@dataclass(frozen=True)
class ObstructionVerdict:
    minus_real_count: int
    plus_real_count: int
    parity_contradiction: bool
    in_regime: bool
    minus_truncation: int
    plus_truncation: int
    note: str


def c1_obstruction_check(spec: Spectrum, coupling: float) -> ObstructionVerdict:
    """Parity obstruction to a finite-dimensional C^1 invariant manifold, at
    the full stored truncation.

    The minus-site equilibrium forces even manifold dimension when its
    linearization has no real eigenvalues; the plus site forces odd when it
    has exactly one (positive) real eigenvalue.  The contradiction is only
    asserted in the regime L > regime_bound(spec) = max(L0/2, lambda_1);
    outside it the verdict reads "no obstruction certified".  Raises
    SpectrumError when a site's block-assembled eigenvalues disagree with
    the dense eigensolver by more than DENSE_EIG_TOL * (1 + max |eigenvalue|).
    """
    n_trunc = spec.n_max
    if n_trunc < 3:
        raise SpectrumError("the obstruction needs a spectrum of at least 3 modes")
    n_minus = n_trunc if n_trunc % 2 == 0 else n_trunc - 1
    n_plus = n_trunc if n_trunc % 2 == 1 else n_trunc - 1

    minus = linearization_spectrum(spec.truncated(n_minus), coupling, "minus")
    plus = linearization_spectrum(spec.truncated(n_plus), coupling, "plus")
    for site in (minus, plus):
        limit = DENSE_EIG_TOL * (1.0 + max(abs(ev) for ev in site.eigenvalues))
        if not site.dense_mismatch <= limit:
            raise SpectrumError(
                f"{site.site} site: block eigenvalues differ from the dense eigensolver "
                f"by {site.dense_mismatch:.3g} (limit {limit:.3g})")

    in_regime = coupling > regime_bound(spec)
    plus_unstable = plus.real_count == 1 and plus.real_eigenvalues[0] > 0.0
    contradiction = in_regime and minus.real_count == 0 and plus_unstable
    if not in_regime:
        note = "no obstruction certified: L outside the regime L > max(L0/2, lambda_1)"
    elif contradiction:
        note = (
            "parity contradiction: minus site forces even manifold dimension, "
            "plus site forces odd"
        )
    else:
        note = "no obstruction certified: eigenvalue pattern does not force a parity clash"
    return ObstructionVerdict(
        minus.real_count, plus.real_count, contradiction, in_regime, n_minus, n_plus, note
    )

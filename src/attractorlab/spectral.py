"""Eigenvalue sequences of the sectorial operator, spectral-gap quantities,
and the two-equilibria linearization spectra with the parity obstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# An eigenvalue counts as real when its imaginary part is at noise level.
REAL_EIG_TOL = 1e-9

__all__ = [
    "Spectrum",
    "SpectrumError",
    "make_spectrum",
    "spectral_gap",
    "block_eigenvalues",
    "LinearizationSpectrum",
    "linearization_spectrum",
    "ObstructionVerdict",
    "c1_obstruction_check",
]


class SpectrumError(ValueError):
    """Invalid spectrum construction or truncation request."""


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


def spectral_gap(spec: Spectrum):
    """max consecutive gap of the stored sequence, or the verdict "unbounded"
    when the analytic family's gap diverges beyond any truncation."""
    if spec.family == "quadratic":
        return "unbounded"
    if spec.family == "power" and spec.params.get("kappa", 1.0) > 1.0:
        return "unbounded"
    return float(np.max(np.diff(spec.values)))


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


def _site_matrix(spec: Spectrum, coupling: float, n_trunc: int, site: str) -> np.ndarray:
    lam = spec.values[:n_trunc]
    m = np.zeros((n_trunc, n_trunc))
    np.fill_diagonal(m, -lam)
    if site == "minus":
        pairs = [(2 * j, 2 * j + 1) for j in range(n_trunc // 2)]
    else:
        m[0, 0] = coupling - lam[0]
        pairs = [(2 * j + 1, 2 * j + 2) for j in range((n_trunc - 1) // 2)]
    for a, b in pairs:
        m[a, b] = coupling
        m[b, a] = -coupling
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
    matrix.

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

    eigs: list[complex] = []
    if site == "minus":
        pairs = [(2 * j + 1, 2 * j + 2) for j in range(n // 2)]
    else:
        eigs.append(complex(coupling - spec.values[0]))
        pairs = [(2 * j + 2, 2 * j + 3) for j in range((n - 1) // 2)]
    for a, b in pairs:
        eigs.extend(block_eigenvalues(spec.values[a - 1], spec.values[b - 1], coupling))

    dense = np.linalg.eigvals(_site_matrix(spec, coupling, n, site))
    order = np.lexsort((np.imag(dense), np.real(dense)))
    dense = dense[order]
    block = np.asarray(sorted(eigs, key=lambda z: (z.real, z.imag)), dtype=complex)
    mismatch = float(np.max(np.abs(block - dense)))

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


def c1_obstruction_check(spec: Spectrum, coupling: float, n_trunc: int | None = None) -> ObstructionVerdict:
    """Parity obstruction to a finite-dimensional C^1 invariant manifold.

    The minus-site equilibrium forces even manifold dimension when its
    linearization has no real eigenvalues; the plus site forces odd when it
    has exactly one (positive) real eigenvalue.  The contradiction is only
    asserted in the regime L > max(L0/2, lambda_1); outside it the verdict
    reads "no obstruction certified".
    """
    n_trunc = spec.n_max if n_trunc is None else n_trunc
    if n_trunc > spec.n_max or n_trunc < 3:
        raise SpectrumError("n_trunc must lie within the stored spectrum and be >= 3")
    n_minus = n_trunc if n_trunc % 2 == 0 else n_trunc - 1
    n_plus = n_trunc if n_trunc % 2 == 1 else n_trunc - 1

    minus = linearization_spectrum(spec.truncated(n_minus), coupling, "minus")
    plus = linearization_spectrum(spec.truncated(n_plus), coupling, "plus")

    gap = spectral_gap(spec)
    half_gap = math.inf if gap == "unbounded" else 0.5 * gap
    in_regime = coupling > max(half_gap, float(spec.values[0]))

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

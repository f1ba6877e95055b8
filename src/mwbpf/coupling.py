"""Coupling-section design for parallel-coupled-line bandpass filters.

Turns a lowpass prototype into per-section admittance-inverter values and
even/odd-mode impedances (the quantities a line calculator realizes), and
into the equivalent inter-resonator coupling coefficients / external Q used
by the coupled-resonator response model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prototype import ChebyshevPrototype


@dataclass(frozen=True)
class CouplingSection:
    """One coupled-line section: normalized inverter value and mode impedances."""

    j_over_y0: float
    z0e: float
    z0o: float

    def __post_init__(self):
        for name in ("j_over_y0", "z0e", "z0o"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.j_over_y0 < 0:
            raise ValueError("j_over_y0 must be non-negative")
        if not 0 < self.z0o <= self.z0e:
            raise ValueError(f"need z0e >= z0o > 0, got z0e={self.z0e:g}, z0o={self.z0o:g}")


@dataclass(frozen=True)
class CouplingDesign:
    z0: float
    sections: tuple[CouplingSection, ...]


@dataclass(frozen=True)
class CouplingMatrixModel:
    """Inline coupled-resonator description of a bandpass filter.

    ``k`` holds the n-1 adjacent-resonator coupling coefficients, ``qe_in`` /
    ``qe_out`` the port external quality factors, and ``qu`` the uniform
    unloaded resonator Q (``math.inf``, the default, is lossless).
    """

    n: int
    k: tuple[float, ...]
    qe_in: float
    qe_out: float
    f0: float
    fbw: float
    qu: float = math.inf

    def __post_init__(self):
        if len(self.k) != self.n - 1:
            raise ValueError("need n-1 coupling coefficients")
        if not all(map(math.isfinite, self.k)):
            raise ValueError("k must be finite")
        for name in ("qe_in", "qe_out", "f0", "fbw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if any(kk <= 0 for kk in self.k):
            raise ValueError("coupling coefficients must be positive")
        if self.qe_in <= 0 or self.qe_out <= 0:
            raise ValueError("external Q must be positive")
        if not self.qu > 0:  # NaN too; inf is lossless
            raise ValueError(f"unloaded Q qu must be positive, got {self.qu}")


def j_inverters(proto: ChebyshevPrototype, fbw: float) -> list[float]:
    """Normalized J-inverter values J/Y0 for the n+1 coupled sections.

    First section:        sqrt(pi*FBW / (2 g0 g1))
    Interior section k:   (pi*FBW/2) / sqrt(g_k g_{k+1})
    Last section:         sqrt(pi*FBW / (2 g_n g_{n+1}))
    """
    if not (0 < fbw < 1):
        raise ValueError("fractional bandwidth must be in (0, 1)")
    g = proto.g
    n = proto.n
    vals = [math.sqrt(math.pi * fbw / (2.0 * g[0] * g[1]))]
    for k in range(1, n):
        vals.append(math.pi * fbw / 2.0 / math.sqrt(g[k] * g[k + 1]))
    vals.append(math.sqrt(math.pi * fbw / (2.0 * g[n] * g[n + 1])))
    return vals


def even_odd_impedances(j_over_y0: float, z0: float) -> tuple[float, float]:
    """Even/odd-mode impedances realizing one J-inverter section.

    z0e = z0 (1 + J/Y0 + (J/Y0)^2),  z0o = z0 (1 - J/Y0 + (J/Y0)^2)
    """
    if j_over_y0 < 0:
        raise ValueError("j_over_y0 must be non-negative")
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    j = j_over_y0
    return z0 * (1.0 + j + j * j), z0 * (1.0 - j + j * j)


def design_coupling(proto: ChebyshevPrototype, fbw: float, z0: float) -> CouplingDesign:
    """All n+1 coupling sections for a prototype at the given bandwidth."""
    sections = []
    for j in j_inverters(proto, fbw):
        z0e, z0o = even_odd_impedances(j, z0)
        sections.append(CouplingSection(j_over_y0=j, z0e=z0e, z0o=z0o))
    return CouplingDesign(z0=z0, sections=tuple(sections))


def coupling_coefficients(
    proto: ChebyshevPrototype, fbw: float, f0: float, qu: float = math.inf
) -> CouplingMatrixModel:
    """Narrowband coupled-resonator parameters of the same prototype.

    k_{i,i+1} = FBW / sqrt(g_i g_{i+1}),  Qe = g0 g1 / FBW (and the mirror
    product at the load side). These realize the prototype exactly when used
    with the normalized inline coupling-matrix response.
    """
    if not (0 < fbw < 1):
        raise ValueError("fractional bandwidth must be in (0, 1)")
    g = proto.g
    n = proto.n
    k = tuple(fbw / math.sqrt(g[i] * g[i + 1]) for i in range(1, n))
    return CouplingMatrixModel(
        n=n,
        k=k,
        qe_in=g[0] * g[1] / fbw,
        qe_out=g[n] * g[n + 1] / fbw,
        f0=f0,
        fbw=fbw,
        qu=qu,
    )

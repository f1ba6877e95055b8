"""Coupling-section design for parallel-coupled-line bandpass filters.

Turns a lowpass prototype into per-section admittance-inverter values and
even/odd-mode impedances (the quantities a line calculator realizes), and
into the equivalent inter-resonator coupling coefficients / external Q used
by the coupled-resonator response model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prototype import ChebyshevPrototype, check_ranges, intervals


@dataclass(frozen=True)
class CouplingSection:
    """One coupled-line section: normalized inverter value and mode impedances."""

    j_over_y0: float
    z0e: float
    z0o: float

    # ohms; a j_over_y0 of 0 is an uncoupled section
    RANGES = intervals({"j_over_y0": "[0, inf)", "z0e": "(0, inf)", "z0o": "(0, inf)"})

    def __post_init__(self):
        check_ranges(self.RANGES, vars(self))
        if not self.z0o <= self.z0e:
            raise ValueError(f"need z0e >= z0o > 0, got z0e={self.z0e:g}, z0o={self.z0o:g}")


@dataclass(frozen=True)
class CouplingDesign:
    z0: float
    sections: tuple[CouplingSection, ...]

    RANGES = intervals({"z0": "(0, inf)"})  # ohm

    def __post_init__(self):
        check_ranges(self.RANGES, vars(self))
        if not self.sections:
            raise ValueError("need at least one coupling section")


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

    # f0 (GHz) and fbw as coupling_coefficients builds them: the sweep refuses
    # a prototype axis that they overflow. A qu of inf is lossless
    RANGES = intervals({"n": "[1, inf)", "k": "(0, inf)", "qe_in": "(0, inf)", "qe_out": "(0, inf)",
                        "f0": "(0, inf)", "fbw": "(0, 1)", "qu": "(0, inf]"})

    def __post_init__(self):
        check_ranges(self.RANGES, vars(self))
        if len(self.k) != self.n - 1:
            raise ValueError("need n-1 coupling coefficients")


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
    if not j_over_y0 >= 0:
        raise ValueError("j_over_y0 must be non-negative")
    if not z0 > 0:
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

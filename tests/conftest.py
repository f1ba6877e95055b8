import functools
import math
import os
import random

import numpy as np
import pytest
from hypothesis import settings

from mwbpf.design import synthesize_design
from mwbpf.materials import MaterialsRegistry
from mwbpf.microstrip import Substrate
from mwbpf.prototype import FilterSpec, design_prototype
from mwbpf.rfsim import _cascade_block, _product

# HYPOTHESIS_PROFILE=ci prints the reproducing blob of a failing example
# and drops the deadline, which a shared runner's timing would trip; example
# counts and randomization stay the defaults
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# the 2.52-2.65 GHz design this toolkit reproduces out of the box
PAPER_SPEC = dict(
    f_lower=2.52,
    f_upper=2.65,
    f0=2.58,
    ripple_db=0.01,
    stop_freq=2.77,
    stop_atten_db=25.0,
    z0=50.0,
)

# published reference values for that design (4-decimal rounding)
TABLE1_J = (0.3332, 0.0855, 0.0628, 0.0856, 0.3332)
TABLE1_ZE = (72.2092, 54.6432, 53.3393, 54.6435, 72.2092)
TABLE1_ZO = (38.8915, 46.0886, 47.0556, 46.0884, 38.8915)
TABLE2_FR4 = (  # (w, l, s) mm
    (2.352, 16.528, 0.47708),
    (3.305, 16.073, 2.738),
    (3.331, 16.0557, 4.54),
    (3.305, 16.073, 2.738),
    (2.352, 16.528, 0.47708),
)
TABLE3_RO3003 = (
    (1.543, 19.3057, 0.28032),
    (1.798, 18.7772, 1.2930),
    (1.995, 18.7625, 2.0327),
    (1.798, 18.7772, 1.2930),
    (1.543, 19.3057, 0.28032),
)
# gaps (mm) at which a 2-D field solve realizes TABLE1_ZE/ZO on each board,
# as printed by coupled_line_oracle.py; the published S column does not
ORACLE_GAPS_FR4 = (0.3605, 2.293, 3.005, 2.293, 0.3605)
ORACLE_GAPS_RO3003 = (0.1354, 1.064, 1.424, 1.064, 0.1354)
PCL_FR4_SIZE = (73.765, 27.506)  # mm
ML_FR4_SIZE = (38.66, 31.41)  # mm


# independent oracle: the equal-ripple transfer via the polynomial recurrence
def chebyshev_recurrence(n: int, x: float) -> float:
    t_prev, t = 1.0, x
    if n == 0:
        return t_prev
    for _ in range(n - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


def equal_ripple_s21_db(f: float, f0: float, fbw: float, n: int, ripple_db: float) -> float:
    omega = (f / f0 - f0 / f) / fbw
    eps_sq = 10.0 ** (ripple_db / 10.0) - 1.0
    t = chebyshev_recurrence(n, omega)
    return -10.0 * math.log10(1.0 + eps_sq * t * t)


# one section, and chain products, through sweep_pcl's kernel
def section_chain(mp, l, f, alpha=(0.0, 0.0)):
    """Chain matrix [..., 2, 2] of one edge-coupled section of modes ``mp``
    and length ``l`` mm at the frequencies ``f`` GHz, a number or an array.
    ``alpha`` holds the even- and odd-mode attenuations in Np/m, each a
    number or an array over ``f``."""
    f = np.asarray(f, dtype=float)
    points = f.reshape(-1)
    alphas = np.stack(np.broadcast_arrays(*alpha, points)[:2])[None]
    zm = np.array([[[mp.z0e], [mp.z0o]]])
    root_eps = np.array([[[math.sqrt(mp.eps_eff_e)], [math.sqrt(mp.eps_eff_o)]]])
    # one distinct section of two mode rows: the attenuations need not follow eps_eff
    out = _cascade_block(zm, root_eps, alphas, np.array([[[l]]]), np.array([0]), points)
    return np.moveaxis(out, (0, 1), (-2, -1)).reshape(f.shape + (2, 2))


def chain_product(*ms):
    """Ordered chain-matrix product of two-ports [..., 2, 2]."""
    stacked = functools.reduce(_product, (np.moveaxis(m, (-2, -1), (0, 1)) for m in ms))
    return np.moveaxis(stacked, (0, 1), (-2, -1))


def design_space_case(seed, registry):
    """A spec and substrate drawn like perfbench's design_space workload."""
    rng = random.Random(seed)
    f0 = rng.uniform(1.0, 10.0)
    bw = rng.uniform(0.02, 0.20) * f0
    f_lower = (math.sqrt(bw * bw + 4.0 * f0 * f0) - bw) / 2.0
    spec = FilterSpec(
        f_lower=f_lower, f_upper=f_lower + bw, f0=f0,
        ripple_db=rng.choice((0.01, 0.05, 0.1, 0.5)), stop_atten_db=rng.uniform(15.0, 45.0),
        stop_freq=f_lower + bw * rng.uniform(1.3, 2.5),
    )
    if rng.random() < 0.25:
        return spec, registry.get(rng.choice(("FR4", "RO3003")))
    return spec, Substrate(name=f"gen{seed}", eps_r=rng.uniform(2.0, 12.0),
                           tan_d=rng.uniform(0.0, 0.03), h=rng.uniform(0.1, 3.0))


@pytest.fixture(scope="session")
def paper_spec():
    return FilterSpec(**PAPER_SPEC)


@pytest.fixture(scope="session")
def paper_proto(paper_spec):
    return design_prototype(paper_spec)


@pytest.fixture(scope="session")
def registry():
    return MaterialsRegistry()


@pytest.fixture(scope="session")
def fr4(registry):
    return registry.get("FR4")


@pytest.fixture(scope="session")
def ro3003(registry):
    return registry.get("RO3003")


@pytest.fixture(scope="session")
def fr4_design(paper_spec, fr4):
    return synthesize_design(paper_spec, fr4, created="2026-01-01T00:00:00+00:00")


@pytest.fixture(scope="session")
def ro3003_design(paper_spec, ro3003):
    return synthesize_design(paper_spec, ro3003, created="2026-01-01T00:00:00+00:00")

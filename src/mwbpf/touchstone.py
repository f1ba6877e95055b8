"""Touchstone v1.1 and CSV emitters for two-port sweep results.

Writers are byte-stable for identical inputs; provenance lines carry no
timestamp unless one is passed in explicitly.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path

import numpy as np

from .rfsim import SParamResult

_BLOCK = 256  # rows formatted per block: bounds the text-building temporaries


def _fmt(x: float) -> str:
    # >= 9 significant decimals, exact zeros written bare
    if x == 0.0:
        return "0"
    return f"{x:.9f}"


def _blocks(result: SParamResult, columns):
    """Frequencies (a list) and S entries (0 = S11, 1 = S12, 2 = S21, 3 = S22)."""
    s = result.s.reshape(-1, 4)
    for lo in range(0, len(s), _BLOCK):
        yield result.frequencies[lo:lo + _BLOCK].tolist(), s[lo:lo + _BLOCK].take(columns, axis=1)


def touchstone_text(result: SParamResult, comments: tuple[str, ...] = ()) -> str:
    """Render a 2-port Touchstone v1.1 document (GHz, S, real/imaginary)."""
    if not len(result.frequencies):
        raise ValueError("empty sweep result")
    lines = [f"! {c}" for c in comments]
    lines.append(f"# GHz S RI R {result.z0:g}")
    lines.append("! f_GHz Re(S11) Im(S11) Re(S21) Im(S21) Re(S12) Im(S12) Re(S22) Im(S22)")
    for freqs, block in _blocks(result, [0, 2, 1, 3]):
        for f, row in zip(freqs, block.view(float).tolist()):  # re, im pairs
            lines.append(" ".join(map(_fmt, [f, *row])))
    return "\n".join(lines) + "\n"


def write_touchstone(
    result: SParamResult, path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    Path(path).write_text(touchstone_text(result, comments), encoding="ascii")


_UNIT_SCALE = {"hz": 1e-9, "khz": 1e-6, "mhz": 1e-3, "ghz": 1.0}


def read_touchstone(path: str | Path) -> SParamResult:
    """Parse a 2-port Touchstone file (RI, MA or DB formats)."""
    lines = [raw.split("!", 1)[0].strip() for raw in Path(path).read_text(encoding="ascii").splitlines()]
    options = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if line and not line.startswith("#")]
    if not options or not data:
        raise ValueError("missing option line or data")
    toks = options[-1][1:].lower().split()
    opts = ["ghz", "s", "ma", "r", "50"]
    opts[: len(toks)] = toks
    unit, kind, fmt, _, z0_s = opts
    if kind != "s":
        raise ValueError("only S-parameter files are supported")
    rows = np.array([line.split() for line in data], dtype=float)  # ragged rows raise
    if rows.shape[1] != 9:
        raise ValueError("expected 9 columns per two-port data line")
    a, b = rows[:, 1::2], rows[:, 2::2]  # S11, S21, S12, S22 pairs
    if fmt == "ri":
        s = a + 1j * b
    elif fmt in ("ma", "db"):
        mag = a if fmt == "ma" else 10 ** (a / 20.0)
        s = mag * np.cos(np.radians(b)) + 1j * (mag * np.sin(np.radians(b)))
    else:
        raise ValueError(f"unsupported format {fmt!r}")
    return SParamResult(
        rows[:, 0] * _UNIT_SCALE[unit], s[:, [0, 2, 1, 3]].reshape(-1, 2, 2), float(z0_s)
    )


def csv_text(result: SParamResult) -> str:
    """Magnitude/phase table matching what response plots show."""
    lines = ["f_GHz,S11_dB,S11_deg,S21_dB,S21_deg"]
    for freqs, block in _blocks(result, [0, 2]):
        for f, (s11, s21) in zip(freqs, block.tolist()):
            s11_db = 20.0 * math.log10(abs(s11)) if s11 != 0 else -300.0
            s21_db = 20.0 * math.log10(abs(s21)) if s21 != 0 else -300.0
            lines.append(
                ",".join(
                    (
                        _fmt(f),
                        f"{s11_db:.6f}",
                        f"{math.degrees(cmath.phase(s11)):.6f}",
                        f"{s21_db:.6f}",
                        f"{math.degrees(cmath.phase(s21)):.6f}",
                    )
                )
            )
    return "\n".join(lines) + "\n"


def write_csv(result: SParamResult, path: str | Path) -> None:
    Path(path).write_text(csv_text(result), encoding="ascii")

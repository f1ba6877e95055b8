"""Touchstone v1.1 and CSV emitters for two-port sweep results.

Writers are byte-stable for identical inputs; provenance lines carry no
timestamp unless one is passed in explicitly.

A field is what ``f"{v:.9f}"`` writes (Touchstone, and the CSV frequency)
or ``f"{v:.6f}"`` (CSV dB and degrees); Touchstone writes an exact zero as
``0``, and CSV writes S = 0 as -300 dB. The emitters render a block of rows
at once: ``n = rint(|v| 10^d)`` is split into groups of three digits, each
looked up in a table as the bytes of one uint32, and a row's text is the
bytes of its words with the NUL bytes left out. A row is rendered by the
per-field scalar code instead when any of its fields

- is not finite (S = 0 gives a CSV dB of -inf) or has ``|v| >= 999``, so
  that the integer part is one group;
- is an exact zero;
- lies within a few ulp of a rounding tie, relative to ``|v| 10^d``: 4 in
  Touchstone, 64 in CSV, whose dB and degrees numpy may compute a last bit
  away from ``math.log10`` and ``math.atan2``.

Outside these rows the rounding of ``|v| 10^d`` in floating point cannot
move ``n``. The sign comes from what the scalar code's sign depends on, so
a field that rounds to zero keeps it too: ``20 log10 |S|`` is negative
exactly when ``|S| < 1`` (``np.hypot`` is the ``abs`` of a Python complex;
numpy's complex ``abs`` can differ in the last bit), and the phase has the
sign of ``Im S``, as C's ``atan2`` does.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .rfsim import SParamResult

_BLOCK = 512  # rows rendered per block: bounds the text-building temporaries
_EPS = 2.0**-52

# Three digits per little-endian uint32, so that the bytes are in text order:
# "000".."999" and, for the integer part, "0.".."999." with NULs for the
# leading zeros. Built from bytes: numpy arithmetic here paged in numpy code
# at import and raised the importing process's peak RSS by 0.5 MB.
_DIGITS = np.frombuffer(b"".join(b"%03d\0" % k for k in range(1000)), "<u4")
_INTEGER = np.frombuffer(b"".join(b"%3d." % k for k in range(1000)).replace(b" ", b"\0"), "<u4")


def _fmt(x: float) -> str:
    # >= 9 significant decimals, exact zeros written bare
    if x == 0.0:
        return "0"
    return f"{x:.9f}"


def _touchstone_row(f: float, ri: list[float]) -> str:
    return " ".join(map(_fmt, [f, *ri]))


def _csv_row(f: float, s11: complex, s21: complex) -> str:
    fields = [_fmt(f)]
    for s in (s11, s21):
        db = 20.0 * math.log10(abs(s)) if s != 0 else -300.0
        fields += (f"{db:.6f}", f"{math.degrees(math.atan2(s.imag, s.real)):.6f}")
    return ",".join(fields)


def _fields(
    x: np.ndarray, decimals: int, negative: np.ndarray, seps: np.ndarray, tie_ulps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each v of ``x[R, C]`` after the separator ``seps[C]``: the separator and
    ``f"{v:.{decimals}f}"``, signed by ``negative``, as uint32 words
    ``[R, C, 2 + decimals // 3]`` whose bytes are that text with NULs among
    them; and the rows that need the scalar code."""
    scale = 10.0**decimals
    a = np.abs(x)
    ok = a < 999.0  # False for inf and nan
    y = np.where(ok, a, 0.0) * scale
    ok &= (x != 0) & (np.abs(y - np.floor(y) - 0.5) > tie_ulps * _EPS * y)
    n = np.rint(y).astype(np.int64)
    words = np.empty(x.shape + (2 + decimals // 3,), _DIGITS.dtype)
    words[..., 0] = seps | negative * np.uint32(ord("-") << 8)
    q = n // 10**decimals
    words[..., 1] = _INTEGER.take(q)
    n -= q * 10**decimals
    for k in range(words.shape[-1] - 1, 2, -1):
        high = n // 1000
        words[..., k] = _DIGITS.take(n - high * 1000)
        n = high
    words[..., 2] = _DIGITS.take(n)
    return words, ~ok.all(axis=1)


def _rows(columns, sep: str, tie_ulps: int, scalar_row) -> str:
    """Rows, each a newline and then the fields of ``columns``, a list of
    ``(x[R, C], decimals, negative[R, C])`` laid side by side, joined by
    ``sep``; row i is ``scalar_row(i)`` where the module docstring says."""
    parts, bad = [], False
    for x, decimals, negative in columns:
        seps = np.full(x.shape[1], ord(sep), np.uint32)
        if not parts:
            seps[0] = ord("\n")
        words, rows_bad = _fields(x, decimals, negative, seps, tie_ulps)
        parts.append(words.reshape(len(x), -1))
        bad = bad | rows_bad
    text = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode("ascii")
    if not bad.any():
        return text
    rows = text.split("\n")  # rows[0] is the empty text before the first row
    for i in np.flatnonzero(bad).tolist():
        rows[i + 1] = scalar_row(i)
    return "\n".join(rows)


def touchstone_text(result: SParamResult, comments: tuple[str, ...] = ()) -> str:
    """Render a 2-port Touchstone v1.1 document (GHz, S, real/imaginary)."""
    if not len(result.frequencies):
        raise ValueError("empty sweep result")
    lines = [f"! {c}" for c in comments]
    lines.append(f"# GHz S RI R {result.z0:g}")
    lines.append("! f_GHz Re(S11) Im(S11) Re(S21) Im(S21) Re(S12) Im(S12) Re(S22) Im(S22)")
    text = ["\n".join(lines)]
    s = result.s.reshape(-1, 4)
    for lo in range(0, len(s), _BLOCK):
        f = result.frequencies[lo:lo + _BLOCK]
        ri = s[lo:lo + _BLOCK].take([0, 2, 1, 3], axis=1).view(float)  # re, im pairs
        x = np.column_stack([f, ri])
        text.append(_rows([(x, 9, np.signbit(x))], " ", 4,
                          lambda i: _touchstone_row(float(f[i]), ri[i].tolist())))
    text.append("\n")
    return "".join(text)


def write_touchstone(
    result: SParamResult, path: str | Path, comments: tuple[str, ...] = ()
) -> None:
    Path(path).write_text(touchstone_text(result, comments), encoding="ascii")


_UNIT_SCALE = {"hz": 1e-9, "khz": 1e-6, "mhz": 1e-3, "ghz": 1.0}


def read_touchstone(path: str | Path) -> SParamResult:
    """Parse a 2-port Touchstone file (RI, MA or DB formats). The last option
    line reads ``# <unit> S <format> R <z0>``; fields left out take their
    defaults, ``# GHz S MA R 50``."""
    lines = [raw.split("!", 1)[0].strip() for raw in Path(path).read_text(encoding="ascii").splitlines()]
    options = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if line and not line.startswith("#")]
    if not options or not data:
        raise ValueError("missing option line or data")
    toks = options[-1][1:].lower().split()
    if len(toks) > 5:
        raise ValueError(f"option line {options[-1]!r} has more than 5 fields")
    opts = ["ghz", "s", "ma", "r", "50"]
    opts[: len(toks)] = toks
    unit, kind, fmt, r, z0_s = opts
    if r != "r":
        raise ValueError(f"option line {options[-1]!r}: the 4th field must be R, "
                         "followed by the reference impedance")
    if kind != "s":
        raise ValueError("only S-parameter files are supported")
    if unit not in _UNIT_SCALE:
        raise ValueError(f"unsupported frequency unit {unit!r}")
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
    text = ["f_GHz,S11_dB,S11_deg,S21_dB,S21_deg"]
    for lo in range(0, len(result.frequencies), _BLOCK):
        f = result.frequencies[lo:lo + _BLOCK, None]
        s = result.s[lo:lo + _BLOCK, :, 0]  # S11, S21
        mag = np.hypot(s.real, s.imag)  # abs() of a Python complex, bit for bit; np.abs(s) is not
        db = 20.0 * np.log10(mag, out=np.full(mag.shape, -np.inf), where=mag != 0)
        table = np.stack([db, np.degrees(np.angle(s))], axis=2).reshape(len(s), 4)
        negative = np.stack([mag < 1, np.signbit(s.imag)], axis=2).reshape(len(s), 4)
        text.append(_rows([(f, 9, np.signbit(f)), (table, 6, negative)], ",", 64,
                          lambda i: _csv_row(float(f[i, 0]), *s[i].tolist())))
    text.append("\n")
    return "".join(text)


def write_csv(result: SParamResult, path: str | Path) -> None:
    Path(path).write_text(csv_text(result), encoding="ascii")

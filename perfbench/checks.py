"""Correctness checks on what mwbpf emits, written in plain Python.

The checks read results only through the emitters' text (Touchstone, CSV,
SVG, design JSON, CLI stdout), so they hold whatever mwbpf keeps inside an
``SParamResult``. Any violated invariant raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

# Touchstone values carry 9 decimals, so each one is off by at most this much.
HALF_ULP = 5e-10
LOSSLESS_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output violates an invariant, a golden file or a round trip."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parse_touchstone(text: str) -> tuple[float, list[list[float]]]:
    """Reference impedance and the 9-column data rows of a 2-port RI file."""
    z0 = None
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("!"):
            continue
        if line.startswith("#"):
            opts = line[1:].split()
            require(opts[:4] == ["GHz", "S", "RI", "R"], f"option line {line!r}")
            z0 = float(opts[4])
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise CheckFailed(f"unparsable data line {line!r}") from exc
        require(len(row) == 9, f"expected 9 columns, got {len(row)}: {line!r}")
        rows.append(row)
    require(z0 is not None, "missing option line")
    return z0, rows


def check_touchstone(
    text: str, n_points: int, span: tuple[float, float], lossless: bool
) -> list[list[float]]:
    """Shape, span, finiteness, reciprocity, passivity (or unitarity)."""
    z0, rows = parse_touchstone(text)
    require(z0 == 50.0, f"reference impedance {z0} ohm, every workload asks for 50")
    require(len(rows) == n_points, f"{len(rows)} data lines, expected {n_points}")
    require(abs(rows[0][0] - span[0]) <= 1e-9, f"sweep starts at {rows[0][0]}")
    require(abs(rows[-1][0] - span[1]) <= 1e-9, f"sweep stops at {rows[-1][0]}")
    prev = -math.inf
    for f, *v in rows:
        require(all(map(math.isfinite, v)) and math.isfinite(f), f"non-finite at {f} GHz")
        require(f > prev, f"frequencies not ascending at {f} GHz")
        prev = f
        require(v[2] == v[4] and v[3] == v[5], f"S12 != S21 at {f} GHz")
        power = v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]
        rounding = 2.0 * HALF_ULP * sum(abs(x) for x in v[:4]) + 4.0 * HALF_ULP**2
        if lossless:
            require(
                abs(power - 1.0) <= LOSSLESS_TOL + rounding,
                f"|S11|^2+|S21|^2 = {power!r} at {f} GHz, lossless sweep",
            )
        else:
            require(power <= 1.0 + rounding, f"|S11|^2+|S21|^2 = {power!r} > 1 at {f} GHz")
    return rows


def check_csv_matches(csv: str, rows: list[list[float]]) -> None:
    """The CSV table and the Touchstone file describe the same sweep."""
    lines = csv.splitlines()
    require(lines[0] == "f_GHz,S11_dB,S11_deg,S21_dB,S21_deg", f"CSV header {lines[0]!r}")
    require(len(lines) - 1 == len(rows), f"{len(lines) - 1} CSV rows for {len(rows)} points")
    for line, row in zip(lines[1:], rows):
        f, _, _, s21_db, _ = (float(tok) for tok in line.split(","))
        require(f == row[0], f"CSV frequency {f} vs Touchstone {row[0]}")
        mag = math.hypot(row[3], row[4])
        # CSV dB has 6 decimals (1.2e-7 relative); Touchstone parts 9 decimals
        require(
            abs(10.0 ** (s21_db / 20.0) - mag) <= 4 * HALF_ULP + 1e-6 * mag,
            f"CSV |S21| disagrees with Touchstone at {f} GHz",
        )


def check_band_metrics(m, span: tuple[float, float]) -> None:
    vals = (m.f_c, m.bw_3db, m.il_db, m.rl_db, m.f_lower_3db, m.f_upper_3db)
    require(all(map(math.isfinite, vals)), f"non-finite band metrics {m}")
    require(span[0] <= m.f_lower_3db < m.f_c < m.f_upper_3db <= span[1], f"band edges {m}")
    require(m.il_db <= 1e-6 and m.rl_db <= 1e-6, f"gain above 0 dB in {m}")


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    require(root.tag.endswith("svg"), f"root element {root.tag}")
    require("bounds_mm:" in text, "SVG lacks the bounds comment")


def check_design_json(text: str, n: int) -> None:
    doc = json.loads(text)
    require(doc["prototype"]["n"] == n, f"order {doc['prototype']['n']}, expected {n}")
    dims = doc["dims_mm"]
    require(len(dims) == n + 1, f"{len(dims)} sections for order {n}")
    for d in dims:
        require(all(d[k] > 0 and math.isfinite(d[k]) for k in "wsl"), f"dimensions {d}")


def check_round_trip(z0e: float, z0o: float, realized_z0e: float, realized_z0o: float) -> None:
    """Synthesized (w, s) reproduce the requested mode impedances to 1e-6."""
    require(
        abs(realized_z0e / z0e - 1.0) <= 1e-6 and abs(realized_z0o / z0o - 1.0) <= 1e-6,
        f"round trip ({realized_z0e}, {realized_z0o}) vs ({z0e}, {z0o})",
    )

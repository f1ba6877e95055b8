"""Command-line surface: synth, simulate, layout, materials, compare.

Config and design files are JSON (nested key/value); see CONFIG_HELP.
Each failure class has its exit code and ``error:`` line in EXIT_CODES, and
each warning prints one ``warning:`` line.

Only the materials registry, which every command reads, is imported here;
each command imports the rest of what it runs, so that ``materials list``
loads no sweep, layout or emitter code. The registry's substrate model
imports numpy, which perfbench's ``startup_ms`` (``perfbench/run.py``) reads
from ``python -X importtime -c "import mwbpf.cli"``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .materials import UnknownMaterial, default_registry, expect_json, read_record
from .microstrip import CouplingUnreachable, NoConvergence

CONFIG_HELP = """\
Config file (JSON):
  {
    "spec": {
      "f_lower_ghz": 2.52, "f_upper_ghz": 2.65, "f0_ghz": 2.58,
      "ripple_db": 0.01, "stop_freq_ghz": 2.77, "stop_atten_db": 25.0,
      "z0_ohm": 50.0
    },
    "substrate": "FR4"
  }
f0_ghz is optional (defaults to the geometric band-edge mean). The
substrate must name a registry entry ("mwbpf materials list"); extra
materials can be supplied via the MWBPF_MATERIALS environment variable
pointing at a JSON file {"materials": [{"name", "eps_r", "tan_d", "h",
"t", "conductivity"}, ...]}.
"""

# (failure classes, exit code, prefix of the "error:" line). The first row
# that matches wins, so a typed failure precedes the ValueError or KeyError
# it derives from; exit 7 is invalid input of any kind (see the README). A
# class named "module.Class" is looked up when a failure is matched, in its
# module if the command loaded it: a failure cannot be an instance of a
# class whose module was never imported.
EXIT_CODES = (
    ("prototype.UnsatisfiableSpec", 2, "unsatisfiable specification: "),
    (UnknownMaterial, 3, ""),
    ((NoConvergence, CouplingUnreachable), 4, "synthesis failed: "),
    ("rfsim.BandEdgeOutOfRange", 5, ""),
    ("layout.FoldTooTight", 6, "layout infeasible: "),
    (KeyError, 7, "invalid input: missing key "),
    ((ValueError, OverflowError, OSError, MemoryError), 7, "invalid input: "),
)


def _load_spec_config(path: str):
    """The ``FilterSpec`` and the substrate name of a config file."""
    from .design import SPEC_KEYS
    from .prototype import FilterSpec

    data = expect_json(json.loads(Path(path).read_text()), dict, "config")
    spec = read_record(FilterSpec, data["spec"], "spec", SPEC_KEYS)
    return spec, expect_json(data["substrate"], str, "substrate")


def _given(args, *names) -> dict:
    """The options among ``names`` given on the command line. They default to
    ``argparse.SUPPRESS``, so an option left out takes the library's default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _sweep(args):
    from .rfsim import FrequencySweep

    return FrequencySweep(**_given(args, "f_start", "f_stop", "n_points"))


def cmd_synth(args) -> int:
    from datetime import datetime, timezone

    from .design import save_design, synthesize_design

    spec, substrate_name = _load_spec_config(args.config)
    sub = default_registry().get(substrate_name)
    created = None
    if args.epoch is not None:
        created = datetime.fromtimestamp(args.epoch, timezone.utc).isoformat(timespec="seconds")
    doc = synthesize_design(spec, sub, created=created)
    save_design(doc, args.out)

    print(f"order n = {doc.prototype.n}, ripple {doc.prototype.ripple_db} dB")
    print("g-values: " + ", ".join(f"{g:.4f}" for g in doc.prototype.g))
    print("\nsection   J/Y0      Z0e (ohm)  Z0o (ohm)")
    for i, s in enumerate(doc.coupling.sections):
        print(f"{i:>7}   {s.j_over_y0:.4f}    {s.z0e:8.4f}   {s.z0o:8.4f}")
    print(f"\nsection   W (mm)    S (mm)    L (mm)   [{sub.name}]")
    for i, d in enumerate(doc.dims):
        print(f"{i:>7}   {d.w:7.3f}   {d.s:7.3f}   {d.l:7.3f}")
    print(f"\nwrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    from .design import load_design, simulate
    from .rfsim import extract_metrics
    from .touchstone import write_csv, write_touchstone

    doc = load_design(args.design)
    sub = default_registry().get(doc.substrate)
    result = simulate(doc, sub, args.mode, _sweep(args), lossy=args.lossy)
    # metrics first: a sweep that misses the band edges writes no artifact
    m = extract_metrics(result, rl_band=(doc.spec.f_lower, doc.spec.f_upper))

    comments = (
        f"generated by {doc.tool} ({doc.created})",
        f"mode={args.mode} lossy={args.lossy} substrate={doc.substrate}",
    )
    s2p_path = f"{args.out_prefix}.s2p"
    csv_path = f"{args.out_prefix}.csv"
    write_touchstone(result, s2p_path, comments=comments)
    write_csv(result, csv_path)

    target_bw = doc.spec.fbw() * doc.spec.f0 * 1e3
    print(f"f_c       = {m.f_c:.4f} GHz")
    print(f"-3dB band = {m.f_lower_3db:.4f} .. {m.f_upper_3db:.4f} GHz")
    print(f"BW        = {m.bw_3db:.1f} MHz (ripple-level target {target_bw:.1f} MHz)")
    print(f"IL at f_c = {m.il_db:.3f} dB")
    print(f"worst RL  = {m.rl_db:.3f} dB")
    il_ok = m.il_db > -3.0
    rl_ok = m.rl_db < -20.0
    print(f"spec check: IL > -3 dB: {'PASS' if il_ok else 'FAIL'}; "
          f"RL < -20 dB: {'PASS' if rl_ok else 'FAIL'}; "
          f"BW {m.bw_3db:.1f} MHz vs target {target_bw:.1f} MHz "
          f"({m.bw_3db / target_bw - 1:+.1%} relative)")
    print(f"wrote {s2p_path}, {csv_path}")
    return 0


def cmd_layout(args) -> int:
    from .design import design_layout, load_design
    from .layout import export_svg

    doc = load_design(args.design)
    sub = default_registry().get(doc.substrate)
    geometry = _given(args, "arm_gap", "overlap", "planar_gap")
    lay = design_layout(doc, sub, args.kind, **geometry)
    Path(args.out).write_text(export_svg(lay), encoding="ascii")
    print(f"{args.kind} bounding box: {lay.bounds[0]:.3f} x {lay.bounds[1]:.3f} mm "
          f"(area {lay.area():.1f} mm^2)")
    if args.compare:
        pcl = lay if args.kind == "pcl" else design_layout(doc, sub, "pcl")
        ml = lay if args.kind == "ml" else design_layout(doc, sub, "ml", **geometry)
        ratio = ml.area() / pcl.area()
        print(f"area ratio multilayer/edge-coupled = {ratio:.3f}")
    print(f"wrote {args.out}")
    return 0


def cmd_materials(args) -> int:
    substrates = default_registry().substrates()
    print(f"{'name':<10} {'eps_r':>6} {'tan_d':>8} {'h_mm':>6} {'t_mm':>6} {'sigma_S/m':>10}")
    for sub in substrates:
        print(
            f"{sub.name:<10} {sub.eps_r:>6.2f} {sub.tan_d:>8.4f} "
            f"{sub.h:>6.3f} {sub.t:>6.3f} {sub.conductivity:>10.2e}"
        )
    return 0


def cmd_compare(args) -> int:
    from .design import design_layout, simulate, synthesize_design
    from .rfsim import extract_metrics

    spec, _ = _load_spec_config(args.config)
    registry = default_registry()
    sweep = _sweep(args)
    names = ("FR4", "RO3003")
    rows = []
    for name in names:
        sub = registry.get(name)
        doc = synthesize_design(spec, sub)
        mode = "physical" if args.mode == "pcl" else "ml"
        result = simulate(doc, sub, mode, sweep, lossy=True)
        m = extract_metrics(result, rl_band=(spec.f_lower, spec.f_upper))
        rows.append((m, design_layout(doc, sub, args.mode)))

    def row(label, cells):
        print(f"{label:<28}" + "".join(f" {cell:>14}" for cell in cells))

    print(f"{args.mode} filter comparison (lossy simulation)")
    row("property", names)
    for label, field in (
        ("lower cut-off f_L (GHz)", "f_lower_3db"),
        ("upper cut-off f_U (GHz)", "f_upper_3db"),
        ("FC (GHz)", "f_c"),
        ("S21 at FC (dB)", "il_db"),
        ("worst in-band S11 (dB)", "rl_db"),
        ("BW (MHz)", "bw_3db"),
    ):
        row(label, (f"{getattr(m, field):.4f}" for m, _ in rows))
    row("size (mm)", (f"{lay.bounds[0]:.2f} x {lay.bounds[1]:.2f}" for _, lay in rows))
    return 0


def _add_sweep_options(p: argparse.ArgumentParser) -> None:
    # defaults: FrequencySweep's (see _given)
    p.add_argument("--f-start", type=float, default=argparse.SUPPRESS, dest="f_start")
    p.add_argument("--f-stop", type=float, default=argparse.SUPPRESS, dest="f_stop")
    p.add_argument("--points", type=int, default=argparse.SUPPRESS, dest="n_points",
                   metavar="POINTS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwbpf",
        description="Microstrip bandpass filter synthesis, simulation, and layout.",
        epilog=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a design from a config file",
                       epilog=CONFIG_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="design document to write (JSON)")
    p.add_argument("--epoch", type=float, default=None,
                   help="fixed POSIX timestamp for reproducible provenance")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="sweep S-parameters of a design")
    p.add_argument("--design", required=True)
    p.add_argument("--mode", choices=("ideal", "physical", "ml"), default="ideal",
                   help="ideal: synthesis impedances, quarter-wave sections; "
                        "physical: from synthesized dimensions; "
                        "ml: coupled-resonator model")
    p.add_argument("--lossy", action="store_true",
                   help="include substrate loss (physical/ml modes)")
    _add_sweep_options(p)
    p.add_argument("--out-prefix", required=True, dest="out_prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("layout", help="emit an SVG layout")
    p.add_argument("--design", required=True)
    p.add_argument("--kind", choices=("pcl", "ml"), required=True)
    p.add_argument("--out", required=True)
    # defaults: design_layout's (see _given)
    p.add_argument("--arm-gap", type=float, default=argparse.SUPPRESS, dest="arm_gap")
    p.add_argument("--overlap", type=float, default=argparse.SUPPRESS)
    p.add_argument("--planar-gap", type=float, default=argparse.SUPPRESS, dest="planar_gap")
    p.add_argument("--compare", action="store_true",
                   help="also print the multilayer/edge-coupled area ratio")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("materials", help="registry operations")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_materials)

    p = sub.add_parser("compare", help="run both substrates and compare")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("pcl", "ml"), default="pcl")
    _add_sweep_options(p)
    p.set_defaults(func=cmd_compare)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # one "warning:" line per warning, naming no source line; replaced by hand
    # because warnings.catch_warnings resets the registry of warnings already
    # shown, and identical lines would then repeat
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except Exception as exc:
        for classes, code, prefix in EXIT_CODES:
            if isinstance(classes, str):
                module, _, name = classes.partition(".")
                classes = getattr(sys.modules.get(f"{__package__}.{module}"), name, ())
            if isinstance(exc, classes):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

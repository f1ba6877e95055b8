import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mwbpf
from mwbpf.cli import EXIT_CODES, main
from mwbpf.design import load_design
from mwbpf.microstrip import GapTooSmallWarning, ModelValidityWarning
from mwbpf.rfsim import SingularFrequencyWarning

PAPER_CONFIG = {
    "spec": {
        "f_lower_ghz": 2.52,
        "f_upper_ghz": 2.65,
        "f0_ghz": 2.58,
        "ripple_db": 0.01,
        "stop_freq_ghz": 2.77,
        "stop_atten_db": 25.0,
        "z0_ohm": 50.0,
    },
    "substrate": "FR4",
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(PAPER_CONFIG))
    return path


@pytest.fixture
def design_path(tmp_path, config_path):
    out = tmp_path / "design.json"
    assert main(["synth", "--config", str(config_path), "--out", str(out),
                 "--epoch", "0"]) == 0
    return out


def _write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(PAPER_CONFIG))
    for key, val in overrides.items():
        if key == "substrate":
            cfg["substrate"] = val
        else:
            cfg["spec"][key] = val
    path = tmp_path / "config_mod.json"
    path.write_text(json.dumps(cfg))
    return path


DELETE = object()


def _edited(doc, path, value):
    """Copy of a JSON document with the entry at ``path`` (keys and indexes)
    set to ``value``, or removed when ``value`` is DELETE; the empty path
    replaces the whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(mwbpf.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def _run_cli(*argv):
    return _run_python("-m", "mwbpf.cli", *argv)


class TestSynth:
    def test_writes_design_and_prints_tables(self, design_path, capsys):
        doc = load_design(design_path)
        assert doc.prototype.n == 4
        assert len(doc.dims) == 5

    def test_deterministic_with_epoch(self, tmp_path, config_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["synth", "--config", str(config_path), "--out", str(a), "--epoch", "99"])
        main(["synth", "--config", str(config_path), "--out", str(b), "--epoch", "99"])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_material_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, substrate="unobtainium")
        out = tmp_path / "d.json"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 3
        assert "FR4" in capsys.readouterr().err

    def test_unsatisfiable_spec_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, ripple_db=1.0, stop_atten_db=0.5)
        out = tmp_path / "d.json"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    # satisfiability is decided once, by required_order (exit 2); FilterSpec
    # refuses only malformed values (exit 7, naming the field). An attenuation
    # below the ripple level is test_unsatisfiable_spec_exit_code above.
    @pytest.mark.parametrize("overrides, code, cause", [
        pytest.param(dict(stop_freq_ghz=2.6), 2, "inside the passband", id="stop-in-band"),
        pytest.param(dict(stop_freq_ghz=2.65), 2, "inside the passband", id="stop-at-f-upper"),
        # needs order 47,805,120 without the cap: refused before any g-value is built
        pytest.param(dict(stop_freq_ghz=2.6500000000000004, f0_ghz=DELETE), 2, "MAX_ORDER",
                     id="stop-one-ulp-above-f-upper"),
        pytest.param(dict(stop_freq_ghz=-1), 7, "stop_freq", id="stop-negative"),
        pytest.param(dict(ripple_db=0.1, stop_atten_db=0.10000000000000002), 2,
                     "stopband attenuation must exceed the passband ripple level",
                     id="atten-one-ulp-above-ripple"),
        pytest.param(dict(stop_atten_db=4000), 2, "MAX_ORDER", id="atten-4000"),
        pytest.param(dict(ripple_db=1e-20), 2, "MAX_ORDER", id="ripple-1e-20"),
        pytest.param(dict(stop_atten_db=-5), 7, "stop_atten_db", id="atten-negative"),
        pytest.param(dict(stop_atten_db=300), 2, "MAX_ORDER", id="order-23-above-cap"),
        pytest.param(dict(f0_ghz=2.7), 7, "spec: f0 must lie inside the passband",
                     id="f0-above-band"),
        pytest.param(dict(f_lower_ghz=1, f_upper_ghz=10, f0_ghz=2, stop_freq_ghz=12), 7,
                     "spec: fractional bandwidth must be in (0, 1)", id="fbw-above-1"),
    ])
    def test_spec_exit_code(self, overrides, code, cause, tmp_path, monkeypatch, capsys):
        # a refused spec never reaches the g-value recursion
        monkeypatch.setattr(mwbpf.prototype, "g_values",
                            lambda n, ripple_db: pytest.fail(f"g_values called at order {n}"))
        cfg = json.loads(json.dumps(PAPER_CONFIG))
        for key, value in overrides.items():
            cfg["spec"] = _edited(cfg["spec"], (key,), value)
        path = tmp_path / "config_mod.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "d.json"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        kind = "unsatisfiable specification" if code == 2 else "invalid input"
        assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1
        assert cause in err
        assert not out.exists()

    def test_unreachable_coupling_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, z0_ohm=5000.0)
        out = tmp_path / "d.json"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 4

    def test_model_overflow_exits_4_without_traceback(self, tmp_path):
        # a 58 % band at 100 ohm: the coupled-line fits overflow in synthesis
        cfg = _write_config(tmp_path, f_lower_ghz=1.9, f_upper_ghz=3.45,
                            stop_freq_ghz=4.7, z0_ohm=100.0)
        proc = _run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "d.json"))
        assert proc.returncode == 4
        assert "error: synthesis failed" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSimulate:
    def test_emits_artifacts_and_report(self, tmp_path, design_path, capsys):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--design", str(design_path),
                     "--out-prefix", prefix]) == 0
        assert Path(prefix + ".s2p").exists()
        assert Path(prefix + ".csv").exists()
        out = capsys.readouterr().out
        assert "f_c" in out and "spec check" in out
        assert "PASS" in out

    def test_ml_mode(self, tmp_path, design_path, capsys):
        prefix = str(tmp_path / "ml")
        assert main(["simulate", "--design", str(design_path), "--mode", "ml",
                     "--lossy", "--out-prefix", prefix]) == 0
        assert "IL at f_c" in capsys.readouterr().out

    def test_band_edge_exit_code(self, tmp_path, design_path):
        prefix = str(tmp_path / "narrow")
        code = main(["simulate", "--design", str(design_path),
                     "--f-start", "2.0", "--f-stop", "2.2", "--points", "51",
                     "--out-prefix", prefix])
        assert code == 5
        assert not Path(prefix + ".s2p").exists()
        assert not Path(prefix + ".csv").exists()

    def test_deterministic_outputs(self, tmp_path, design_path):
        p1, p2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["simulate", "--design", str(design_path), "--out-prefix", p1])
        main(["simulate", "--design", str(design_path), "--out-prefix", p2])
        assert Path(p1 + ".s2p").read_bytes() == Path(p2 + ".s2p").read_bytes()
        assert Path(p1 + ".csv").read_bytes() == Path(p2 + ".csv").read_bytes()


class TestLayoutCommand:
    def test_pcl_svg(self, tmp_path, design_path, capsys):
        out = tmp_path / "pcl.svg"
        assert main(["layout", "--design", str(design_path), "--kind", "pcl",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<?xml")
        assert "bounding box" in capsys.readouterr().out

    def test_ml_with_compare(self, tmp_path, design_path, capsys):
        out = tmp_path / "ml.svg"
        assert main(["layout", "--design", str(design_path), "--kind", "ml",
                     "--out", str(out), "--compare"]) == 0
        text = capsys.readouterr().out
        assert "area ratio" in text

    def test_fold_infeasible_exit_code(self, tmp_path, design_path):
        out = tmp_path / "bad.svg"
        code = main(["layout", "--design", str(design_path), "--kind", "ml",
                     "--out", str(out), "--arm-gap", "30.0"])
        assert code == 6

    # a feed line outside the single-line model's range over 0.02 h to 40 h
    # (4.26 ohm at 40 h = 64 mm on FR4) writes nothing, and neither does a
    # comparison whose pcl layout fails after its ml layout is built
    @pytest.mark.parametrize("argv, z0", [
        (("--kind", "ml", "--compare"), 1000.0),
        (("--kind", "pcl"), 2.0),
    ], ids=["compare-feed-above-range", "feed-below-range"])
    def test_feed_out_of_range_writes_nothing(self, argv, z0, tmp_path, design_path, capsys):
        doc = json.loads(design_path.read_text())
        doc["spec"]["z0_ohm"] = doc["coupling"]["z0_ohm"] = z0
        design = tmp_path / "z0.json"
        design.write_text(json.dumps(doc))
        out = tmp_path / "bad.svg"
        capsys.readouterr()
        assert main(["layout", "--design", str(design), "--out", str(out), *argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: synthesis failed: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_svg_deterministic(self, tmp_path, design_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["layout", "--design", str(design_path), "--kind", "ml", "--out", str(a)])
        main(["layout", "--design", str(design_path), "--kind", "ml", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestMaterials:
    def test_list_builtins(self, capsys):
        assert main(["materials", "list"]) == 0
        out = capsys.readouterr().out
        assert "FR4" in out and "RO3003" in out

    def test_registry_env_override(self, tmp_path, monkeypatch, capsys):
        user_file = tmp_path / "materials.json"
        user_file.write_text(json.dumps({
            "materials": [
                {"name": "RT5880", "eps_r": 2.2, "tan_d": 0.0009, "h": 0.787},
                {"name": "FR4", "eps_r": 4.6, "tan_d": 0.02, "h": 1.6},
            ]
        }))
        monkeypatch.setenv("MWBPF_MATERIALS", str(user_file))
        assert main(["materials", "list"]) == 0
        out = capsys.readouterr().out
        assert "RT5880" in out
        assert "4.60" in out  # user FR4 shadows the built-in

    def test_empty_file_overrides_nothing(self, tmp_path, monkeypatch, capsys):
        user_file = tmp_path / "materials.json"
        user_file.write_text("{}")
        assert main(["materials", "list"]) == 0
        builtins = capsys.readouterr().out
        monkeypatch.setenv("MWBPF_MATERIALS", str(user_file))
        assert main(["materials", "list"]) == 0
        assert capsys.readouterr().out == builtins


# section 0 of this band on FR4 has s/h = 0.0852, below the fit range, and
# section 4 repeats its warning word for word; on RO3003 the end sections
# are below the gap floor too
WIDE_SPEC = dict(f_lower_ghz=2.2, f_upper_ghz=2.9, ripple_db=0.1, stop_freq_ghz=3.6,
                 stop_atten_db=25.0)
FR4_WARNING = "ModelValidityWarning: w/h=0.917, s/h=0.0852 outside the coupled-model fit range"
RO3003_WARNINGS = (
    "GapTooSmallWarning: gap 0.0459 mm is below the 0.1 mm fabrication floor",
    "ModelValidityWarning: w/h=1.21, s/h=0.0612 outside the coupled-model fit range",
)


class TestWarnings:
    def test_one_line_per_warning(self, tmp_path):
        # each distinct warning prints once per command: compare checks every
        # section when it synthesizes and again when it sweeps
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"spec": WIDE_SPEC, "substrate": "FR4"}))
        for argv, shown in (
            (("synth", "--config", str(wide), "--out", str(tmp_path / "d.json")),
             (FR4_WARNING,)),
            (("compare", "--config", str(wide)), (FR4_WARNING, *RO3003_WARNINGS)),
        ):
            proc = _run_cli(*argv)
            assert proc.returncode == 0
            assert proc.stderr == "".join(f"warning: {line}\n" for line in shown)

    def test_overflow_prints_only_its_error_line(self, tmp_path, design_path):
        # the section overflows before it is checked, so no warning precedes
        # the error (in a subprocess: capsys does not see warnings)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_edited(json.loads(design_path.read_text()),
                                          ("dims_mm", 0, "s"), 1e300)))
        proc = _run_cli("simulate", "--design", str(bad), "--mode", "physical",
                        "--out-prefix", str(tmp_path / "bad"))
        assert proc.returncode == 7
        assert proc.stderr == f"error: invalid input: {_overflow_error('s', 1e300)}\n"

    def test_format_restored(self, monkeypatch, capsys):
        def formatwarning(*args, **kwargs):
            return ""

        monkeypatch.setattr(warnings, "formatwarning", formatwarning)
        assert main(["materials", "list"]) == 0
        assert warnings.formatwarning is formatwarning


# runs a command, then prints the mwbpf modules loaded as its last line
_REPORT_MODULES = """\
import sys
from mwbpf.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("mwbpf.")))
sys.exit(code)
"""


class TestCommandImports:
    @pytest.mark.parametrize("argv, unused", [
        (("materials", "list"), {"coupling", "design", "layout", "rfsim", "touchstone"}),
        (("synth", "--config", "{config}", "--out", "{tmp}/d.json"),
         {"layout", "rfsim", "touchstone"}),
        (("simulate", "--design", "{design}", "--mode", "ml", "--lossy",
          "--out-prefix", "{tmp}/run"), {"layout"}),
        (("layout", "--design", "{design}", "--kind", "ml", "--out", "{tmp}/ml.svg",
          "--compare"), {"rfsim", "touchstone"}),
        (("compare", "--config", "{config}", "--points", "101"), {"touchstone"}),
    ], ids=["materials", "synth", "simulate", "layout", "compare"])
    def test_loads_only_what_it_runs(self, argv, unused, tmp_path, config_path, design_path):
        names = dict(tmp=tmp_path, config=config_path, design=design_path)
        proc = _run_python("-c", _REPORT_MODULES, *(a.format(**names) for a in argv))
        assert proc.returncode == 0, proc.stderr
        loaded = {m.removeprefix("mwbpf.") for m in proc.stdout.splitlines()[-1].split()}
        assert {"cli", "materials", "microstrip"} <= loaded
        assert not loaded & unused

    # the rows of EXIT_CODES looked up by name, each matched in a process
    # that loaded the failure's module only to run the command
    @pytest.mark.parametrize("argv, code", [
        (("synth", "--config", "{unsat}", "--out", "{tmp}/d.json"), 2),
        (("simulate", "--design", "{design}", "--f-start", "7.3", "--f-stop", "8.2",
          "--out-prefix", "{tmp}/run"), 5),
        (("layout", "--design", "{design}", "--kind", "ml", "--out", "{tmp}/ml.svg",
          "--arm-gap", "30"), 6),
    ], ids=["unsatisfiable", "band-edge", "fold"])
    def test_exit_code_of_a_lazy_row(self, argv, code, tmp_path, design_path):
        unsat = _write_config(tmp_path, ripple_db=1.0, stop_atten_db=0.5)
        names = dict(tmp=tmp_path, unsat=unsat, design=design_path)
        proc = _run_cli(*(a.format(**names) for a in argv))
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_cli_import_loads_numpy(self):
        # perfbench/run.py's startup_ms reads numpy's cumulative time from
        # `python -X importtime -c "import mwbpf.cli"`, and fails without it
        proc = _run_python("-c", "import sys, mwbpf.cli; print('numpy' in sys.modules)")
        assert proc.stdout == "True\n"


class TestCompare:
    def test_pcl_comparison_table(self, config_path, capsys):
        assert main(["compare", "--config", str(config_path), "--mode", "pcl",
                     "--points", "301", "--f-start", "2.3", "--f-stop", "2.9"]) == 0
        out = capsys.readouterr().out
        assert "FR4" in out and "RO3003" in out
        assert "S21 at FC" in out and "size (mm)" in out

    def test_help_documents_config_dialect(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        out = capsys.readouterr().out
        assert "JSON" in out
        assert "f_lower_ghz" in out


MATERIALS = {"materials": [{"name": "X", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0}]}
FR4_ENTRY = {"name": "FR4", "eps_r": 4.3, "tan_d": 0.025, "h": 1.6}  # the built-in's values


def _overflow_error(key, value):
    """The error of the reference design's section 0 with its ``key`` set to ``value``."""
    dims = {"w": 2.40775, "s": 0.371901, key: value}
    return f"dims_mm[0]: coupled pair w={dims['w']:g} mm, s={dims['s']:g} mm overflows the model"


def case(argv, edit, cause, code=7, **kwargs):
    """A TestInvalidInput.test_exit_code case; most inputs exit 7."""
    return pytest.param(argv, edit, cause, code, **kwargs)


def _json_path(path):
    """``("coupling", "sections", 1, "z0o_ohm")`` as ``coupling.sections[1].z0o_ohm``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# each object of the three files: the command that reads it, the file, the
# object's JSON path and one of its required keys (a materials file may
# leave out its one top-level key)
FILE_OBJECTS = [
    (("synth", "--config", "{bad}", "--out", "{tmp}/d.json"), "config", path, required)
    for path, required in (((), "substrate"), (("spec",), "f_lower_ghz"))
] + [
    (("simulate", "--out-prefix", "{tmp}/bad", "--design", "{bad}"), "design", path, required)
    for path, required in (
        ((), "prototype"), (("spec",), "ripple_db"), (("prototype",), "g"),
        (("coupling",), "z0_ohm"), (("coupling", "sections", 1), "z0o_ohm"),
        (("dims_mm", 2), "w"), (("provenance",), "tool"),
    )
] + [
    (("materials", "list"), "materials", path, required)
    for path, required in (((), None), (("materials", 0), "h"))
]
# an unknown key in each, and each required key left out, named by its path
KEY_CASES = [
    case(argv, (base, (*path, key), value), message.format(_json_path((*path, key))),
         id=f"{base}-{_json_path(path) or 'top'}-{kind}")
    for argv, base, path, required in FILE_OBJECTS
    for kind, key, value, message in (
        ("unknown-key", "extra", 1, "{} is not a known key"),
        ("missing-key", required, DELETE, "missing key '{}'"),
    )
    if key is not None
]


class TestInvalidInput:
    LAYOUT = ("layout", "--kind", "ml", "--out", "{tmp}/bad.svg", "--design", "{design}")
    LAYOUT_PCL = ("layout", "--kind", "pcl", "--out", "{tmp}/bad.svg", "--design", "{design}")
    SIMULATE = ("simulate", "--out-prefix", "{tmp}/bad")
    SYNTH = ("synth", "--config", "{bad}", "--out", "{tmp}/d.json")
    MATERIALS = ("materials", "list")

    # argv, the edit that makes {bad} from the config, the design or the
    # MWBPF_MATERIALS file, what the error line must name, and the exit code
    @pytest.mark.parametrize("argv, edit, cause, code", [
        case(SYNTH, ("config", ("spec", "f_upper_ghz"), DELETE),
             "missing key 'spec.f_upper_ghz'", id="synth-missing-key"),
        case(SYNTH, ("config", ("spec", "f_lower_ghz"), None), "spec.f_lower_ghz",
             id="synth-null-number"),
        case(SYNTH, ("config", ("substrate",), 5), "substrate",
             id="synth-substrate-number"),
        case(SYNTH, ("config", (), [1, 2]), "config", id="synth-config-array"),
        # a misspelled optional key would leave its default in place
        case(SYNTH, ("config", ("spec", "z0_ohms"), 75.0), "spec.z0_ohms",
             id="synth-unknown-spec-key"),
        case(SIMULATE + ("--design", "{bad}"), ("design", ("spec", "f0"), 2.6),
             "spec.f0", id="simulate-unknown-spec-key"),
        # section impedances far outside the model's range: the seed of the
        # width search stays finite and positive, and the error names it
        case(SYNTH, ("config", ("spec", "z0_ohm"), 1e300),
             "1.0598837478382088e+300 ohm is above the model range", 4, id="synth-z0-1e+300"),
        case(SYNTH, ("config", ("spec", "z0_ohm"), 1e-300),
             "synthesis for (z0e=1.44423e-300, z0o=7.7782e-301) did not converge", 4,
             id="synth-z0-1e-300"),
        case(("synth", "--config", "{config}", "--out", "{tmp}/d.json", "--epoch", "inf"),
             None, "timestamp out of range", id="synth-epoch-inf"),
        case(("synth", "--config", "{config}", "--out", "{tmp}/d.json",
              "--epoch", "1e300"), None, "timestamp out of range", id="synth-epoch-1e300"),
        case(SIMULATE + ("--design", "{tmp}/nope.json"), None, "nope.json",
             id="simulate-missing-design"),
        case(SIMULATE + ("--design", "{bad}"), ("design", ("dims_mm", 0, "w"), None),
             "dims_mm[0].w", id="simulate-null-width"),
        case(SIMULATE + ("--design", "{bad}"), ("design", ("prototype", "g", 1), "x"),
             "prototype.g[1]", id="simulate-string-g"),
        case(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
             ("design", ("coupling", "sections", 0, "z0e_ohm"), -1), "z0e",
             id="simulate-negative-z0e"),
        case(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
             ("design", ("coupling", "sections", 0, "z0e_ohm"), 0), "z0e",
             id="simulate-zero-z0e"),
        case(SIMULATE + ("--design", "{bad}", "--mode", "ml"),
             ("design", ("coupling", "z0_ohm"), 75.0), "z0_ohm",
             id="simulate-z0-mismatch"),
        # a prototype error names its value, and a non-finite one exits 7 in
        # every command, though only ml reads the g-values
        case(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
             ("design", ("prototype", "g", 1), "nan"), "prototype: g[1] must be finite",
             id="simulate-g-nan"),
        case(("layout", "--kind", "pcl", "--out", "{tmp}/bad.svg", "--design", "{bad}"),
             ("design", ("prototype", "ripple_db"), "inf"),
             "prototype: ripple_db must be finite", id="layout-ripple-inf"),
        # a section impedance whose square overflows the cascade
        case(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
             ("design", ("coupling", "sections", 0, "z0e_ohm"), 1e300),
             "S-parameters overflow a double", id="simulate-z0e-1e+300-ideal"),
        # a record error names the record by its JSON path
        case(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
             ("design", ("coupling", "sections", 2, "z0o_ohm"), 60.0),
             "coupling.sections[2]: need z0e >= z0o > 0", id="simulate-z0o-above-z0e"),
        case(SIMULATE + ("--design", "{bad}"), ("design", ("dims_mm", 2, "s"), -1),
             "dims_mm[2]: dimensions must be positive", id="simulate-negative-gap"),
        case(SIMULATE + ("--design", "{bad}"), ("design", ("dims_mm", 1, "l"), DELETE),
             "missing key 'dims_mm[1].l'", id="simulate-missing-length"),
        # every record rejects an unknown key, which would otherwise be ignored
        case(SIMULATE + ("--design", "{bad}"), ("design", ("dims_mm", 3, "gap"), 1.0),
             "dims_mm[3].gap is not a known key", id="simulate-unknown-dims-key"),
        case(SIMULATE + ("--design", "{bad}"),
             ("design", ("coupling", "sections", 1, "z0_ohm"), 50.0),
             "coupling.sections[1].z0_ohm is not a known key", id="simulate-unknown-section-key"),
        # dimensions that overflow the coupled-line fits; the error names the
        # pair (a class name such as SIMULATE is out of a comprehension's scope)
        *[case(("simulate", "--out-prefix", "{tmp}/bad", "--design", "{bad}",
                "--mode", *mode),
               ("design", ("dims_mm", 0, key), value), _overflow_error(key, value),
               id=f"simulate-{key}-{value:g}-{'-'.join(m.strip('-') for m in mode)}")
          for key, value in (("s", 1e300), ("s", 1e-300), ("w", 1e300))
          for mode in (("physical",), ("physical", "--lossy"), ("ml", "--lossy"))],
        case(SIMULATE + ("--design", "{bad}", "--mode", "ml", "--lossy"),
             ("design", ("dims_mm", 2, "s"), 1e300),
             "dims_mm[2]: coupled pair w=3.08691 mm, s=1e+300 mm overflows the model",
             id="simulate-s-1e+300-section-2-ml-lossy"),
        # a pair whose odd-mode fit underflows to exactly 0 ohm is refused by
        # every reader of the dimensions, like an overflow
        *[case(argv + ("--design", "{bad}"),
               ("design", ("dims_mm", 0), {"w": 0.1587, "l": 16.4846, "s": 0.001}),
               "dims_mm[0]: coupled pair w=0.1587 mm, s=0.001 mm gives a mode impedance "
               "that is not positive and finite", id=f"zero-z0o-{argv[0]}-{argv[2]}")
          for argv in (("simulate", "--mode", "physical", "--out-prefix", "{tmp}/bad"),
                       ("simulate", "--mode", "ml", "--lossy", "--out-prefix", "{tmp}/bad"),
                       ("layout", "--kind", "pcl", "--out", "{tmp}/bad.svg"))],
        # a pair whose w/h or s/h underflows the fits: 0 on a 1000 mm board,
        # or s/h whose tenth power underflows in a logarithm on FR4
        *[case(argv + ("--design", "{bad}"), edit,
               f"dims_mm[0]: coupled pair w={w} mm, s={s} mm underflows the model",
               id=f"underflow-{key}-{value!r}-{argv[0]}-{argv[2]}")
          for key, value, w, s, edit in (
              ("s", 1e-322, "2.40775", "9.88131e-323",
               [("materials", ("materials",), [dict(FR4_ENTRY, h=1000.0)]),
                ("design", ("dims_mm", 0, "s"), 1e-322)]),
              ("w", 1e-322, "9.88131e-323", "0.371901",
               [("materials", ("materials",), [dict(FR4_ENTRY, h=1000.0)]),
                ("design", ("dims_mm", 0, "w"), 1e-322)]),
              ("s", 1e-40, "2.40775", "1e-40", ("design", ("dims_mm", 0, "s"), 1e-40)))
          for argv in (("simulate", "--mode", "physical", "--out-prefix", "{tmp}/bad"),
                       ("simulate", "--mode", "ml", "--lossy", "--out-prefix", "{tmp}/bad"),
                       ("layout", "--kind", "pcl", "--out", "{tmp}/bad.svg"))],
        # both layouts read the dimensions through the same step
        *[case(("layout", "--out", "{tmp}/bad.svg", "--design", "{bad}", "--kind", kind),
               ("design", ("dims_mm", 0, "s"), 1e300), _overflow_error("s", 1e300),
               id=f"layout-s-1e+300-{kind}")
          for kind in ("pcl", "ml")],
        # no model reads a section's length in a layout; it is bounded by the
        # free-space wavelength at f0 instead
        *[case(("layout", "--out", "{tmp}/bad.svg", "--design", "{bad}", "--kind", kind),
               ("design", ("dims_mm", 0, "l"), 1e300),
               "dims_mm[0].l = 1e+300 mm is longer than the free-space wavelength",
               id=f"layout-l-1e+300-{kind}")
          for kind in ("pcl", "ml")],
        # text that reaches an artifact is one line of printable ASCII
        case(SIMULATE + ("--design", "{design}"),
             ("materials", ("materials", 0, "name"), "FR4\u00fc"),
             "materials[0].name must be one line of printable ASCII",
             id="simulate-name-non-ascii"),
        case(SIMULATE + ("--design", "{bad}"),
             ("design", ("provenance", "created"), "2026\n1.0 0 0 0 0 0 0 0 0"),
             "provenance.created must be one line of printable ASCII",
             id="simulate-created-newline"),
        # the SVG stackup record prints the name inside an XML comment
        case(LAYOUT, ("materials", ("materials", 0, "name"), "FR--4"),
             "materials[0]: name must not contain '--'", id="layout-name-double-hyphen"),
        case(SIMULATE + ("--design", "{design}", "--mode", "ideal", "--lossy"), None,
             "lossless", id="simulate-ideal-lossy"),
        case(SIMULATE + ("--design", "{design}", "--points", "1"), None,
             "sweep points", id="simulate-one-point"),
        case(("compare", "--config", "{config}", "--points", "1"), None,
             "sweep points", id="compare-one-point"),
        case(SIMULATE + ("--design", "{design}", "--f-start", "3", "--f-stop", "2"), None,
             "need 0 < f_start < f_stop", id="simulate-f-start-above-f-stop"),
        # a span that misses the band exits 5, and writes nothing either
        case(SIMULATE + ("--design", "{design}", "--mode", "ideal", "--f-start", "7.3",
                 "--f-stop", "8.2"), None,
             "return-loss band lies outside the swept span", 5, id="simulate-span-above-band"),
        case(SIMULATE + ("--design", "{design}", "--f-stop", "inf"), None, "f_stop",
             id="simulate-f-stop-inf"),
        case(SIMULATE + ("--design", "{design}", "--f-start", "1e-10"), None,
             "1 ppm above", id="simulate-f-start-1hz"),
        case(SIMULATE + ("--design", "{design}", "--f-stop", "1e300"), None,
             "overflows the section angle", id="simulate-f-stop-overflow"),
        # 8 EiB of frequencies, refused before anything is allocated
        case(SIMULATE + ("--design", "{design}", "--points", str(10**18)), None,
             "sweep points exceed MAX_POINTS", id="simulate-huge-points"),
        # spans whose dielectric loss or prototype axis overflows, refused
        # before numpy warns; ml would exit 5 after the warning
        case(SIMULATE + ("--design", "{design}", "--mode", "physical", "--lossy",
                         "--f-start", "1e-320"), None,
             "f_start = 1e-320 GHz overflows the free-space wavelength",
             id="simulate-physical-f-start-1e-320"),
        case(SIMULATE + ("--design", "{design}", "--mode", "ml", "--f-start", "2.3e-308"), None,
             "f_start = 2.3e-308 GHz overflows the prototype frequency axis",
             id="simulate-ml-f-start-2.3e-308"),
        case(SIMULATE + ("--design", "{design}", "--mode", "ml", "--lossy", "--f-stop", "1e308"),
             None, "f_stop = 1e+308 GHz overflows the prototype frequency axis",
             id="simulate-ml-lossy-f-stop-1e308"),
        case(LAYOUT + ("--planar-gap", "-1"), None, "planar_gap",
             id="layout-negative-gap"),
        case(LAYOUT + ("--overlap", "nan"), None, "overlap", id="layout-overlap-nan"),
        # pcl reads no hairpin option, and checks each like ml
        case(LAYOUT_PCL + ("--arm-gap", "-5"), None, "arm_gap", id="layout-pcl-arm-gap-negative"),
        case(LAYOUT_PCL + ("--arm-gap", "inf"), None, "arm_gap", id="layout-pcl-arm-gap-inf"),
        case(LAYOUT_PCL + ("--overlap", "nan"), None, "overlap", id="layout-pcl-overlap-nan"),
        case(LAYOUT_PCL + ("--overlap", "-1"), None, "overlap", id="layout-pcl-overlap-negative"),
        case(LAYOUT_PCL + ("--planar-gap", "-1"), None, "planar_gap",
             id="layout-pcl-planar-gap-negative"),
        case(LAYOUT_PCL + ("--planar-gap", "0"), None, "planar_gap",
             id="layout-pcl-planar-gap-zero"),
        case(LAYOUT_PCL + ("--arm-gap", "-5", "--overlap", "nan", "--planar-gap", "-1"), None,
             "arm_gap", id="layout-pcl-all-three"),
        # a comparison builds both layouts before it writes or prints anything
        case(LAYOUT_PCL + ("--compare", "--arm-gap", "30"), None, "cannot fold", 6,
             id="layout-pcl-compare-fold"),
        case(MATERIALS, ("materials", ("materials", 0, "tan_d"), DELETE),
             "missing key 'materials[0].tan_d'", id="materials-missing-key"),
        case(MATERIALS, ("materials", ("materials", 0, "eps_r"), None),
             "materials[0].eps_r", id="materials-null-number"),
        case(MATERIALS, ("materials", ("materials", 0, "name"), 5),
             "materials[0].name", id="materials-name-number"),
        case(MATERIALS, ("materials", ("materials", 0, "cond"), 1e7),
             "materials[0].cond", id="materials-unknown-key"),
        case(MATERIALS, ("materials", ("materials",), [
                 {"name": "X", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0},
                 {"name": "Y", "eps_r": 3.0, "tan_d": -0.01, "h": 1.0}]),
             "materials[1]: tan_d must be >= 0", id="materials-negative-tan-d"),
        case(MATERIALS, ("materials", ("materials", 0, "t"), -0.1),
             "materials[0]: conductor thickness must be >= 0", id="materials-negative-t"),
        # a substrate height or conductor thickness outside the physical range,
        # where the former width bisection underflowed, the feed width is inf, or the
        # SVG stackup prints a 300-digit thickness
        *[case(argv, ("materials", ("materials",), [dict(FR4_ENTRY, **{key: value})]),
               f"materials[0]: {cause}", id=f"materials-{key}-{value:g}-{argv[0]}")
          for argv, key, value, cause in (
              (("synth", "--config", "{config}", "--out", "{tmp}/d.json"), "h", 1e-300,
               "substrate height h = 1e-300 mm must lie in [0.001, 1000] mm"),
              (("synth", "--config", "{config}", "--out", "{tmp}/d.json"), "h", 1e-200,
               "substrate height"),
              (LAYOUT_PCL, "h", 1e154, "substrate height"),
              (LAYOUT_PCL, "t", 1e300, "conductor thickness"))],
        # a permittivity beyond the physical range, at which the lossy sweeps'
        # dielectric loss overflowed
        case(SIMULATE + ("--design", "{design}", "--mode", "physical", "--lossy"),
             ("materials", ("materials",), [dict(FR4_ENTRY, eps_r=1e300)]),
             "materials[0]: eps_r = 1e+300 must lie in [1, 10000]",
             id="materials-eps_r-1e+300-physical-lossy"),
        case(SIMULATE + ("--design", "{design}", "--mode", "ml", "--lossy"),
             ("materials", ("materials",), [dict(FR4_ENTRY, eps_r=1e300)]),
             "materials[0]: eps_r = 1e+300 must lie in [1, 10000]",
             id="materials-eps_r-1e+300-ml-lossy"),
        case(MATERIALS, ("materials", ("materials", 0, "conductivity"), -0.1),
             "materials[0]: conductivity must be positive", id="materials-negative-conductivity"),
        case(MATERIALS, ("materials", ("materials",), [
                 {"name": "X", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0},
                 {"name": "Y", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0, "conductivity": 0}]),
             "materials[1]: conductivity must be positive", id="materials-zero-conductivity"),
        # a misspelled top-level key would leave the built-in FR4 in place
        case(MATERIALS, ("materials", (), {"material": [
                 {"name": "FR4", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0}]}),
             "material is not a known key", id="materials-misspelled-top-key"),
        *KEY_CASES,
        # a prototype states a positive ripple, though only synthesis reads it
        *[case(argv + ("--design", "{bad}"), ("design", ("prototype", "ripple_db"), -1),
               "prototype: ripple_db must be positive", id=f"ripple-db-negative-{argv[0]}-{argv[2]}")
          for argv in (("simulate", "--mode", "physical", "--out-prefix", "{tmp}/bad"),
                       ("simulate", "--mode", "ml", "--out-prefix", "{tmp}/bad"),
                       ("layout", "--kind", "pcl", "--out", "{tmp}/bad.svg"))],
        # an explicit f0 of 0 is not the left-out f0
        *[case(argv, (base, ("spec", "f0_ghz"), value), "spec: f0 must lie inside the passband",
               id=f"{base}-f0-{json.dumps(value)}")
          for argv, base in ((SYNTH, "config"), (SIMULATE + ("--design", "{bad}"), "design"))
          for value in (0, -0.0, "0")],
    ])
    def test_exit_code(self, argv, edit, cause, code, tmp_path, config_path, design_path,
                       monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        # one edit, or a list of edits of different files
        for base, path, value in [] if edit is None else edit if isinstance(edit, list) else [edit]:
            doc = {"config": PAPER_CONFIG, "materials": MATERIALS,
                   "design": json.loads(design_path.read_text())}[base]
            target = tmp_path / "materials.json" if base == "materials" else bad
            target.write_text(json.dumps(_edited(doc, path, value)))
            if base == "materials":
                monkeypatch.setenv("MWBPF_MATERIALS", str(target))
        names = dict(tmp=tmp_path, bad=bad, config=config_path, design=design_path)
        capsys.readouterr()
        assert main([a.format(**names) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid input: " if code == 7 else "error: ")
        assert cause in captured.err
        assert captured.err.count("\n") == 1
        assert not [p.name for p in tmp_path.iterdir() if p.suffix in (".s2p", ".csv", ".svg")]

    def test_memory_error_exits_7(self, tmp_path, design_path, monkeypatch, capsys):
        # a sweep below MAX_POINTS that the host still cannot allocate
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.63 MiB")

        monkeypatch.setattr("mwbpf.design.simulate", out_of_memory)
        capsys.readouterr()
        assert main(["simulate", "--design", str(design_path),
                     "--out-prefix", str(tmp_path / "bad")]) == 7
        assert capsys.readouterr() == ("", "error: invalid input: Unable to allocate 7.63 MiB\n")

    def test_length_bound_in_every_reader_of_the_dimensions(self, tmp_path, design_path,
                                                             capsys):
        doc = _edited(json.loads(design_path.read_text()), ("dims_mm", 1, "l"), 1e9)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        errors = []
        for argv in (("simulate", "--mode", "physical", "--lossy", "--out-prefix", "run"),
                     ("simulate", "--mode", "ml", "--lossy", "--out-prefix", "run"),
                     ("layout", "--kind", "pcl", "--out", "run.svg"),
                     ("layout", "--kind", "ml", "--out", "run.svg")):
            assert main([*argv[:-1], str(tmp_path / argv[-1]), "--design", str(bad)]) == 7
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert set(errors) == {
            "error: invalid input: dims_mm[1].l = 1e+09 mm is longer than the free-space "
            "wavelength 116.199 mm at f0\n"
        }
        assert not [p.name for p in tmp_path.iterdir() if p.stem == "run"]
        # the ideal cascade and the lossless coupled-resonator model read no dimensions
        for mode in ("ideal", "ml"):
            argv = ["simulate", "--mode", mode, "--out-prefix", str(tmp_path / mode)]
            assert main([*argv, "--design", str(bad)]) == 0

    def test_zero_mode_impedance_leaves_the_ideal_cascade_alone(self, tmp_path, design_path):
        # ideal mode reads the sections' impedances, not the dimensions
        doc = _edited(json.loads(design_path.read_text()), ("dims_mm", 0),
                      {"w": 0.1587, "l": 16.4846, "s": 0.001})
        (tmp_path / "zero.json").write_text(json.dumps(doc))
        assert main(["simulate", "--mode", "ideal", "--design", str(tmp_path / "zero.json"),
                     "--out-prefix", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run.s2p").exists()

    def test_no_traceback(self, tmp_path, design_path):
        proc = _run_cli("layout", "--design", str(design_path), "--kind", "ml",
                        "--overlap", "nan", "--out", str(tmp_path / "bad.svg"))
        assert proc.returncode == 7
        assert proc.stderr.startswith("error: invalid input: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "bad.svg").exists()


# ROADMAP item 8's values: numbers across the double range, non-finite and
# out-of-range spellings, and values of the wrong JSON type
FIELD_VALUES = (0, -1, 1e-300, 1e300, 1e-30, 1e30, 1e-9, 1e9, 2.58, "nan", "inf", "-inf",
                "1e400", 10**400, True, None, "x", [], {})
NON_FINITE = ("nan", "inf", "-inf", "1e400")
MAX_LINE = 120  # characters in a stdout line; the README quick start's longest is 99
MWBPF_WARNINGS = (GapTooSmallWarning, ModelValidityWarning, SingularFrequencyWarning)


def _leaves(node, path=()):
    """The paths of the scalar leaves of a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


class TestEveryInputField:
    """Each scalar leaf of the reference design.json (bar its provenance), and
    spec.z0_ohm with coupling.z0_ohm as one, takes a seeded sample of
    FIELD_VALUES through the sweeps and layouts; so do each scalar leaf of a
    MWBPF_MATERIALS entry, through synthesis, a layout and a lossy sweep, each
    scalar leaf of the config, through synthesis and the comparison, the
    sweep span options and --points, through simulate's three modes, --epoch,
    through synthesis, and the hairpin options, through both layouts. Every
    run ends in a result or in one typed error line, and writes nothing when
    it fails."""

    COMMANDS = (
        ("simulate", "--mode", "ideal", "--out-prefix", "run"),
        ("simulate", "--mode", "physical", "--lossy", "--out-prefix", "run"),
        ("simulate", "--mode", "ml", "--lossy", "--out-prefix", "run"),
        ("layout", "--kind", "pcl", "--out", "run.svg"),
        ("layout", "--kind", "ml", "--compare", "--out", "run.svg"),
    )
    MATERIALS_COMMANDS = (
        ("synth", "--config", "config.json", "--out", "run.json"),
        ("layout", "--kind", "pcl", "--out", "run.svg", "--design", "design.json"),
        ("simulate", "--mode", "ml", "--lossy", "--out-prefix", "run", "--design", "design.json"),
    )
    CONFIG_COMMANDS = (
        ("synth", "--config", "config.json", "--out", "run.json"),
        ("compare", "--config", "config.json"),
    )
    PER_INPUT = 7  # values drawn for each input, each run through every command

    @staticmethod
    def _run(argv, where, value, problems, capsys, may_pass=False):
        """Run ``argv``, given ``value`` at ``where``, and add to ``problems``
        what breaks the property; a non-finite value may exit 0 only where
        ``may_pass``. The run's warnings are recorded: each must be one of
        mwbpf's own."""
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code = main(list(argv))
        out, err = capsys.readouterr()
        for w in shown:
            if w.category not in MWBPF_WARNINGS:
                problems.append(f"{where}: warned {w.category.__name__}: {w.message}")
        written = [p.name for p in Path().iterdir() if p.stem == "run"]
        for name in written:
            Path(name).unlink()
        if code not in {0, *(c for _, c, _ in EXIT_CODES)}:
            problems.append(f"{where}: exit {code} is undocumented")
        elif code:
            errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
            if out or written or len(errors) != 1 or not errors[0].startswith("error: "):
                problems.append(f"{where}: exit {code} printed {out!r} and {err!r}, "
                                f"wrote {written}")
        elif value in NON_FINITE and not may_pass:
            problems.append(f"{where}: a non-finite value exits 0")
        elif re.search(r"\b(nan|inf)\b", out, re.IGNORECASE):
            problems.append(f"{where}: exit 0 printed {out!r}")
        elif max(map(len, out.splitlines())) > MAX_LINE:
            problems.append(f"{where}: exit 0 printed a line over {MAX_LINE} characters")

    def test_result_or_one_error_line(self, tmp_path, design_path, monkeypatch, capsys):
        reference = json.loads(design_path.read_text())
        inputs = [(path,) for path in _leaves(reference) if path[0] != "provenance"]
        inputs.append((("spec", "z0_ohm"), ("coupling", "z0_ohm")))
        rng = random.Random(8)
        cases = [(paths, value) for paths in inputs
                 for value in rng.sample(FIELD_VALUES, self.PER_INPUT)]
        # whatever the sample: a non-finite g-value, which only ml reads, and
        # a feed above the range, found after the ml layout is built
        cases += [((("prototype", "g", 1),), "nan"), (inputs[-1], 1e9)]
        monkeypatch.chdir(tmp_path)
        problems = []
        for paths, value in cases:
            doc = reference
            for path in paths:
                doc = _edited(doc, path, value)
            Path("bad.json").write_text(json.dumps(doc))
            for command in self.COMMANDS:
                where = f"{'+'.join(map(str, paths))} = {value!r}, {' '.join(command)}"
                self._run([*command, "--design", "bad.json"], where, value, problems, capsys,
                          may_pass=paths == (("substrate",),))
        assert not problems, "\n".join(problems)

    def test_materials_entry(self, tmp_path, config_path, design_path, monkeypatch, capsys):
        # the entry shadows the built-in FR4 that the config and the design name
        entry = {**FR4_ENTRY, "t": 0.035, "conductivity": 5.8e7}
        rng = random.Random(9)
        cases = [(key, value) for key in entry
                 for value in rng.sample(FIELD_VALUES, self.PER_INPUT)]
        # whatever the sample: the former width bisection's underflow, and the lossy
        # sweeps' overflowing dielectric loss
        cases += [("h", 1e-300), ("eps_r", 1e300)]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MWBPF_MATERIALS", "materials.json")
        problems = []
        for key, value in cases:
            Path("materials.json").write_text(json.dumps({"materials": [{**entry, key: value}]}))
            for command in self.MATERIALS_COMMANDS:
                where = f"materials[0].{key} = {value!r}, {' '.join(command)}"
                # a name is any one-line string, "nan" included
                self._run(command, where, value, problems, capsys, may_pass=key == "name")
        assert not problems, "\n".join(problems)

    def test_config_leaf(self, tmp_path, monkeypatch, capsys):
        # every impedance the hostile spec asks for reaches the width
        # search's closed-form start
        rng = random.Random(12)
        cases = [(path, value) for path in _leaves(PAPER_CONFIG)
                 for value in rng.sample(FIELD_VALUES, self.PER_INPUT)]
        # whatever the sample: section impedances whose product underflows
        # or overflows a double
        cases += [(("spec", "z0_ohm"), 1e-300), (("spec", "z0_ohm"), 1e300)]
        monkeypatch.chdir(tmp_path)
        problems = []
        for path, value in cases:
            Path("config.json").write_text(json.dumps(_edited(PAPER_CONFIG, path, value)))
            for command in self.CONFIG_COMMANDS:
                where = f"{'.'.join(path)} = {value!r}, {' '.join(command)}"
                # compare runs both built-in substrates, whatever the config names
                self._run(command, where, value, problems, capsys,
                          may_pass=path == ("substrate",))
        assert not problems, "\n".join(problems)

    def test_sweep_span(self, tmp_path, design_path, monkeypatch, capsys):
        # what argparse reads as a float; other words are usage errors (exit 2)
        numbers = [v for v in FIELD_VALUES if type(v) in (int, float, str) and v != "x"]
        rng = random.Random(10)
        # whatever the sample: a dielectric loss and a prototype axis that overflow
        cases = [(option, value) for option, extra in (("--f-start", (1e-320, 2.3e-308)),
                                                       ("--f-stop", (1e308,)))
                 for value in (*rng.sample(numbers, self.PER_INPUT), *extra)]
        monkeypatch.chdir(tmp_path)
        problems = []
        for option, value in cases:
            for command in self.COMMANDS[:3]:
                where = f"{option} = {value!r}, {' '.join(command)}"
                self._run([*command, "--design", "design.json", option, str(value)], where, value,
                          problems, capsys)
        assert not problems, "\n".join(problems)

    def test_numeric_options(self, tmp_path, design_path, monkeypatch, capsys):
        # each option takes what its argparse type reads; other words are
        # usage errors (exit 2)
        def readable(kind, value):
            try:
                kind(str(value))
            except ValueError:
                return False
            return True

        synth = (("synth", "--config", "config.json", "--out", "run.json"),)
        simulate = [(*command, "--design", "design.json") for command in self.COMMANDS[:3]]
        layout = [(*command, "--design", "design.json") for command in self.COMMANDS[3:]]
        rng = random.Random(13)
        cases = []
        # whatever the sample: a planar gap of 1e300 mm, which a layout drew
        for option, kind, commands, extra in (
                ("--points", int, simulate, ()), ("--epoch", float, synth, ()),
                ("--arm-gap", float, layout, ()), ("--overlap", float, layout, ()),
                ("--planar-gap", float, layout, (1e300,))):
            values = [v for v in FIELD_VALUES if type(v) in (int, float, str)
                      and readable(kind, v)]
            for value in (*rng.sample(values, min(self.PER_INPUT, len(values))), *extra):
                cases += [(command, option, value) for command in commands]
        monkeypatch.chdir(tmp_path)
        problems = []
        for command, option, value in cases:
            where = f"{option} = {value!r}, {' '.join(command)}"
            # one word: argparse would read "-inf" alone as an option
            self._run([*command, f"{option}={value}"], where, value, problems, capsys)
        assert not problems, "\n".join(problems)


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = [int(code) for code in re.findall(r"^\| (\d+) +\|", readme, re.MULTILINE)]
    assert listed == sorted({0, *(code for _, code, _ in EXIT_CODES)})

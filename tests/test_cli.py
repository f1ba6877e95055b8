import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mwbpf
from mwbpf.cli import EXIT_CODES, main
from mwbpf.design import load_design

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


class TestWarnings:
    def test_one_line_per_warning(self, tmp_path):
        # section 0 of this band on FR4 has s/h = 0.0852, below the fit range;
        # section 4 repeats its warning word for word, and is not shown again
        spec = dict(f_lower_ghz=2.2, f_upper_ghz=2.9, ripple_db=0.1, stop_freq_ghz=3.6,
                    stop_atten_db=25.0)
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"spec": spec, "substrate": "FR4"}))
        proc = _run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "d.json"))
        assert proc.returncode == 0
        assert proc.stderr == ("warning: ModelValidityWarning: w/h=0.917, s/h=0.0852 "
                               "outside the coupled-model fit range\n")
        assert ".py:" not in proc.stderr

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


def _overflow_error(key, value):
    """The error of the reference design's section 0 with its ``key`` set to ``value``."""
    dims = {"w": 2.40775, "s": 0.371901, key: value}
    return f"dims_mm[0]: coupled pair w={dims['w']:g} mm, s={dims['s']:g} mm overflows the model"


def case(argv, edit, cause, code=7, **kwargs):
    """A TestInvalidInput.test_exit_code case; most inputs exit 7."""
    return pytest.param(argv, edit, cause, code, **kwargs)


class TestInvalidInput:
    LAYOUT = ("layout", "--kind", "ml", "--out", "{tmp}/bad.svg", "--design", "{design}")
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
        # dimensions that overflow the coupled-line fits, after the validity step
        # has warned; the error names the pair (a class name such as SIMULATE is out
        # of a comprehension's scope)
        *[case(("simulate", "--out-prefix", "{tmp}/bad", "--design", "{bad}",
                "--mode", *mode),
               ("design", ("dims_mm", 0, key), value), _overflow_error(key, value),
               id=f"simulate-{key}-{value:g}-{'-'.join(m.strip('-') for m in mode)}",
               marks=pytest.mark.filterwarnings(
                   "ignore::mwbpf.microstrip.ModelValidityWarning",
                   "ignore::mwbpf.microstrip.GapTooSmallWarning"))
          for key, value in (("s", 1e300), ("s", 1e-300), ("w", 1e300))
          for mode in (("physical",), ("physical", "--lossy"), ("ml", "--lossy"))],
        case(SIMULATE + ("--design", "{bad}", "--mode", "ml", "--lossy"),
             ("design", ("dims_mm", 2, "s"), 1e300),
             "dims_mm[2]: coupled pair w=3.08691 mm, s=1e+300 mm overflows the model",
             id="simulate-s-1e+300-section-2-ml-lossy",
             marks=pytest.mark.filterwarnings("ignore::mwbpf.microstrip.ModelValidityWarning")),
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
        # 8 EiB of frequencies: more than any 64-bit address space, so the
        # allocation is refused whatever the host's overcommit policy
        case(SIMULATE + ("--design", "{design}", "--points", str(10**18)), None,
             "Unable to allocate", id="simulate-huge-points"),
        case(LAYOUT + ("--planar-gap", "-1"), None, "planar_gap",
             id="layout-negative-gap"),
        case(LAYOUT + ("--overlap", "nan"), None, "overlap", id="layout-overlap-nan"),
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
        case(MATERIALS, ("materials", ("materials", 0, "conductivity"), -0.1),
             "materials[0]: conductivity must be positive", id="materials-negative-conductivity"),
        case(MATERIALS, ("materials", ("materials",), [
                 {"name": "X", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0},
                 {"name": "Y", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0, "conductivity": 0}]),
             "materials[1]: conductivity must be positive", id="materials-zero-conductivity"),
        # a misspelled top-level key would leave the built-in FR4 in place
        case(MATERIALS, ("materials", (), {"material": [
                 {"name": "FR4", "eps_r": 3.0, "tan_d": 0.001, "h": 1.0}]}),
             "materials file.material", id="materials-misspelled-top-key"),
    ])
    def test_exit_code(self, argv, edit, cause, code, tmp_path, config_path, design_path,
                       monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        if edit is not None:
            base, path, value = edit
            doc = {"config": PAPER_CONFIG, "materials": MATERIALS,
                   "design": json.loads(design_path.read_text())}[base]
            bad.write_text(json.dumps(_edited(doc, path, value)))
            if base == "materials":
                monkeypatch.setenv("MWBPF_MATERIALS", str(bad))
        names = dict(tmp=tmp_path, bad=bad, config=config_path, design=design_path)
        capsys.readouterr()
        assert main([a.format(**names) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid input: " if code == 7 else "error: ")
        assert cause in captured.err
        assert captured.err.count("\n") == 1
        assert not [p.name for p in tmp_path.iterdir() if p.suffix in (".s2p", ".csv", ".svg")]

    def test_no_traceback(self, tmp_path, design_path):
        proc = _run_cli("layout", "--design", str(design_path), "--kind", "ml",
                        "--overlap", "nan", "--out", str(tmp_path / "bad.svg"))
        assert proc.returncode == 7
        assert proc.stderr.startswith("error: invalid input: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "bad.svg").exists()


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = [int(code) for code in re.findall(r"^\| (\d+) +\|", readme, re.MULTILINE)]
    assert listed == sorted({0, *(code for _, code, _ in EXIT_CODES)})

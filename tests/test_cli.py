import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mwbpf
from mwbpf.cli import main
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


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(mwbpf.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mwbpf.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


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


class TestInvalidInput:
    LAYOUT = ("layout", "--kind", "ml", "--out", "{tmp}/bad.svg", "--design", "{design}")
    SIMULATE = ("simulate", "--out-prefix", "{tmp}/bad")
    SYNTH = ("synth", "--config", "{bad}", "--out", "{tmp}/d.json")
    MATERIALS = ("materials", "list")

    # argv, the edit that makes {bad} from the config, the design or the
    # MWBPF_MATERIALS file, and what the error line must name
    @pytest.mark.parametrize("argv, edit, cause", [
        pytest.param(SYNTH, ("config", ("spec", "f_upper_ghz"), DELETE), "f_upper_ghz",
                     id="synth-missing-key"),
        pytest.param(SYNTH, ("config", ("spec", "f_lower_ghz"), None), "spec.f_lower_ghz",
                     id="synth-null-number"),
        pytest.param(SYNTH, ("config", ("substrate",), 5), "substrate",
                     id="synth-substrate-number"),
        pytest.param(SYNTH, ("config", (), [1, 2]), "config", id="synth-config-array"),
        # a misspelled optional key would leave its default in place
        pytest.param(SYNTH, ("config", ("spec", "z0_ohms"), 75.0), "spec.z0_ohms",
                     id="synth-unknown-spec-key"),
        pytest.param(SIMULATE + ("--design", "{bad}"), ("design", ("spec", "f0"), 2.6),
                     "spec.f0", id="simulate-unknown-spec-key"),
        pytest.param(("synth", "--config", "{config}", "--out", "{tmp}/d.json", "--epoch", "inf"),
                     None, "timestamp out of range", id="synth-epoch-inf"),
        pytest.param(("synth", "--config", "{config}", "--out", "{tmp}/d.json",
                      "--epoch", "1e300"), None, "timestamp out of range", id="synth-epoch-1e300"),
        pytest.param(SIMULATE + ("--design", "{tmp}/nope.json"), None, "nope.json",
                     id="simulate-missing-design"),
        pytest.param(SIMULATE + ("--design", "{bad}"), ("design", ("dims_mm", 0, "w"), None),
                     "dims_mm[0].w", id="simulate-null-width"),
        pytest.param(SIMULATE + ("--design", "{bad}"), ("design", ("prototype", "g", 1), "x"),
                     "prototype.g[1]", id="simulate-string-g"),
        pytest.param(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
                     ("design", ("coupling", "sections", 0, "z0e_ohm"), -1), "z0e",
                     id="simulate-negative-z0e"),
        pytest.param(SIMULATE + ("--design", "{bad}", "--mode", "ideal"),
                     ("design", ("coupling", "sections", 0, "z0e_ohm"), 0), "z0e",
                     id="simulate-zero-z0e"),
        pytest.param(SIMULATE + ("--design", "{bad}", "--mode", "ml"),
                     ("design", ("coupling", "z0_ohm"), 75.0), "z0_ohm",
                     id="simulate-z0-mismatch"),
        # dimensions that overflow the coupled-line fits, after the validity step
        # has warned (a class name such as SIMULATE is out of a comprehension's scope)
        *[pytest.param(("simulate", "--out-prefix", "{tmp}/bad", "--design", "{bad}",
                        "--mode", *mode),
                       ("design", ("dims_mm", 0, key), value), "Numerical result out of range",
                       id=f"simulate-{key}-{value:g}-{'-'.join(m.strip('-') for m in mode)}",
                       marks=pytest.mark.filterwarnings(
                           "ignore::mwbpf.microstrip.ModelValidityWarning",
                           "ignore::mwbpf.microstrip.GapTooSmallWarning"))
          for key, value in (("s", 1e300), ("s", 1e-300), ("w", 1e300))
          for mode in (("physical",), ("physical", "--lossy"), ("ml", "--lossy"))],
        pytest.param(SIMULATE + ("--design", "{design}", "--mode", "ideal", "--lossy"), None,
                     "lossless", id="simulate-ideal-lossy"),
        pytest.param(SIMULATE + ("--design", "{design}", "--points", "1"), None,
                     "sweep points", id="simulate-one-point"),
        pytest.param(("compare", "--config", "{config}", "--points", "1"), None,
                     "sweep points", id="compare-one-point"),
        pytest.param(SIMULATE + ("--design", "{design}", "--f-stop", "inf"), None, "f_stop",
                     id="simulate-f-stop-inf"),
        pytest.param(SIMULATE + ("--design", "{design}", "--f-start", "1e-10"), None,
                     "1 ppm above", id="simulate-f-start-1hz"),
        pytest.param(SIMULATE + ("--design", "{design}", "--f-stop", "1e300"), None,
                     "overflows the section angle", id="simulate-f-stop-overflow"),
        # 8 EiB of frequencies: more than any 64-bit address space, so the
        # allocation is refused whatever the host's overcommit policy
        pytest.param(SIMULATE + ("--design", "{design}", "--points", str(10**18)), None,
                     "Unable to allocate", id="simulate-huge-points"),
        pytest.param(LAYOUT + ("--planar-gap", "-1"), None, "planar_gap",
                     id="layout-negative-gap"),
        pytest.param(LAYOUT + ("--overlap", "nan"), None, "overlap", id="layout-overlap-nan"),
        pytest.param(MATERIALS, ("materials", ("materials", 0, "tan_d"), DELETE), "tan_d",
                     id="materials-missing-key"),
        pytest.param(MATERIALS, ("materials", ("materials", 0, "eps_r"), None),
                     "materials[0].eps_r", id="materials-null-number"),
        pytest.param(MATERIALS, ("materials", ("materials", 0, "name"), 5),
                     "materials[0].name", id="materials-name-number"),
        pytest.param(MATERIALS, ("materials", ("materials", 0, "cond"), 1e7),
                     "materials[0].cond", id="materials-unknown-key"),
    ])
    def test_exit_code(self, argv, edit, cause, tmp_path, config_path, design_path,
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
        assert main([a.format(**names) for a in argv]) == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid input: ")
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

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mwbpf

# the package's public names: its eight submodules and what they export
PUBLIC = [
    "BandEdgeOutOfRange", "BandMetrics", "ChebyshevPrototype", "CoupledSectionDims",
    "CouplingDesign", "CouplingMatrixModel", "CouplingSection", "CouplingUnreachable",
    "DesignDocument", "FilterLayout", "FilterSpec", "FoldTooTight", "FrequencySweep",
    "GapTooSmallWarning", "Hairpin", "MaterialsRegistry", "ModeParams",
    "ModelValidityWarning", "NoConvergence", "SParamResult", "Stackup", "Substrate",
    "UnknownMaterial", "UnsatisfiableSpec", "abcd_to_s", "analyze_coupled",
    "analyze_single", "attenuation_height", "bandpass_to_lowpass",
    "check_fit_range", "coupling", "coupling_coefficients",
    "default_registry", "design", "design_coupling", "design_layout", "design_prototype",
    "dielectric_loss", "even_odd_impedances", "export_svg", "extract_metrics", "g_values",
    "hairpin_fold", "j_inverters", "layout", "load_design", "materials", "microstrip",
    "ml_hairpin_layout", "multilayer_stackup", "pcl_layout", "prototype", "read_touchstone",
    "required_order", "resonator_length", "rfsim", "ripple_bandwidth", "ripple_height",
    "save_design", "simulate", "single_layer_stackup", "sweep_coupling_matrix", "sweep_pcl",
    "synthesize_coupled", "synthesize_design", "synthesize_single_width", "touchstone",
    "unloaded_q", "write_csv", "write_touchstone",
]


def test_public_names():
    assert mwbpf.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(mwbpf))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from mwbpf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name, value in namespace.items():
        assert vars(mwbpf)[name] is value  # resolved once, then found directly


def test_submodule_through_the_package_getattr():
    # in a fresh process, mwbpf.touchstone before any import of it: the
    # package's __getattr__ imports the submodule
    code = ("import sys, mwbpf; assert 'mwbpf.touchstone' not in sys.modules; "
            "print(mwbpf.touchstone.touchstone_text.__module__)")
    env = dict(os.environ, PYTHONPATH=str(Path(mwbpf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "mwbpf.touchstone\n", "")


def test_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'sweep'"):
        mwbpf.sweep


def test_readme_library_example(capsys):
    # the python block of the README's Library section runs without a warning
    # and prints plain numbers
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(example.group(1), {})
    out = capsys.readouterr().out
    assert out.startswith("BandMetrics(f_c=2.5")
    assert "np." not in out

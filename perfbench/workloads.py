"""The three seeded workloads. Each op uses only mwbpf's public API or its CLI.

A workload makes the input of op ``i`` from the seed alone (``make_input``),
runs the op (``op``, the only timed part) and checks its output (``check``).
Ops come in rounds of ``round_len``; a run stops only at a round boundary,
so every run sees the same mix of op kinds.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

import checks
from checks import require

# README reference design: 2.58 GHz, 130 MHz band, order 4, 0.01 dB ripple
REFERENCE = dict(
    f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01, stop_freq=2.77, stop_atten_db=25.0
)
EPOCH = 1767225600
STAMP = datetime.fromtimestamp(EPOCH, timezone.utc).isoformat(timespec="seconds")
TYPED_ERRORS = (
    "UnsatisfiableSpec", "CouplingUnreachable", "NoConvergence", "BandEdgeOutOfRange", "FoldTooTight",
)


class Rejected(Exception):
    """The program refused the input with a typed error (not a failure)."""


def op_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def ml_model(mw, doc, sub):
    """Lossy coupled-resonator model of a design, built from public functions."""
    eps = [(mp.eps_eff_e + mp.eps_eff_o) / 2.0 for mp in (mw.analyze_coupled(d.w, d.s, sub) for d in doc.dims)]
    qu = mw.unloaded_q(sub, sum(eps) / len(eps), doc.spec.f0)
    return mw.coupling_coefficients(doc.prototype, doc.spec.fbw(), doc.spec.f0, qu=qu)


def cli_config(scale: float, substrate: str) -> dict:
    """CLI config of the reference spec with every frequency multiplied by scale."""
    ref = REFERENCE
    spec = {
        "f_lower_ghz": ref["f_lower"] * scale, "f_upper_ghz": ref["f_upper"] * scale, "f0_ghz": ref["f0"] * scale,
        "ripple_db": ref["ripple_db"], "stop_freq_ghz": ref["stop_freq"] * scale,
        "stop_atten_db": ref["stop_atten_db"], "z0_ohm": 50.0,
    }
    return {"spec": spec, "substrate": substrate}


class _InProcess:
    """Shared set-up of the workloads that call the library directly."""

    def __init__(self, seed: int, workdir: Path, mw, golden_dir: Path):
        self.seed, self.workdir, self.mw, self.golden_dir = seed, workdir, mw, golden_dir
        self.rejected_errors = tuple(getattr(mw, n) for n in TYPED_ERRORS)
        self.registry = mw.default_registry()
        for name in ("ModelValidityWarning", "GapTooSmallWarning"):
            warnings.filterwarnings("ignore", category=getattr(mw, name))

    def kind(self, inp) -> str:
        return self.name

    def traced_op(self, tracer, i, inp):
        tracer.install()
        try:
            return tracer.call("bench.op", i, self.op, inp)
        finally:
            tracer.uninstall()


class DenseSweep(_InProcess):
    """10001-point sweeps of the reference design, synthesized once in set-up.

    Ops rotate through {ideal cascade, lossy physical cascade, lossy
    coupled-resonator} x {FR4, RO3003}; each op also extracts band metrics
    and renders Touchstone and CSV text in memory.
    """

    name = "dense_sweep"
    POINTS = 10001
    COMBOS = [(engine, sub) for engine in ("ideal", "physical", "ml") for sub in ("FR4", "RO3003")]
    round_len = len(COMBOS)

    def __init__(self, seed, workdir, mw, golden_dir):
        super().__init__(seed, workdir, mw, golden_dir)
        spec = mw.FilterSpec(**REFERENCE)
        self.subs = {name: self.registry.get(name) for name in ("FR4", "RO3003")}
        self.docs = {
            name: mw.synthesize_design(spec, sub, created=STAMP) for name, sub in self.subs.items()
        }

    def make_input(self, i):
        engine, sub = self.COMBOS[i % self.round_len]
        rng = op_rng(self.seed, i)
        # a slightly different span every op, so no two ops repeat a sweep
        return engine, sub, (2.0 - rng.uniform(0.0, 0.05), 3.0 + rng.uniform(0.0, 0.05))

    def kind(self, inp) -> str:
        return f"{inp[0]}/{inp[1]}"

    def _sweep(self, engine, name, sweep):
        mw, doc, sub = self.mw, self.docs[name], self.subs[name]
        if engine == "ml":
            return mw.sweep_coupling_matrix(ml_model(mw, doc, sub), sweep, z0=doc.spec.z0)
        physical = engine == "physical"
        return mw.sweep_pcl(
            doc.coupling, doc.spec.f0, sweep, mode=engine,
            dims=doc.dims if physical else None, substrate=sub if physical else None, lossy=physical,
        )

    @staticmethod
    def _comments(doc, engine, name):
        return (f"generated by {doc.tool} ({doc.created})", f"mode={engine} lossy={engine != 'ideal'} substrate={name}")

    def op(self, inp):
        engine, name, span = inp
        mw, doc = self.mw, self.docs[name]
        result = self._sweep(engine, name, mw.FrequencySweep(span[0], span[1], self.POINTS))
        metrics = mw.extract_metrics(result, rl_band=(doc.spec.f_lower, doc.spec.f_upper))
        s2p = mw.touchstone.touchstone_text(result, comments=self._comments(doc, engine, name))
        return metrics, s2p, mw.touchstone.csv_text(result)

    def check(self, inp, out):
        engine, _, span = inp
        metrics, s2p, csv = out
        rows = checks.check_touchstone(s2p, self.POINTS, span, lossless=engine == "ideal")
        checks.check_csv_matches(csv, rows)
        checks.check_band_metrics(metrics, span)

    def golden(self) -> int:
        """Reference FR4 ideal sweep equals the golden .s2p; it reads back intact."""
        mw, doc = self.mw, self.docs["FR4"]
        result = self._sweep("ideal", "FR4", mw.FrequencySweep())
        text = mw.touchstone.touchstone_text(result, comments=self._comments(doc, "ideal", "FR4"))
        golden = (self.golden_dir / "reference_fr4_ideal.s2p").read_text(encoding="ascii")
        require(text == golden, "in-process reference sweep differs from the golden .s2p")
        path = self.workdir / "reference.s2p"
        mw.write_touchstone(result, path, comments=self._comments(doc, "ideal", "FR4"))
        band = (doc.spec.f_lower, doc.spec.f_upper)
        a = mw.extract_metrics(result, rl_band=band)
        b = mw.extract_metrics(mw.read_touchstone(path), rl_band=band)
        for field in ("f_c", "bw_3db", "il_db", "rl_db", "f_lower_3db", "f_upper_3db"):
            require(abs(getattr(a, field) - getattr(b, field)) <= 1e-6, f"round trip moved {field}")
        return 2


class DesignSpace(_InProcess):
    """One seeded random spec and substrate per op: synthesis, a coarse sweep, layout."""

    name = "design_space"
    round_len = 1
    POINTS = 21
    RIPPLES_DB = (0.01, 0.05, 0.1, 0.5)

    def make_input(self, i):
        rng = op_rng(self.seed, i)
        f0 = rng.uniform(1.0, 10.0)
        bw = rng.uniform(0.02, 0.20) * f0
        f_lower = (math.sqrt(bw * bw + 4.0 * f0 * f0) - bw) / 2.0  # f_lower * f_upper = f0^2
        spec = dict(
            f_lower=f_lower, f_upper=f_lower + bw, f0=f0,
            ripple_db=rng.choice(self.RIPPLES_DB), stop_atten_db=rng.uniform(15.0, 45.0),
            stop_freq=f_lower + bw * rng.uniform(1.3, 2.5),
        )
        if rng.random() < 0.25:
            sub = self.registry.get(rng.choice(("FR4", "RO3003")))
        else:
            sub = self.mw.Substrate(
                name=f"gen{i}", eps_r=rng.uniform(2.0, 12.0), tan_d=rng.uniform(0.0, 0.03), h=rng.uniform(0.1, 3.0),
            )
        return spec, sub

    def op(self, inp):
        mw = self.mw
        spec_args, sub = inp
        spec = mw.FilterSpec(**spec_args)
        doc = mw.synthesize_design(spec, sub, created=STAMP)
        bw = spec.f_upper - spec.f_lower
        sweep = mw.FrequencySweep(spec.f0 - 1.5 * bw, spec.f0 + 1.5 * bw, self.POINTS)
        result = mw.sweep_pcl(doc.coupling, spec.f0, sweep, mode="physical", dims=doc.dims, substrate=sub, lossy=True)
        metrics = mw.extract_metrics(result, rl_band=(spec.f_lower, spec.f_upper))
        feed = mw.synthesize_single_width(spec.z0, sub)
        svg = mw.export_svg(mw.pcl_layout(doc.dims, feed_width=feed, stackup=mw.single_layer_stackup(sub)))
        return doc, sweep, result, metrics, svg

    def check(self, inp, out):
        mw, sub = self.mw, inp[1]
        doc, sweep, result, metrics, svg = out
        for section, d in zip(doc.coupling.sections, doc.dims):
            mp = mw.analyze_coupled(d.w, d.s, sub)
            checks.check_round_trip(section.z0e, section.z0o, mp.z0e, mp.z0o)
        span = (sweep.f_start, sweep.f_stop)
        checks.check_touchstone(mw.touchstone.touchstone_text(result), self.POINTS, span, lossless=False)
        checks.check_band_metrics(metrics, span)
        checks.check_svg(svg)

    def golden(self) -> int:
        return 0


class CliSession:
    """One ``python -m mwbpf.cli`` subprocess per op, nine commands a session.

    Session specs scale the reference band to a seeded f0 (order stays 4,
    so the multilayer layout is defined) on a seeded built-in substrate.
    """

    name = "cli_session"
    STEPS = (
        "materials", "synth", "simulate:ideal", "simulate:physical", "simulate:ml",
        "layout:pcl", "layout:ml", "compare:pcl", "compare:ml",
    )
    round_len = len(STEPS)
    POINTS = 1001
    TYPED_EXIT = (2, 3, 4, 5, 6)

    def __init__(self, seed, workdir, env, golden_dir, child_script):
        self.seed, self.workdir, self.env, self.golden_dir = seed, workdir, env, golden_dir
        self.child_script = child_script
        self.rejected_errors = (Rejected,)
        self.bytes_written: list[int] = []
        self.summaries: list[dict] = []
        self.peak_rss_kb = 0  # largest ru_maxrss of a CLI process

    def _config(self, session: int):
        rng = op_rng(self.seed, session)
        scale = rng.uniform(1.5, 4.0) / REFERENCE["f0"]
        return cli_config(scale, rng.choice(("FR4", "RO3003"))), (2.0 * scale, 3.0 * scale)

    def make_input(self, i):
        session, step = divmod(i, self.round_len)
        config, span = self._config(session)
        cfg, design = f"s{session}.json", f"s{session}-design.json"
        if step == 0:
            (self.workdir / cfg).write_text(json.dumps(config), encoding="ascii")
        kind, _, variant = self.STEPS[step].partition(":")
        band = ["--f-start", repr(span[0]), "--f-stop", repr(span[1])]
        outputs = []
        if kind == "materials":
            argv = ["materials", "list"]
        elif kind == "synth":
            argv = ["synth", "--config", cfg, "--out", design, "--epoch", str(EPOCH)]
            outputs = [design]
        elif kind == "simulate":
            prefix = f"s{session}-{variant}"
            argv = ["simulate", "--design", design, "--mode", variant, *band, "--out-prefix", prefix]
            argv += [] if variant == "ideal" else ["--lossy"]
            outputs = [prefix + ".s2p", prefix + ".csv"]
        elif kind == "layout":
            svg = f"s{session}-{variant}.svg"
            argv = ["layout", "--design", design, "--kind", variant, "--out", svg]
            argv += ["--compare"] if variant == "ml" else []
            outputs = [svg]
        else:
            argv = ["compare", "--config", cfg, "--mode", variant, *band]
        return kind, variant, argv, outputs, span

    def _run(self, argv, prefix=("-m", "mwbpf.cli"), timeout=150):
        """Run one CLI process to its end and keep its own peak RSS."""

        def expire(signum, frame):
            raise subprocess.TimeoutExpired(args, timeout)

        args = [sys.executable, *prefix, *argv]
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(args, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, expire)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(args, proc.returncode, out.read().decode(), err.read().decode())

    def kind(self, inp) -> str:
        return inp[0]

    def op(self, inp):
        return self._run(inp[2])

    def traced_op(self, tracer, i, inp):
        stats = self.workdir / "trace.json"
        proc = self._run([str(stats), *inp[2]], prefix=(str(self.child_script),))
        if stats.exists():
            self.summaries.append(json.loads(stats.read_text(encoding="ascii")))
            stats.unlink()
        return proc

    def check(self, inp, proc):
        kind, variant, argv, outputs, span = inp
        typed = any(line.startswith("error:") for line in proc.stderr.splitlines())
        if proc.returncode in self.TYPED_EXIT and typed and "usage:" not in proc.stderr:
            raise Rejected(proc.stderr.strip())
        require(proc.returncode == 0, f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
        out = proc.stdout
        texts = {name: (self.workdir / name).read_text(encoding="ascii") for name in outputs}
        self.bytes_written.append(sum(len(t) for t in texts.values()))
        if kind == "materials":
            require("FR4" in out and "RO3003" in out, "materials list lacks the built-ins")
        elif kind == "synth":
            require("order n = 4" in out, "reference-scaled spec did not give order 4")
            checks.check_design_json(texts[outputs[0]], 4)
        elif kind == "simulate":
            rows = checks.check_touchstone(texts[outputs[0]], self.POINTS, span, lossless=variant == "ideal")
            checks.check_csv_matches(texts[outputs[1]], rows)
            require("spec check:" in out, "simulate printed no spec check")
        elif kind == "layout":
            checks.check_svg(texts[outputs[0]])
            require(variant != "ml" or "area ratio multilayer/edge-coupled" in out, "no area ratio")
        else:
            lines = out.splitlines()
            header = next((n for n, line in enumerate(lines) if line.startswith("property")), None)
            require(header is not None and len(lines) >= header + 8, "compare printed no table")
            for line in lines[header + 1 : header + 7]:
                values = [float(tok) for tok in line.split()[-2:]]
                require(all(map(math.isfinite, values)), f"compare row {line!r}")
                require(not line.startswith("S21") or max(values) <= 0.0, f"gain in {line!r}")

    def golden(self) -> int:
        """README config, pinned epoch: the .s2p and ml SVG equal the goldens."""
        (self.workdir / "golden.json").write_text(json.dumps(cli_config(1.0, "FR4")), encoding="ascii")
        steps = (
            ["synth", "--config", "golden.json", "--out", "golden-design.json", "--epoch", str(EPOCH)],
            ["simulate", "--design", "golden-design.json", "--mode", "ideal", "--out-prefix", "golden"],
            ["layout", "--design", "golden-design.json", "--kind", "ml", "--out", "golden-ml.svg"],
        )
        for argv in steps:
            proc = self._run(argv)
            require(proc.returncode == 0, f"reference {argv[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
        for made, golden in (("golden.s2p", "reference_fr4_ideal.s2p"), ("golden-ml.svg", "reference_fr4_ml.svg")):
            require(
                (self.workdir / made).read_bytes() == (self.golden_dir / golden).read_bytes(),
                f"reference session {made} differs from golden {golden}",
            )
        return 2

#!/usr/bin/env python3
"""Benchmark of mwbpf through its public API and its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json for why each was chosen):

  dense_sweep   10001-point sweeps of the reference design (synthesized in
                set-up on FR4 and RO3003), rotating ideal cascade, lossy
                physical cascade and lossy coupled-resonator engines; each op
                also extracts band metrics and renders Touchstone and CSV.
  design_space  one seeded spec per op (f0 1-10 GHz, FBW 2-20 %, ripple
                0.01/0.05/0.1/0.5 dB, attenuation 15-45 dB) on a built-in or
                generated substrate (eps_r 2-12, h 0.1-3 mm, tan_d 0-0.03):
                synthesis, a 21-point lossy sweep over f0 +- 1.5 bandwidths,
                band metrics, edge-coupled layout and SVG.
  cli_session   one ``python -m mwbpf.cli`` process per op, nine commands a
                session at the default 1001 points, writing artifacts.

Every workload is a closed loop with one client in one process and no
threads; cli_session runs one subprocess at a time. Each op's output is
checked outside the timed region, and a run also checks the golden files.
A typed mwbpf error (or its exit code 2-6) counts as a rejected op; an
untyped exception, another non-zero exit or a failed check is a failed op,
and any failed op or golden check makes the run exit 1.

--trace 0 prints the end-to-end metrics. A run stops at the end of a whole
round of op kinds once --seconds of op time and at least --min-ops ops are
done. The default of 54 ops leaves 10 samples above latency_p80_ms; it
binds only dense_sweep, whose ops take most of a second. Its rounds hold
each engine twice, so its median and p80 sit inside the ideal and the
lossy physical sweeps, not on the edge between two engines. setup_s is the
median over nine fresh processes of the time from process start to op 0.

Times are scaled to a reference host speed by ``hostspeed``: each op and
each set-up probe is bracketed by a fixed calibration that does not run
mwbpf, which cancels the shared host's speed swings. The line before the
result records the same times as measured, and the ratio of the two.

--trace 1 runs the ops untraced for half of --seconds, then the same ops
with ``tracer`` installed (in the CLI processes for cli_session), and prints
the per-layer metrics: times, calls and bytes are means per op; layer shares
are percentages of op wall time; trace.overhead_pct is the throughput lost
to tracing. The cli.* start-up figures are measured in every workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("dense_sweep", "design_space", "cli_session")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_OPS = 54
PROBES = 9
# 1 ms calibration units timed after each in-process op (see hostspeed.py):
# about 4 % of a dense_sweep op and 30 % of a design_space op
KERNEL_REPS = {"dense_sweep": 20, "design_space": 2}
LAYERS = ("prototype", "coupling", "microstrip", "rfsim", "touchstone", "design", "layout", "materials", "cli", "bench")
CLI_COMMANDS = ("materials", "synth", "simulate", "layout", "compare")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def require_program() -> None:
    for path in (SRC / "mwbpf" / "cli.py", GOLDEN / "reference_fr4_ideal.s2p", GOLDEN / "reference_fr4_ml.svg"):
        if not path.is_file():
            raise SystemExit(f"perfbench: {path} not found; run from a checkout of the repository")


def load_program():
    """Import mwbpf from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mwbpf

    if Path(mwbpf.__file__).resolve().parent != SRC / "mwbpf":
        raise SystemExit(f"perfbench: imported mwbpf from {mwbpf.__file__}, not {SRC}")
    return mwbpf


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "cli_session":
        return workloads.CliSession(seed, workdir, child_env(), GOLDEN, HERE / "cli_child.py")
    cls = {"dense_sweep": workloads.DenseSweep, "design_space": workloads.DesignSpace}[name]
    return cls(seed, workdir, load_program(), GOLDEN)


class Loop:
    """Runs ops one after another and sorts each into completed/rejected/failed.

    With a calibration from ``hostspeed``, each op's time is also kept scaled
    to the reference host speed; the calibration runs right after each op,
    and once before the first.
    """

    def __init__(self, wl, run_op, speed=None):
        self.wl, self.run_op, self.speed = wl, run_op, speed
        self._last_cal = None
        self.latencies: list[float] = []  # ms as measured, completed ops only
        self.scaled: list[float] = []  # the same at reference host speed
        self.kinds: list[str] = []
        self.attempted = self.completed = self.rejected = self.failed = 0
        self.busy_ns = 0
        self.scaled_busy_ns = 0.0

    def step(self, i: int) -> None:
        wl = self.wl
        inp = wl.make_input(i)
        error = None
        t0 = time.perf_counter_ns()
        try:
            out = self.run_op(i, inp)
            outcome = "done"
        except wl.rejected_errors:
            outcome = "rejected"
        except Exception as exc:  # an untyped exception is a failed op
            outcome, error = "failed", exc
        dt = time.perf_counter_ns() - t0
        scale = 1.0
        if self.speed:
            before, self._last_cal = self._last_cal, self.speed.measure()
            scale = self.speed.scale(before, self._last_cal)
        self.attempted += 1
        self.busy_ns += dt
        self.scaled_busy_ns += dt * scale
        if outcome == "done":
            try:
                wl.check(inp, out)
            except wl.rejected_errors:
                outcome = "rejected"
            except Exception as exc:
                outcome, error = "failed", exc
        if outcome == "done":
            self.completed += 1
            self.latencies.append(dt / 1e6)
            self.scaled.append(dt * scale / 1e6)
            self.kinds.append(wl.kind(inp))
        elif outcome == "rejected":
            self.rejected += 1
        else:
            self.failed += 1
            print(f"op {i} failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)

    def run(self, seconds: float = 0.0, min_ops: int = 0, n_ops: int | None = None) -> "Loop":
        i = 0
        if self.speed:
            self._last_cal = self.speed.measure()
        while True:
            if n_ops is not None:
                if i >= n_ops:
                    break
            elif i % self.wl.round_len == 0 and self.busy_ns >= seconds * 1e9 and i >= min_ops:
                break
            self.step(i)
            i += 1
        return self


def plain_loop(wl) -> Loop:
    return Loop(wl, lambda i, inp: wl.op(inp))


def setup_seconds(args) -> tuple[float, float]:
    """Median time from process start until a fresh process could run op 0.

    Returns it at reference host speed and as measured.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    speed = hostspeed.Spawn(child_env())
    samples, scaled = [], []
    after = speed.measure()
    for _ in range(PROBES):
        before = after
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
        after = speed.measure()
        scaled.append(samples[-1] * speed.scale(before, after))
    return statistics.median(scaled), statistics.median(samples)


def startup_ms() -> tuple[float, float, float]:
    """Bare interpreter start, and cumulative imports of mwbpf.cli and numpy (ms)."""
    env = child_env()
    interpreter, cli, numpy = [], [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interpreter.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mwbpf.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        cli.append(cumulative["mwbpf.cli"])
        numpy.append(cumulative["numpy"])
    return statistics.median(interpreter), statistics.median(cli), statistics.median(numpy)


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(args, loop: Loop) -> tuple[dict, dict]:
    """The end-to-end metrics, with times at reference host speed, and the
    same times as measured."""
    if args.workload == "cli_session":  # the CLI processes, not the calibration's
        peak_rss_kb = loop.wl.peak_rss_kb
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = peak_rss_kb / 1024.0  # Linux reports KiB
    setup, setup_measured = setup_seconds(args)
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_ops_s": (loop.completed / (loop.scaled_busy_ns / 1e9), "1/s"),
        "latency_p50_ms": (quantile(loop.scaled, 0.50), "ms"),
        "latency_p80_ms": (quantile(loop.scaled, 0.80), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured = {
        "setup_s": setup_measured,
        "throughput_ops_s": loop.completed / (loop.busy_ns / 1e9),
        "latency_p50_ms": quantile(loop.latencies, 0.50),
        "latency_p80_ms": quantile(loop.latencies, 0.80),
        "host_speed": loop.busy_ns / loop.scaled_busy_ns,
    }
    return metrics, measured


def per_layer(args, wl, plain: Loop, traced: Loop, summary: dict) -> dict:
    fns, extra = summary["functions"], summary["extra"]
    ops, wall_ns = traced.attempted, traced.busy_ns
    empty = {"calls": 0, "self_ns": 0, "layer_ns": 0, "total_ns": 0}

    def row(name):
        return fns.get(name, empty)

    def self_ms(*names):
        return sum(row(n)["self_ns"] for n in names) / ops / 1e6

    def calls(name):
        return row(name)["calls"] / ops

    def us_per_point(name):
        points = extra.get(name + ".points", 0)
        return row(name)["self_ns"] / points / 1e3 if points else 0.0

    emitters = ("touchstone.touchstone_text", "touchstone.csv_text")
    emit_bytes = sum(extra.get(n + ".bytes", 0) for n in emitters)
    emit_ns = sum(row(n)["self_ns"] for n in emitters)
    sections = calls("microstrip.synthesize_coupled")
    attempted = plain.attempted + traced.attempted
    m = {
        "rfsim.sweep_pcl.self_ms": (self_ms("rfsim.sweep_pcl"), "ms"),
        "rfsim.sweep_pcl.us_per_point": (us_per_point("rfsim.sweep_pcl"), "us"),
        "rfsim.sweep_coupling_matrix.self_ms": (self_ms("rfsim.sweep_coupling_matrix"), "ms"),
        "rfsim.sweep_coupling_matrix.us_per_point": (us_per_point("rfsim.sweep_coupling_matrix"), "us"),
        "rfsim.extract_metrics.self_ms": (self_ms("rfsim.extract_metrics"), "ms"),
        "microstrip.dielectric_loss.calls": (calls("microstrip.dielectric_loss"), "count"),
        "touchstone.touchstone_text.self_ms": (self_ms(emitters[0]), "ms"),
        "touchstone.csv_text.self_ms": (self_ms(emitters[1]), "ms"),
        "touchstone.bytes_out": (emit_bytes / ops, "count"),
        "touchstone.mb_per_s": (emit_bytes / 1e6 / (emit_ns / 1e9) if emit_ns else 0.0, "MB/s"),
        "microstrip.synthesize_coupled.calls": (sections, "count"),
        "microstrip.synthesize_coupled.self_ms": (self_ms("microstrip.synthesize_coupled"), "ms"),
        "microstrip.analyze_coupled.calls": (calls("microstrip.analyze_coupled"), "count"),
        "microstrip.evals_per_section": (calls("microstrip.analyze_coupled") / sections if sections else 0.0, "ratio"),
        "microstrip.synthesize_single_width.calls": (calls("microstrip.synthesize_single_width"), "count"),
        "microstrip.validity_warnings": (extra.get("microstrip.validity_warnings", 0) / ops, "count"),
        "design.synthesize_design.self_ms": (self_ms("design.synthesize_design"), "ms"),
        "prototype.design_prototype.self_ms": (self_ms("prototype.design_prototype"), "ms"),
        "coupling.design_coupling.self_ms": (self_ms("coupling.design_coupling"), "ms"),
        "design.rejected_ratio": ((plain.rejected + traced.rejected) / attempted, "ratio"),
        "error_rate": ((plain.failed + traced.failed) / attempted, "ratio"),
        "layout.self_ms": (self_ms("layout.pcl_layout", "layout.export_svg"), "ms"),
    }
    for layer in LAYERS:
        ns = sum(r["layer_ns"] for name, r in fns.items() if name.split(".")[0] == layer)
        m[f"layer.{layer}.self_pct"] = (100.0 * ns / wall_ns, "%")

    interpreter, import_cli, import_numpy = startup_ms()
    m["cli.interpreter_ms"] = (interpreter, "ms")
    m["cli.import_ms"] = (import_cli, "ms")
    m["cli.import_numpy_ms"] = (import_numpy, "ms")
    is_cli = args.workload == "cli_session"
    for cmd in CLI_COMMANDS:
        walls = [ms for kind, ms in zip(plain.kinds, plain.latencies) if is_cli and kind == cmd]
        m[f"cli.{cmd}.wall_ms"] = (statistics.median(walls) if walls else 0.0, "ms")
    command_ms = statistics.median(plain.latencies) if is_cli else 0.0
    m["cli.busy_ms"] = (command_ms - interpreter - import_cli if is_cli else 0.0, "ms")
    m["cli.startup_pct"] = (100.0 * (interpreter + import_cli) / command_ms if is_cli else 0.0, "%")
    m["cli.bytes_written"] = (statistics.fmean(wl.bytes_written) if is_cli else 0.0, "count")
    m["trace.overhead_pct"] = (100.0 * (1.0 - plain.busy_ns / traced.busy_ns), "%")
    return m


def environment() -> dict:
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "threads": thread_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no thread count in /proc/self/status")


def report(info: dict, loops, golden_ok: bool, metrics: dict) -> int:
    """Print the environment line and the result line; return the exit code."""
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = golden_ok and failed == 0
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_golden(wl) -> tuple[bool, int]:
    try:
        return True, wl.golden()
    except Exception:
        print("golden check failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False, 0


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under the checkout, removed with everything in it."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run(args) -> int:
    with scratch_dir(f"{args.workload}-") as workdir:
        wl = make_workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            wl.make_input(0)
            print("ready", flush=True)
            return 0
        measured = None
        if not args.trace:
            if args.workload == "cli_session":
                speed = hostspeed.Spawn(child_env())
            else:
                speed = hostspeed.Kernel(KERNEL_REPS[args.workload])
            loop = Loop(wl, lambda i, inp: wl.op(inp), speed).run(args.seconds, args.min_ops)
            metrics, measured = end_to_end(args, loop)
            loops = [loop]
        else:
            import tracer as tracing

            plain = plain_loop(wl).run(args.seconds / 2.0)
            in_process = None if args.workload == "cli_session" else tracing.Tracer(wl.mw)
            traced = Loop(wl, functools.partial(wl.traced_op, in_process)).run(n_ops=plain.attempted)
            summary = tracing.merge(wl.summaries) if in_process is None else in_process.summary()
            metrics = per_layer(args, wl, plain, traced, summary)
            loops = [plain, traced]
        golden_ok, golden_checks = run_golden(wl)
        kinds = {}
        for kind, ms in zip(loops[0].kinds, loops[0].latencies):
            kinds.setdefault(kind, []).append(ms)
        info = {
            **environment(),
            "workload": args.workload,
            "seed": args.seed,
            "golden_checks": golden_checks,
            "latency_samples": len(loops[0].latencies),
            "rejected": sum(loop.rejected for loop in loops),
            "median_ms_by_kind": {k: round(statistics.median(v), 3) for k, v in kinds.items()},
        }
        if measured:
            info["measured"] = measured
        return report(info, loops, golden_ok, metrics)


def smoke() -> int:
    """Run every workload briefly and assert the output contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    golden = {"dense_sweep": 2, "design_space": 0, "cli_session": 2}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--min-ops", "1"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
            *_, info_line, result_line = proc.stdout.splitlines()
            result, info = json.loads(result_line), json.loads(info_line)["info"]
            assert list(result) == ["correct", "attempted", "failed", "metrics"], result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], f"{workload} trace={trace}: {units} != {expected[trace]}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            assert info["golden_checks"] == golden[workload], info
            assert info["threads"] <= info["nproc"], info
            print(f"smoke: {workload} trace={trace}: {result['attempted']} ops, metrics and units as declared")
    corrupted_touchstone_fails()
    print("smoke: corrupted Touchstone line counted as a failed op; exit code 1")
    return 0


def corrupted_touchstone_fails() -> None:
    import workloads

    class Corrupted(workloads.DenseSweep):
        POINTS = 101

        def op(self, inp):
            metrics, s2p, csv = super().op(inp)
            lines = s2p.splitlines(keepends=True)
            fields = lines[20].split()
            fields[5] = "0.123456789"  # Re(S12) no longer equals Re(S21)
            lines[20] = " ".join(fields) + "\n"
            return metrics, "".join(lines), csv

    with scratch_dir("smoke-") as workdir:
        wl = Corrupted(1, workdir, load_program(), GOLDEN)
        loop = plain_loop(wl)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            loop.run(n_ops=1)
        assert loop.failed == 1 and loop.completed == 0, vars(loop)
        assert "S12 != S21" in err.getvalue(), err.getvalue()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = report({}, [loop], True, {})
        assert code == 1 and json.loads(out.getvalue().splitlines()[-1])["correct"] is False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS, dest="min_ops",
                        help="ops a --trace 0 run attempts at least (default: %(default)s)")
    parser.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                        help="set up, print 'ready' and exit (used to time set-up)")
    parser.add_argument("--smoke", action="store_true", help="self-test every workload briefly")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    require_program()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())

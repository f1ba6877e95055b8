"""Host-speed calibration: fixed work that does not touch mwbpf.

The benchmark runs on a few cores of a shared host whose speed moves by
1.3-1.7x within seconds and between minutes under other tenants' load,
and that moves process time as much as wall time. So the run times a fixed
piece of calibration work right after every op (and around every set-up
probe), and scales the op's time by

    reference / mean(calibration before the op, calibration after it)

that is, to the time the op would take on a host where the calibration
takes its reference time. The calibration never runs the program, so a
faster program moves the scaled times and a faster host does not.

Two calibrations, each like the work it scales:

  Kernel  in the benchmark process, for ops run in it: complex arithmetic
          in the interpreter, small numpy array expressions and number
          formatting, which is what mwbpf's sweeps and emitters do.
  Spawn   a fresh interpreter that imports numpy, for ops that start a
          process (set-up probes, CLI commands): their time is mostly
          exec, loading extension modules and unmarshalling code, which
          the in-process kernel does not track.
"""

from __future__ import annotations

import subprocess
import sys
import time


class _Calibration:
    def __init__(self, reference_ns: float):
        self.reference_ns = reference_ns
        self.samples_ns: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter_ns()
        self._work()
        sample = float(time.perf_counter_ns() - t0)
        self.samples_ns.append(sample)
        return sample

    def scale(self, before_ns: float, after_ns: float) -> float:
        """Factor from the host speed around an interval to the reference."""
        return 2.0 * self.reference_ns / (before_ns + after_ns)


# Reference times: about the medians on a shared 2 vCPU Xeon at 2.0 GHz
# with Python 3.11.7 and numpy 2.4.6.
UNIT_NS = 1e6
SPAWN_NS = 180e6


class Kernel(_Calibration):
    """``reps`` units of interpreter and numpy work, about 1 ms each."""

    def __init__(self, reps: int):
        super().__init__(reps * UNIT_NS)
        import numpy as np

        self.reps, self.np = reps, np
        self.x = np.linspace(0.1, 1.0, 512)

    def _work(self) -> None:
        for _ in range(self.reps):
            self._unit()

    def _unit(self) -> float:
        np, x = self.np, self.x
        z = 0j
        for k in range(1, 560):
            z = z * 0.5 + complex(1.0 / k, k * 1e-3)
        acc = 0.0
        for _ in range(17):
            y = np.exp(1j * x) / (1.0 + x * z.real)
            acc += float(np.abs(y).sum())
        text = " ".join(f"{v:.9f}" for v in x[:90])
        return acc + len(text)


class Spawn(_Calibration):
    """A fresh ``python -c "import numpy"`` process, run to its end."""

    def __init__(self, env: dict):
        super().__init__(SPAWN_NS)
        self.env = env

    def _work(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True, timeout=60)

"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a shared machine whose speed drifts by 10-25% over
seconds to minutes, for the same call on the same input. A fixed kernel of
standard-library work that a CLI call also does (build an argparse parser
with subcommands and parse an argv; a JSON round trip) is timed between ops.
Times are scaled by NOMINAL_S / median(kernel time), i.e. reported at the
speed at which the kernel takes NOMINAL_S. Of the kernels tried (a float
loop, small numpy calls, dataclass arithmetic, argparse, JSON), this one
followed the workloads' drift most closely. The kernel is part of the
benchmark, so a change to the program moves only the measured side.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

NOMINAL_S = 0.001
_DOC = {"values": [0.1 * i for i in range(100)], "names": {str(i): i * 0.5 for i in range(100)}}


def kernel() -> None:
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for n in range(3):
        p = sub.add_parser(f"command{n}")
        for a in range(8):
            p.add_argument(f"--option{a}", help="an option")
    parser.parse_args(["command1", "--option3=1.5,2", "--option5", "x"])
    json.loads(json.dumps(_DOC, indent=2))


class SpeedProbe:
    """Kernel timings taken during one stretch of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """Factor that maps a time measured in this stretch to nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)

"""Workload definitions: spec files, input pools and the op sequence of a run.

An op is one ``circulant3.cli.main(argv)`` call. Every workload draws its ops
from a fixed pool whose entries are generated here from their pool index
alone, so the recorded reference (``reference/<workload>.json.gz``) holds the
expected output of every op a run can issue. The workload seed only picks the
order in which a run walks the pool.

Spec paths in argv are written as ``{generic}`` / ``{parallel}`` placeholders
and filled in with files in a temporary directory at run time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

SPECS = {
    "generic": (
        'name = "generic"\n'
        "[metric]\n"
        'A = "3 + x1^2/5 + exp(x3)/7"\n'
        'B = "1 + sin(x2)/4 + x1*x3/9"\n'
    ),
    "parallel": (
        'name = "parallel"\n'
        "[metric]\n"
        'A = "4*x1 + 2*x2 + 20"\n'
        'B = "x1 + 2*x2 + 3*x3 + 5"\n'
    ),
}

# Sample sizes per sampled call. They keep one call at tens of milliseconds,
# so that a run of a few seconds holds well over 100 calls.
RIEMANN_SAMPLE = 40
THEOREMS_SAMPLE = 4

# Pool sizes: large enough that a run at several times today's speed does
# not walk past the end of its pool and repeat an input.
POOL_SIZE = {"riemann-generic": 2048, "theorems-parallel": 1024, "point-queries": 256}

# The 14 CLI commands in the order one point-queries cycle issues them.
POINT_COMMANDS = (
    "validate",
    "christoffel",
    "riemann",
    "closed-form",
    "compare-curvature",
    "sectional",
    "angles",
    "qbasis",
    "orthobasis",
    "check-identity",
    "check-parallel",
    "nabla-q",
    "verify-theorems",
    "example-m5",
)

WORKLOADS = tuple(POOL_SIZE)


@dataclass(frozen=True)
class Op:
    key: str  # reference key, unique within the workload
    argv: tuple[str, ...]  # with {generic}/{parallel} placeholders


def write_specs(directory: Path) -> dict[str, str]:
    """Write the spec files into directory; returns placeholder -> path."""
    paths = {}
    for name, text in SPECS.items():
        path = directory / f"{name}.toml"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def concrete_argv(op: Op, spec_paths: dict[str, str]) -> list[str]:
    return [a.format(**spec_paths) for a in op.argv]


def _triple(values, digits: int) -> str:
    return ",".join(f"{v:.{digits}f}" for v in values)


def _draw(rng: random.Random, box, ok, digits: int = 4):
    """Uniform draw from box, rounded to digits, retried until ok(point)."""
    while True:
        p = [round(rng.uniform(lo, hi), digits) for lo, hi in box]
        if ok(p):
            return p


def _generic_ok(p) -> bool:
    x1, x2, x3 = p
    A = 3 + x1 * x1 / 5 + math.exp(x3) / 7
    B = 1 + math.sin(x2) / 4 + x1 * x3 / 9
    return B > 0.05 and A - B > 0.05


def _parallel_ok(p) -> bool:
    x1, x2, x3 = p
    return x1 + 2 * x2 + 3 * x3 + 5 > 0.05  # A - B = 3 x1 - 3 x3 + 15 > 0 on the box


def _example_ok(p) -> bool:
    x1, x2, x3 = p
    return 2 * x1 + x2 + x3 > 0.05 and -x2 - x3 > 0.05


def _q_basis_ok(v) -> bool:
    x1, x2, x3 = v
    cubic = 3 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3)
    return abs(cubic) > 0.05 * max(1.0, math.hypot(x1, x2, x3) ** 3)


def _plane_ok(x, y) -> bool:
    cross = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
    return math.hypot(*cross) > 0.2 * math.hypot(*x) * math.hypot(*y)


GENERIC_BOX = ((-6.0, 6.0), (-1.0, 1.0), (-6.0, 6.0))
PARALLEL_BOX = ((-1.0, 1.0),) * 3
EXAMPLE_BOX = ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1))
VECTOR_BOX = ((-2.0, 2.0),) * 3


def _box_arg(box) -> str:
    return "--box=" + ",".join(f"{lo:g}:{hi:g}" for lo, hi in box)


def pool_ops(workload: str, index: int) -> list[Op]:
    """The ops of one pool entry (one op, or one 14-command cycle)."""
    if workload == "riemann-generic":
        argv = ("riemann", "--spec", "{generic}", "--sample", str(RIEMANN_SAMPLE),
                f"--seed={index}", _box_arg(GENERIC_BOX), "--json")
        return [Op(str(index), argv)]
    if workload == "theorems-parallel":
        argv = ("verify-theorems", "--spec", "{parallel}", "--sample", str(THEOREMS_SAMPLE),
                f"--seed={index}", _box_arg(PARALLEL_BOX), "--json")
        return [Op(str(index), argv)]
    if workload != "point-queries":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"point-queries/{index}")
    generic = _triple(_draw(rng, GENERIC_BOX, _generic_ok), 4)
    parallel = _triple(_draw(rng, PARALLEL_BOX, _parallel_ok), 4)
    example = _triple(_draw(rng, EXAMPLE_BOX, _example_ok), 4)
    vector = _triple(_draw(rng, VECTOR_BOX, _q_basis_ok, 3), 3)
    x = _draw(rng, VECTOR_BOX, lambda v: True, 3)
    y = _draw(rng, VECTOR_BOX, lambda v: _plane_ok(x, v), 3)
    ops = []
    for command in POINT_COMMANDS:
        if command == "example-m5":
            argv = [command, f"--at={example}"]
        elif command == "verify-theorems":
            argv = [command, "--spec", "{parallel}", f"--at={parallel}", f"--seed={index}"]
        else:
            argv = [command, "--spec", "{generic}", f"--at={generic}"]
        if command == "check-identity":
            argv.append(f"--seed={index}")
        if command in ("angles", "qbasis"):
            argv.append(f"--vector={vector}")
        if command == "sectional":
            argv += [f"--x={_triple(x, 3)}", f"--y={_triple(y, 3)}"]
        argv.append("--json")
        ops.append(Op(f"{index}/{command}", tuple(argv)))
    return ops


def pool_order(workload: str, seed: int) -> list[int]:
    """The seed's permutation of the workload's pool indices."""
    return random.Random(f"{workload}/{seed}").sample(range(POOL_SIZE[workload]), POOL_SIZE[workload])


def op_blocks(workload: str, seed: int):
    """Endless sequence of op blocks (one pool entry each) for a run.

    Walks the seed's permutation of the pool and starts over when it ends;
    a run at today's speed never gets that far.
    """
    order = pool_order(workload, seed)
    while True:
        for index in order:
            yield pool_ops(workload, index)


def spec_for_setup(workload: str) -> str:
    """The spec a workload's first op loads (for set-up time)."""
    return "parallel" if workload == "theorems-parallel" else "generic"

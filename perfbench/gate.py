"""Correctness gate: compare each op's output with the recorded reference.

The reference was recorded by ``record.py`` from the commit that introduced
the benchmark. For every op it holds the exit code, the verdict names with
their pass flags, and the ``results`` tree of the JSON report. An op passes
when its exit code, verdict names and pass flags match exactly and every
number in ``results`` matches to a relative tolerance of RTOL. ATOL is a
floor for rounding-level values (residuals near zero) whose last digits
depend on the order of floating-point operations. Integers, booleans,
strings and the shape of the tree must match exactly.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-10
STORED_DIGITS = 11  # significant digits kept in the reference file

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _round(tree):
    if isinstance(tree, dict):
        return {k: _round(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_round(v) for v in tree]
    if isinstance(tree, float):
        return float(f"{tree:.{STORED_DIGITS}g}")
    return tree


def summarize(argv, rc: int, stdout: str) -> dict:
    """The part of an op's output the gate compares, as stored in the reference."""
    entry = {"argv": list(argv), "exit": rc, "points": 0, "verdicts": None, "results": None}
    if stdout:
        report = json.loads(stdout)
        entry["points"] = report["meta"]["n"]
        entry["verdicts"] = {name: v["pass"] for name, v in report["verdicts"].items()}
        entry["results"] = _round(report["results"])
    return entry


def _diff(path: str, got, want, out: list[str]) -> None:
    if isinstance(want, bool) or isinstance(got, bool):
        if got is not want:
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            out.append(f"{path}: {got!r} != {want!r}")
        elif not abs(got - want) <= RTOL * abs(want) + ATOL:
            out.append(f"{path}: {got!r} != {want!r} (rtol {RTOL:g}, atol {ATOL:g})")
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
            return
        for k in want:
            _diff(f"{path}.{k}", got[k], want[k], out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, out)
    elif got != want or type(got) is not type(want):
        out.append(f"{path}: {got!r} != {want!r}")


def compare(expected: dict, rc: int, stdout: str) -> list[str]:
    """Mismatches between an op's output and its reference entry (empty: correct)."""
    mismatches: list[str] = []
    if rc != expected["exit"]:
        mismatches.append(f"exit code {rc} != {expected['exit']}")
    try:
        got = summarize(expected["argv"], rc, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return mismatches + [f"unreadable report: {exc!r}"]
    _diff("verdicts", got["verdicts"], expected["verdicts"], mismatches)
    _diff("results", got["results"], expected["results"], mismatches)
    return mismatches

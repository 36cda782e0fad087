"""Manifold spec files: a flat, quoted-string subset of TOML.

Example::

    # three-dimensional manifold with a circulant metric
    name = "demo"

    [metric]
    A = "3 + x1^2 / 5"
    B = "1 + sin(x2) / 4"

    [domain]
    c1 = "2 - x3"        # every [domain] value must stay > 0 on the chart

    [sample]
    x1 = "-1, 1"
    x2 = "-1, 1"
    x3 = "-1, 1"

Only `key = "value"` lines, section headers and comments are allowed.
[metric] with keys A and B is mandatory; [domain] keys are arbitrary
names for positivity constraints; [sample] needs all of x1, x2, x3 as
"low, high" intervals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExprSyntaxError, SpecFileError
from .metric import MetricFunctions
from .expressions import eval_value, parse

Box = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]\s*(?:#.*)?$")
_KEYVAL_RE = re.compile(r'^([A-Za-z0-9_-]+)\s*=\s*"([^"]*)"\s*(?:#.*)?$')

_KNOWN_SECTIONS = ("metric", "domain", "sample")


def interval_fault(lo: float, hi: float, text: str) -> str | None:
    """Why the interval (lo, hi), written text, cannot be sampled, or None when it can.

    The sampler draws lo + (hi - lo) u: the bounds must be finite, lo < hi,
    and the width hi - lo finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return f"bounds must be finite, got {text!r}"
    if not lo < hi:
        return f"empty interval {text!r}"
    if not math.isfinite(hi - lo):
        return f"interval {text!r} is too wide (high - low overflows)"
    return None


@dataclass(frozen=True)
class ManifoldSpec:
    """A named manifold: metric fields plus an optional sampling box."""

    metric: MetricFunctions
    name: str
    sample_box: Box | None = None


def parse_spec_text(text: str, default_name: str = "manifold") -> ManifoldSpec:
    """Parse spec-file text; raises SpecFileError with line/column info."""
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    top: dict[str, tuple[str, int, int]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sec = _SECTION_RE.match(line)
        if sec:
            current = sec.group(1)
            if current not in _KNOWN_SECTIONS:
                raise SpecFileError(f"unknown section [{current}]", lineno, raw.index("[") + 1)
            if current in sections:
                raise SpecFileError(f"duplicate section [{current}]", lineno)
            sections[current] = {}
            continue
        kv = _KEYVAL_RE.match(line)
        if kv is None:
            raise SpecFileError(
                'expected `key = "value"`, a [section] header or a comment', lineno, 1
            )
        key, value = kv.group(1), kv.group(2)
        target = top if current is None else sections[current]
        if key in target:
            where = "top level" if current is None else f"[{current}]"
            raise SpecFileError(f"duplicate key '{key}' in {where}", lineno)
        value_col = raw.index('"', raw.index("=")) + 2  # 1-based column of the value text
        target[key] = (value, lineno, value_col)

    for key in top:
        if key != "name":
            raise SpecFileError(f"unknown top-level key '{key}' (only 'name' is allowed)")
    name = top.get("name", (default_name, 0, 0))[0]

    if "metric" not in sections:
        raise SpecFileError("missing required section [metric]")
    metric_sec = sections["metric"]
    for required in ("A", "B"):
        if required not in metric_sec:
            raise SpecFileError(f"missing required key '{required}' in [metric]")
    for key in metric_sec:
        if key not in ("A", "B"):
            raise SpecFileError(f"unknown key '{key}' in [metric]")

    def parse_expr(source: str, lineno: int, col: int):
        try:
            return parse(source)
        except ExprSyntaxError as exc:
            raise SpecFileError(
                f"invalid expression: {exc}", lineno, col + exc.offset
            ) from exc

    A = parse_expr(*metric_sec["A"])
    B = parse_expr(*metric_sec["B"])
    constraints = tuple(
        parse_expr(*metric_sec_val) for metric_sec_val in sections.get("domain", {}).values()
    )

    box: Box | None = None
    if "sample" in sections:
        sample = sections["sample"]
        intervals = []
        for axis in ("x1", "x2", "x3"):
            if axis not in sample:
                raise SpecFileError(f"missing key '{axis}' in [sample]")
            value, lineno, col = sample[axis]
            parts = value.split(",")
            if len(parts) != 2:
                raise SpecFileError(f"interval must be 'low, high', got {value!r}", lineno, col)
            try:
                lo, hi = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise SpecFileError(f"bad interval bound in {value!r}", lineno, col) from exc
            fault = interval_fault(lo, hi, value)
            if fault is not None:
                raise SpecFileError(f"{fault} for {axis}", lineno, col)
            intervals.append((lo, hi))
        for key in sample:
            if key not in ("x1", "x2", "x3"):
                raise SpecFileError(f"unknown key '{key}' in [sample]")
        box = (intervals[0], intervals[1], intervals[2])

    return ManifoldSpec(metric=MetricFunctions(A, B, constraints), name=name, sample_box=box)


def load_spec(path) -> ManifoldSpec:
    """Load and validate a manifold spec file."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text(encoding="utf-8")
    return parse_spec_text(text, default_name=p.stem)


def builtin_example() -> ManifoldSpec:
    """The built-in example manifold A = 2 x1, B = 2 x1 + x2 + x3.

    Chart constraints: 2 x1 + x2 + x3 > 0 and x2 + x3 < 0 (these are
    exactly A > B > 0). The default sampling box keeps both satisfiable.
    """
    return ManifoldSpec(
        metric=MetricFunctions.from_sources(
            "2*x1",
            "2*x1 + x2 + x3",
            ("2*x1 + x2 + x3", "-x2 - x3"),
        ),
        name="example-m5",
        sample_box=((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1)),
    )


# closed-form value of the example's three equal diagonal curvature components
EXAMPLE_DIAGONAL_FORMULA = "(2*x1 + x2 + x3) / ((x2 + x3) * (6*x1 + 2*x2 + 2*x3))"
_EXAMPLE_DIAGONAL = parse(EXAMPLE_DIAGONAL_FORMULA)


def example_diagonal_value(p) -> float:
    return eval_value(_EXAMPLE_DIAGONAL, p)

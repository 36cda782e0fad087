"""Seeded rejection sampling of admissible points from a box."""

from __future__ import annotations

import numpy as np

from . import jets
from .errors import CirculantError, SamplingExhausted
from .expressions import as_point
from .metric import MetricAtPoint, MetricFunctions, _point_rule, admissibility, metric_from_jets
from .metric import metric_at  # noqa: F401 -- unused here; perfbench's smoke test looks it up in this module
from .specfile import Box

MAX_DRAW_FACTOR = 100


def is_admissible(m: MetricFunctions, p) -> bool:
    """True when p passes the one-point rule, a definition independent of admissibility."""
    try:
        _point_rule(m, as_point(p), allow_weak=False)
    except CirculantError:
        return False
    return True


def sample_admissible_points(
    m: MetricFunctions, box: Box, n: int, seed: int
) -> tuple[np.ndarray, MetricAtPoint]:
    """Draw n admissible points uniformly from box, rejecting bad ones.

    Returns the points (n, 3) and the metric batch at them. Deterministic
    for a given seed: the draws are one PRNG stream, taken in chunks, and
    the points are its first n admissible draws. Each chunk is classified
    as one batch by admissibility, which also rejects a draw where the
    fields do not evaluate. Raises SamplingExhausted when fewer than n
    points are accepted within 100*n draws (acceptance rate below 1 percent).
    """
    if n < 1:
        raise ValueError("need n >= 1 sample points")
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    budget = MAX_DRAW_FACTOR * n
    parts = []  # (points, A jets, B jets) accepted from each chunk
    drawn = accepted = 0
    while accepted < n and drawn < budget:
        need = n - accepted
        # twice what is still needed, and no fewer than drawn so far, so that
        # a low acceptance rate costs few chunks; size=(k, 3) continues the
        # stream exactly as k draws of 3 would
        chunk = rng.uniform(lows, highs, size=(min(budget - drawn, max(2 * need, drawn)), 3))
        drawn += len(chunk)
        ok, A_jet, B_jet, _ = admissibility(m, chunk)
        take = np.flatnonzero(ok)[:need]
        parts.append((chunk[take], A_jet[take], B_jet[take]))
        accepted += len(take)
    if accepted < n:
        raise SamplingExhausted(
            f"accepted only {accepted} of {n} requested points after "
            f"{budget} draws from box {box}"
        )
    points, A_jets, B_jets = zip(*parts)
    return np.concatenate(points), metric_from_jets(jets.concatenate(A_jets), jets.concatenate(B_jets))

"""Command-line front end.

Every subcommand loads a manifold spec (or the built-in example), runs a
computation or verification at a point (--at) or over a seeded sample of
admissible points (--sample/--seed), and emits a human-readable or JSON
report. Only build_parser knows which options a subcommand takes and
which values they accept. main parses an argv that starts with a command
name in one walk over that command's option table, which _option_tables
derives from build_parser's actions; every other argv (help, --version,
an abbreviation, a value that starts with '-', every refusal) goes to
build_parser().parse_args, which prints every help text and message.
Exit codes: 0 all verdicts pass, 1 a verification verdict failed, 2 usage,
parse or out-of-memory error; a refusal exits with the code its error
class declares (errors.py).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .curvature import (
    COMPONENT_INDEX,
    check_q_invariance,
    christoffel_from_metric,
    closed_form_from_metric,
    components,
    riemann_from_metric,
    sampled_q_invariance_residual,
    sectional_plane,
    sectional_relations,
)
from .errors import CirculantError, DomainViolation, EvalDomainError, NotAQBasis, PositivityViolation, SpecFileError
from .metric import (
    admissibility,
    check_positive_definite,
    first_point,
    inside_chart,
    metric_at,
    metric_from_jets,
    positive,
    refuse_where,
    require_finite,
)
from .parallelism import (
    christoffel_equalities_from_table,
    nabla_q_from_table,
    parallel_quotients_from_table,
    parallel_residual_from_metric,
)
from .qstructure import (
    construct_orthogonal_vector,
    q_basis_angles,
    q_basis_test,
    q_orbit_products,
)
from .sampling import sample_admissible_points
from .specfile import builtin_example, example_diagonal_value, interval_fault, load_spec


NOT_SAMPLED = {"christoffel", "sectional", "angles", "qbasis"}  # --at only
NO_METRIC = {"validate", "qbasis"}  # validate classifies its points itself; qbasis needs no metric
# --allow-weak-metric could change no result: qbasis builds no metric, the basis constructions of
# orthobasis and verify-theorems need A > B > 0, and example-m5's chart constraints are A > B > 0
NO_WEAK = {"qbasis", "orthobasis", "verify-theorems", "example-m5"}

DEFAULT_TOL = {  # the commands whose verdicts read --tol, and its default there
    "riemann": 1e-9,
    "compare-curvature": 1e-7,
    "orthobasis": 1e-9,
    "check-identity": 1e-9,
    "check-parallel": 1e-9,
    "verify-theorems": 1e-8,
    "example-m5": 1e-9,
}
FD_STEPS = (1e-5, 1e-6, 1e-7, 1e-8)  # christoffel --fd-check's steps, each tried where the ones before are refused


def _triple(what: str):
    """The argparse type of option `what`: three comma-separated finite numbers, as an array."""

    def triple(text: str) -> np.ndarray:
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"{what} must be three comma-separated numbers, got {text!r}")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad number in {what} {text!r}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise argparse.ArgumentTypeError(f"{what} must be finite, got {text!r}")
        return np.array(values)

    return triple


def _at_least(what: str, low: int):
    """The argparse type of option `what`: an integer of at least low."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value

    return integer


def _tol(text: str) -> float:
    """The argparse type of --tol: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number in --tol {text!r}: {exc}") from exc
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"--tol must be a finite number >= 0, got {value!r}")
    return value


def _box(text: str):
    """The argparse type of --box: three low:high intervals of finite bounds, low < high."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--box needs three low:high intervals, got {text!r}")
    box = []
    for part in parts:
        bounds = part.split(":")
        if len(bounds) != 2:
            raise argparse.ArgumentTypeError(f"interval must be low:high, got {part!r}")
        try:
            lo, hi = float(bounds[0]), float(bounds[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad bound in {part!r}: {exc}") from exc
        fault = interval_fault(lo, hi, part)
        if fault is not None:
            raise argparse.ArgumentTypeError(fault if fault.startswith("empty") else f"--box {fault}")
        box.append((lo, hi))
    return tuple(box)


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(obj) -> str:
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        text = float.__repr__(float(obj))
        return _JSON_SPECIAL.get(text, text)
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if obj is None:
        return "null"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _write_json(obj, indent: str, out: list) -> None:
    """Append to out the text of json.dumps(obj, indent=2), numpy values as builtins, nested at indent.

    Dispatches on type(obj); an array is written as its tolist(). A dict, list
    or tuple is walked in one loop over its entries: each entry's head is its
    separator, followed for a dict by the key and ": ". A builtin leaf (float,
    str, bool, int, None) is written behind its head in the loop, with no call
    per leaf; the loop recurses only into containers and numpy values, and
    _json_scalar writes any other value, a top-level leaf included.
    """
    if type(obj) is np.ndarray:
        obj = obj.tolist()
    kind = type(obj)
    keyed = kind is dict
    if not (keyed or kind is list or kind is tuple):
        out.append(_json_scalar(obj))
        return
    if not obj:
        out.append("{}" if keyed else "[]")
        return
    inner = indent + "  "
    sep = ("{" if keyed else "[") + inner
    for value in obj.items() if keyed else obj:
        if keyed:
            key, value = value
            head = sep + _json_str(key) + ": "
        else:
            head = sep
        kind = type(value)
        if kind is float:  # most leaves
            text = float.__repr__(value)
            out.append(head + _JSON_SPECIAL.get(text, text))
        elif kind is str:
            out.append(head + _json_str(value))
        elif kind is bool:
            out.append(head + ("true" if value else "false"))
        elif kind is int:
            out.append(head + int.__repr__(value))
        elif value is None:
            out.append(head + "null")
        else:
            out.append(head)
            _write_json(value, inner, out)
        sep = "," + inner
    out.append(indent + ("}" if keyed else "]"))


def _json(obj) -> str:
    """json.dumps(obj, indent=2) with numpy values as builtins, byte for byte, in one walk over obj."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _verdict(passed, residual, tol):
    return {"pass": passed, "residual": residual, "tol": tol}


def _all_pass(verdicts) -> bool:
    return all(v["pass"] for v in verdicts.values())


def _max(values):
    """Python's max of values, element by element over a batch."""
    values = list(values)
    best = values[0]
    for v in values[1:]:
        best = np.where(v > best, v, best)
    return best


# -- command cores ------------------------------------------------------------
# Each core maps (spec, p, M, args) to (results, verdicts). p is one point (3,)
# or a batch (N, 3); the verdicts' pass flags and residuals carry p's batch
# shape. M is the metric batch at p, built once by the caller for --at as for
# --sample, except for validate at --at, which classifies its point itself, and
# qbasis, which uses no metric: those two get None.


@np.errstate(all="ignore")  # as the float arithmetic of one point
def _cmd_validate(spec, p, M, args):
    if M is None:  # --at
        ok, A_jet, B_jet, values = admissibility(spec.metric, p)
        if np.isnan((A_jet.value, *values)).any():  # A, B or a constraint does not evaluate: refuse as riemann
            metric_at(spec.metric, p, allow_weak=args.allow_weak_metric)
        M = metric_from_jets(A_jet, B_jet)
    else:  # --sample: the sampler admitted every point, so each is inside every chart constraint
        ok, values = np.ones(M.A.shape, dtype=bool), ()
    A, B = M.A, M.B
    violations = [] if np.all(positive(A, B)) else [f"A > B > 0 fails (A={A.tolist()!r}, B={B.tolist()!r})"]
    constraints_ok = True
    for c, val in zip(spec.metric.domain_constraints, values):
        inside = inside_chart(val)
        constraints_ok = constraints_ok & inside
        if not np.all(inside):
            violations.append(f"constraint '{c.source}' is {val!r} <= 0")
    pd = check_positive_definite(A, B)
    usable = ok | (constraints_ok & args.allow_weak_metric & pd.positive_definite)
    g = M.g
    inv_residual = np.where(usable, np.abs(g @ M.g_inv - np.eye(3)).max(axis=(-2, -1)), 1.0)
    results = {
        "A": A,
        "B": B,
        "D": M.D,
        "g": g if np.any(usable) else None,
        "minors": list(pd.minors),
        "violations": violations,
    }
    verdicts = {
        "admissible": _verdict(ok, np.where(ok, 0.0, 1.0), 0.5),
        # Python's min of the minors, as the negated _max of their negations
        "positive_definite": _verdict(pd.positive_definite, -_max(-m for m in pd.minors), 0.0),
        "inverse_consistent": _verdict(usable & (inv_residual <= 1e-12), inv_residual, 1e-12),
    }
    return results, verdicts


def _cmd_christoffel(spec, p, M, args):
    ct = christoffel_from_metric(M)
    results = {
        "gamma": ct.gamma,
        "dgamma_max_abs": float(np.max(np.abs(ct.dgamma))),
    }
    verdicts = {}
    if args.fd_check:
        h, stencil = _fd_stencil(spec, p, args.allow_weak_metric)
        gamma = christoffel_from_metric(stencil).gamma
        fd = (gamma[0::2] - gamma[1::2]) / (2 * h)
        residual = float(np.max(np.abs(fd - ct.dgamma)))
        verdicts["fd_consistent"] = _verdict(residual <= 1e-5, residual, 1e-5)
    return results, verdicts


def _fd_stencil(spec, p, allow_weak):
    """The first step h of FD_STEPS whose centred stencil around p is admissible, and the metric there.

    A point nearer the chart's edge than 1e-5 gets a smaller step. Where every
    stencil is refused, raises what the first one raised.
    """
    refusal = None
    for h in FD_STEPS:
        steps = np.kron(np.eye(3), [[h], [-h]])  # +h e0, -h e0, +h e1, ..., refused in this order
        try:
            with warnings.catch_warnings():  # warn for the point asked, not for the stencil around it
                warnings.filterwarnings("ignore", message="A > B > 0 fails")
                return h, metric_at(spec.metric, p + steps, allow_weak=allow_weak)
        except (PositivityViolation, DomainViolation, EvalDomainError) as exc:
            refusal = refusal or exc
    raise refusal


def _symmetry_rows():
    """The rows of t[k, i, j, h] = low[..., i, j, k, h], flattened, that _symmetry_verdicts reads.

    Only entries whose residual is distinct: R_ijkh + R_jikh for i <= j, R_ijkh + R_ijhk for k <= h and
    R_ijkh - R_khij for (i, j) <= (k, h), as the others only swap or negate these, then the first Bianchi
    sum and t at all 81. Returns each residual's first, second and third operands, and the blocks' starts.
    """
    t = np.arange(81).reshape(3, 3, 3, 3)
    k, i, j, h = np.indices(t.shape).reshape(4, 81)
    first_pair, second_pair, pairs = i <= j, k <= h, 3 * i + j <= 3 * k + h

    def view(*axes):  # view(0, 2, 1, 3)[k, i, j, h] = t[k, j, i, h]: low[..., j, i, k, h]
        return t.transpose(axes).ravel()

    rows = view(0, 1, 2, 3)
    first = np.concatenate((rows[first_pair], rows[second_pair], rows[pairs], rows, rows))
    second = np.concatenate((
        view(0, 2, 1, 3)[first_pair],  # R_jikh
        view(3, 1, 2, 0)[second_pair],  # R_ijhk
        view(1, 0, 3, 2)[pairs],  # R_khij
        view(1, 2, 0, 3),  # R_kijh
    ))
    starts = np.cumsum([0, first_pair.sum(), second_pair.sum(), pairs.sum(), 81])
    return first, second, view(2, 0, 1, 3), starts  # the third: R_jkih


_SYM_FIRST, _SYM_SECOND, _SYM_THIRD, _SYM_BLOCKS = _symmetry_rows()


def _symmetry_verdicts(low, tol):
    """The tensor symmetries of low[..., i, j, k, h], read in R.t's stored order t[k, i, j, h, *batch].

    The residuals are formed at their distinct entries only (_symmetry_rows:
    315 rows where five views of the tensor hold 405), each from the operands
    of its definition in their order, R_ijkh - R_khij as R_ijkh + (-R_khij),
    which is exact, with a copy of t for the bound behind them: one take per
    operand, one abs, and one maximum per block. A residual left out only
    swaps the operands of one read or negates it, so the maxima have the
    bits of the residuals over all 81 entries.
    """
    n = low.ndim - 4
    t = low.transpose(n + 2, n, n + 1, n + 3, *range(n)).reshape((81,) + low.shape[:n])  # R.t where low is R.low
    r = t.take(_SYM_FIRST, axis=0)
    second = t.take(_SYM_SECOND, axis=0)
    pair = second[_SYM_BLOCKS[2]:_SYM_BLOCKS[3]]
    np.negative(pair, out=pair)
    r[:_SYM_BLOCKS[4]] += second
    r[_SYM_BLOCKS[3]:_SYM_BLOCKS[4]] += t.take(_SYM_THIRD, axis=0)  # (R_ijkh + R_kijh) + R_jkih
    anti_ij, anti_kh, pair, bianchi, largest = np.maximum.reduceat(np.abs(r, out=r), _SYM_BLOCKS, axis=0)
    scale = tol * (1.0 + largest)
    return {
        "antisymmetry_first_pair": _verdict(anti_ij <= scale, anti_ij, scale),
        "antisymmetry_second_pair": _verdict(anti_kh <= scale, anti_kh, scale),
        "pair_symmetry": _verdict(pair <= scale, pair, scale),
        "first_bianchi": _verdict(bianchi <= scale, bianchi, scale),
    }


def _cmd_riemann(spec, p, M, args):
    R = riemann_from_metric(M)
    results = {"components": components(R)}
    return results, _symmetry_verdicts(R.low, args.tol)


def _cmd_closed_form(spec, p, M, args):
    return {"components": closed_form_from_metric(M)}, {}


def _cmd_compare_curvature(spec, p, M, args):
    R = riemann_from_metric(M)
    cf = closed_form_from_metric(M)
    numeric = components(R)
    scale = _max(abs(v) for v in numeric.values())
    rel = {
        name: abs(cf[name] - numeric[name]) / (1.0 + scale) for name in COMPONENT_INDEX
    }
    worst = _max(rel.values())
    results = {"numeric": numeric, "closed_form": cf, "relative_difference": rel}
    verdicts = {"closed_form_matches_numeric": _verdict(worst <= args.tol, worst, args.tol)}
    return results, verdicts


def _cmd_sectional(spec, p, M, args):
    mu, determinant = sectional_plane(riemann_from_metric(M), args.x, args.y)
    return {"mu": mu, "gram_determinant": determinant}, {}


def _cmd_angles(spec, p, M, args):
    rep = q_basis_angles(M, args.vector)
    if rep.a == 0.0:  # a vector that passes the q-basis test is not 0
        raise NotAQBasis(f"vector {tuple(args.vector.tolist())} is too small for angles: its squared norm underflows")
    chain = max(
        abs(rep.cos_phi_x_qx - rep.cos_theta_qx_q2x),
        abs(rep.cos_phi_x_qx + rep.cos_phi_x_q2x),
    )
    results = {
        "a": rep.a,
        "b": rep.b,
        "cos_phi_x_qx": rep.cos_phi_x_qx,
        "cos_phi_x_q2x": rep.cos_phi_x_q2x,
        "cos_theta_qx_q2x": rep.cos_theta_qx_q2x,
        "angles_rad": list(rep.angles),
    }
    return results, {"cosine_chain": _verdict(chain <= 1e-12, chain, 1e-12)}


def _q_basis_verdict(x, cubic, bound, induces):
    """q_basis_test of x, one vector or a batch, as (cubic, bound, verdict), the test of induces_q_basis.

    Refuses the first vector whose cubic or bound is not finite, or whose cubic
    underflows to 0 where the test over x / 2^k finds a q-basis: the verdict
    would report either.
    """
    large = ~(np.isfinite(cubic) & np.isfinite(bound))
    bad = large | (induces & (cubic == 0.0))
    if bad.any():
        i = first_point(bad)
        size, flow = ("large", "overflows") if large[i] else ("small", "underflows")
        raise NotAQBasis(f"vector {tuple(x[i].tolist())} is too {size} for the q-basis test: its cubic {flow}")
    return cubic, bound, _verdict(induces, abs(cubic), bound)


def _cmd_qbasis(spec, p, M, args):
    cubic, bound, verdict = _q_basis_verdict(args.vector, *q_basis_test(args.vector))
    return {"cubic": cubic, "threshold": bound}, {"induces_q_basis": verdict}


def _cmd_orthobasis(spec, p, M, args):
    x = construct_orthogonal_vector(M.A, M.B)
    gxx, g_x_qx, test = q_orbit_products(M, x)
    require_finite(M, "orthogonal-basis inner products", gxx, g_x_qx)
    refuse_where(M, gxx == 0.0, "orthogonal-basis norm_sq underflows to 0")
    worst = abs(g_x_qx)  # g(x, q^2 x) = -g(x, qx) and g(qx, q^2 x) = g(x, qx)
    results = {"vector": x, "norm_sq": gxx, "g_x_qx": g_x_qx, "g_x_q2x": -g_x_qx, "g_qx_q2x": g_x_qx}
    verdicts = {
        "orthogonal": _verdict(worst <= args.tol * gxx, worst, args.tol * gxx),
        "induces_q_basis": _q_basis_verdict(x, *test)[2],
    }
    return results, verdicts


def _cmd_check_identity(spec, p, M, args):
    R = riemann_from_metric(M)
    chk = check_q_invariance(R, tol=args.tol)
    sampled = sampled_q_invariance_residual(R, args.seed or 0, 20)
    sampled_passed = sampled <= chk.threshold
    agree = chk.passed == sampled_passed
    results = {
        "diagonal_residual": chk.diagonal_residual,
        "cross_residual": chk.cross_residual,
        "sampled_residual": sampled,
        "scale": chk.scale,
    }
    verdicts = {
        "identity": _verdict(
            chk.passed, _max((chk.diagonal_residual, chk.cross_residual)), chk.threshold
        ),
        "sampled_identity": _verdict(sampled_passed, sampled, chk.threshold),
        "routes_agree": _verdict(agree, np.where(agree, 0.0, 1.0), 0.5),
    }
    return results, verdicts


def _cmd_check_parallel(spec, p, M, args):
    ct = christoffel_from_metric(M)
    grad_res = parallel_residual_from_metric(M)
    grad_norm = np.abs(grad_res).max(axis=-1)
    gamma_res = christoffel_equalities_from_table(ct)
    nq_max = nabla_q_from_table(ct).max_abs
    results = {
        "gradient_residual": grad_res,
        "gradient_residual_max": grad_norm,
        "christoffel_equalities_residual": gamma_res,
        "nabla_q_max": nq_max,
    }
    # the verdicts read the criterion of degree 0 in g, as nabla q and the equalities are, so that
    # scaling g changes none of them; grad_res scales with g
    criterion = np.abs(parallel_quotients_from_table(ct)).max(axis=-1)
    worst = _max((criterion, nq_max, gamma_res))
    agree = (criterion <= args.tol) == (nq_max <= args.tol)
    verdicts = {
        "parallel": _verdict(worst <= args.tol, worst, args.tol),
        "routes_agree": _verdict(agree, np.where(agree, 0.0, 1.0), 0.5),
    }
    return results, verdicts


def _cmd_nabla_q(spec, p, M, args):
    nq = nabla_q_from_table(christoffel_from_metric(M))
    return {"nabla_q": nq.nq, "max_abs": nq.max_abs}, {}


_RELATIONS = ("sectional_difference", "sectional_combination", "equal_sectional")


def _relation_residuals(R, vectors, tol):
    """Each relation's worst scaled residual over the vectors (V, 3), at each point of R's batch.

    The residuals are >= +0, so fmax from 0.0 keeps the first largest, NaN
    never the maximum, as a loop over the vectors would. They refuse a point
    whose curvature fails q-invariance at tol."""
    rel = sectional_relations(R, vectors, tol=tol)
    d, c, e = rel.difference, rel.combination, rel.equal
    scaled = np.empty((3,) + d.lhs.shape)
    scaled[0], scaled[1], scaled[2] = d.residual, c.residual, _max(e.residuals)
    scaled[0] /= 1.0 + abs(d.lhs)
    scaled[1:] /= 1.0 + abs(e.mu_u_qu)  # mu(u, qu), the combination's left side too
    return dict(zip(_RELATIONS, np.fmax.reduce(scaled, axis=1, initial=0.0)))


def _cmd_verify_theorems(spec, p, M, args):
    if args.vector is not None:
        vectors = [args.vector]
    else:  # sectional_relations refuses a drawn vector that induces no q-basis, as it does --vector
        vectors = np.random.default_rng([args.seed or 0, 7]).standard_normal((args.n_vectors, 3))
    worst = _relation_residuals(riemann_from_metric(M), vectors, args.tol)
    results = {"n_vectors": len(vectors), "max_scaled_residuals": worst}
    verdicts = {name: _verdict(val <= args.tol, val, args.tol) for name, val in worst.items()}
    return results, verdicts


def _cmd_example_m5(spec, p, M, args):
    R = riemann_from_metric(M)
    comps = components(R)
    cf = closed_form_from_metric(M)
    formula = example_diagonal_value(p)
    nq_max = nabla_q_from_table(christoffel_from_metric(M)).max_abs
    chk = check_q_invariance(R, tol=args.tol)

    diagonal = ("R1212", "R1313", "R2323")
    diag_residual = _max(abs(comps[n] - formula) / abs(formula) for n in diagonal)
    closed_diag_residual = _max(abs(cf[n] - comps[n]) / (1.0 + abs(comps[n])) for n in diagonal)
    cross = _max(abs(comps[n]) for n in ("R1213", "R1323", "R1223"))
    results = {
        "A": M.A,
        "B": M.B,
        "D": M.D,
        "components": comps,
        "closed_form": cf,
        "diagonal_formula_value": formula,
        "nabla_q_max": nq_max,
    }
    verdicts = {
        "diagonal_matches_formula": _verdict(diag_residual <= 1e-8, diag_residual, 1e-8),
        "closed_form_diagonal_match": _verdict(closed_diag_residual <= 1e-7, closed_diag_residual, 1e-7),
        "cross_components_zero": _verdict(cross < 1e-10, cross, 1e-10),
        "identity_q_invariance": _verdict(
            chk.passed, _max((chk.diagonal_residual, chk.cross_residual)), chk.threshold
        ),
        "not_parallel": _verdict(nq_max > 1e-6, nq_max, 1e-6),
        "not_flat": _verdict(np.logical_not(chk.scale <= 1e-9), chk.scale, 1e-9),  # chk.scale is max |R|
    }
    return results, verdicts


_CORES = {
    "validate": _cmd_validate,
    "christoffel": _cmd_christoffel,
    "riemann": _cmd_riemann,
    "closed-form": _cmd_closed_form,
    "compare-curvature": _cmd_compare_curvature,
    "sectional": _cmd_sectional,
    "angles": _cmd_angles,
    "qbasis": _cmd_qbasis,
    "orthobasis": _cmd_orthobasis,
    "check-identity": _cmd_check_identity,
    "check-parallel": _cmd_check_parallel,
    "nabla-q": _cmd_nabla_q,
    "verify-theorems": _cmd_verify_theorems,
    "example-m5": _cmd_example_m5,
}


# -- dispatch -----------------------------------------------------------------


def _per_point(a, n):
    """A verdict's value at each of n points as a list of Python scalars; a scalar holds at every point."""
    a = np.asarray(a)
    return a.tolist() if a.ndim else [a.item()] * n


def _summarize(verdicts, n):
    """Pass counts, worst residuals and tolerances of per-point verdicts over n points."""
    pass_counts: dict[str, int] = {}
    max_residuals: dict[str, float] = {}
    tols: dict[str, float] = {}
    for name, v in verdicts.items():
        passed, residuals, tol = (_per_point(v[key], n) for key in ("pass", "residual", "tol"))
        pass_counts[name] = sum(passed)
        # Python's max from 0.0 in point order: a NaN residual is never the maximum
        max_residuals[name] = max([0.0, *residuals])
        tols[name] = max([0.0, *tol])
    return pass_counts, max_residuals, tols


def _run(args):
    spec = builtin_example() if getattr(args, "spec", None) is None else load_spec(args.spec)  # example-m5, qbasis
    core = _CORES[args.command]
    vector = getattr(args, "vector", None)  # only angles, qbasis and verify-theorems take --vector
    vector = None if vector is None else list(vector)

    if getattr(args, "sample", None) is not None:  # the commands in NOT_SAMPLED take no --sample
        box = args.box or spec.sample_box
        if box is None:
            raise SpecFileError("sampling needs [sample] in the spec file or --box")
        seed = args.seed if args.seed is not None else 0
        points, M = sample_admissible_points(spec.metric, box, args.sample, seed)
        n = len(points)
        try:
            verdicts = core(spec, points, M, args)[1]
        except CirculantError:
            # every sampled command refuses as its first failing point does alone with --at: run the core at
            # each point in turn, on its part of the batch (which has the bits it has there), and raise what
            # the first failing point raises; the batch's own error only where no point raises
            for i in range(n):
                core(spec, points[i], M[i], args)
            raise
        pass_counts, max_residuals, tols = _summarize(verdicts, n)
        results = {"points_accepted": n, "pass_counts": pass_counts, "max_residuals": max_residuals}
        verdicts = {
            name: _verdict(pass_counts[name] == n, max_residuals[name], tols[name])
            for name in pass_counts
        }
        inputs = {"box": [list(b) for b in box], "point": None, "vector": vector}
        meta = {"seed": seed, "n": n}
    else:
        point = args.at  # None only on qbasis
        M = None
        if args.command not in NO_METRIC:  # the commands in NO_WEAK take no --allow-weak-metric
            M = metric_at(spec.metric, point, allow_weak=getattr(args, "allow_weak_metric", False))
        results, verdicts = core(spec, point, M, args)
        inputs = {"box": None, "point": None if point is None else list(point), "vector": vector}
        meta = {"seed": getattr(args, "seed", None), "n": 1}  # the commands in NOT_SAMPLED take no --seed

    report = {
        "command": args.command,
        "spec_name": spec.name,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
        "meta": meta,
    }
    return report


def _print_report(report, as_json: bool):
    if as_json:
        sys.stdout.write(_json(report) + "\n")
        return
    report = json.loads(_json(report))  # the values the JSON report holds, as builtins
    print(f"command: {report['command']}   spec: {report['spec_name']}")
    for key, value in report["inputs"].items():
        if value is not None:
            print(f"  {key} = {value}")
    for key, value in report["results"].items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for k2, v2 in value.items():
                print(f"    {k2} = {v2}")
        else:
            print(f"  {key} = {value}")
    for name, v in report["verdicts"].items():
        tag = "PASS" if v["pass"] else "FAIL"
        print(f"[{tag}] {name}  residual={v['residual']:.3e}  tol={v['tol']:.3e}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built on first use, then shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="circulant3",
        description=(
            "Numerical tensor calculus on 3D Riemannian manifolds with a "
            "circulant metric (diagonal A, off-diagonal B) and the cubic "
            "structure q with q^3 = -id. Expressions use coordinates x1, x2, "
            "x3; note -x1^2 parses as -(x1^2)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _CORES:
        p = sub.add_parser(name, help=f"run {name}")
        if name != "example-m5":  # example-m5 runs on the built-in manifold
            p.add_argument("--spec", required=name != "qbasis", help="manifold spec file (TOML subset)")
        where = p.add_mutually_exclusive_group(required=name != "qbasis")  # qbasis needs no point
        where.add_argument("--at", type=_triple("--at"), help="evaluation point X1,X2,X3")
        if name not in NOT_SAMPLED:
            where.add_argument("--sample", type=_at_least("--sample", 1), help="sample N admissible points")
            p.add_argument("--box", type=_box, help="sampling box lo:hi,lo:hi,lo:hi (overrides spec)")
            p.add_argument("--seed", type=_at_least("--seed", 0), help="PRNG seed for sampling (default 0)")
        if name in DEFAULT_TOL:
            tol_help = f"verdict tolerance (default {DEFAULT_TOL[name]:g})"
            if name == "verify-theorems":
                tol_help += ", also of the refusal where q-invariance fails"
            p.add_argument("--tol", type=_tol, default=DEFAULT_TOL[name], help=tol_help)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        if name not in NO_WEAK:
            p.add_argument(
                "--allow-weak-metric",
                action="store_true",
                help="warn instead of failing when A > B > 0 fails but g is positive definite",
            )
        if name in ("angles", "qbasis", "verify-theorems"):
            p.add_argument(
                "--vector", type=_triple("--vector"), required=name != "verify-theorems", help="vector X1,X2,X3"
            )
        if name == "sectional":
            p.add_argument("--x", type=_triple("--x"), required=True, help="first plane vector")
            p.add_argument("--y", type=_triple("--y"), required=True, help="second plane vector")
        if name == "christoffel":
            p.add_argument("--fd-check", action="store_true", help="cross-check dGamma by finite differences")
        if name == "verify-theorems":
            p.add_argument(
                "--n-vectors", type=_at_least("--n-vectors", 1), default=5, help="random q-basis vectors per point"
            )
    return parser


@functools.cache
def _option_tables() -> dict[str, tuple]:
    """Each command's option table, derived from build_parser's own subparser actions on first use.

    A table holds the command's actions by their option strings, its defaults
    in action order, the dests of its required actions and its mutually
    exclusive groups as (required, dests); the help action is left out. Every
    other action is a store action of one value with no choices and no string
    default, or a store_true action: the two kinds _walk parses (the tests
    hold every command to this).
    """
    (commands,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, parser in commands.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        tables[name] = (
            {s: a for a in actions for s in a.option_strings},
            {a.dest: a.default for a in actions},
            [a.dest for a in actions if a.required],
            [(g.required, [a.dest for a in g._group_actions]) for g in parser._mutually_exclusive_groups],
        )
    return tables


def _walk(argv, table):
    """The Namespace that build_parser().parse_args(argv) returns, by one walk over argv's command's table.

    Returns None wherever argparse alone may decide: a token that is not one
    of the command's options exactly, an option given twice, a store_true
    option given a value, a value that is missing, starts with '-' or is
    '--', or that its action's type refuses, a required option missing, and
    a mutually exclusive group with two options given or none where one is
    required.
    """
    options, defaults, required, groups = table
    values = {}
    i, n = 1, len(argv)
    while i < n:
        name, eq, value = argv[i].partition("=")
        i += 1
        action = options.get(name)
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:  # store_true
            if eq:
                return None
            values[action.dest] = action.const
            continue
        if not eq:
            if i == n or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        elif value == "--":  # argparse drops a value '--'
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        values[action.dest] = value
    if not all(dest in values for dest in required):
        return None
    for group_required, dests in groups:
        given = sum(dest in values for dest in dests)
        if given > 1 or (group_required and not given):
            return None
    args = argparse.Namespace(command=argv[0], **defaults)  # the order of parse_args' vars()
    vars(args).update(values)
    return args


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv): by _walk where argv starts with a command name and _walk can."""
    table = _option_tables().get(argv[0]) if argv else None
    args = None if table is None else _walk(argv, table)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        report = _run(args)
    except MemoryError as exc:  # numpy says how much it could not allocate
        print(f"error ({args.command}): out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except (CirculantError, OSError) as exc:  # each error class declares its exit code
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    _print_report(report, args.json)
    if _all_pass(report["verdicts"]):
        return 0
    if args.command == "validate" and not report["verdicts"]["admissible"]["pass"]:
        return 3  # positivity/domain violation, reported instead of raised
    return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

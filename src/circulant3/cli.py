"""Command-line front end.

Every subcommand loads a manifold spec (or the built-in example), runs a
computation or verification at a point (--at) or over a seeded sample of
admissible points (--sample/--seed), and emits a human-readable or JSON
report. Exit codes: 0 all verdicts pass, 1 a verification verdict
failed, 2 usage or parse error, 3 metric positivity or domain violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .curvature import (
    COMPONENT_INDEX,
    check_q_invariance,
    christoffel_from_metric,
    closed_form_from_metric,
    components,
    gram_determinant,
    is_flat,
    max_abs,
    riemann_from_metric,
    sampled_q_invariance_residual,
    sectional_curvature,
    sectional_relations,
)
from .errors import (
    AngleRoutesDisagree,
    CirculantError,
    ConstructionFailed,
    DegeneratePlane,
    DomainViolation,
    EvalDomainError,
    ExprSyntaxError,
    IdentityRNotSatisfied,
    NotAQBasis,
    PositivityViolation,
    SamplingExhausted,
    SpecFileError,
)
from .metric import (
    admissibility,
    check_positive_definite,
    inner,
    inners,
    inside_chart,
    metric_at,
    metric_from_jets,
    positive,
    require_finite,
)
from .parallelism import (
    christoffel_equalities_from_table,
    nabla_q_from_table,
    parallel_residual_from_metric,
)
from .qstructure import (
    apply_q,
    construct_orthogonal_vector,
    induces_q_basis,
    q_basis_angles,
    q_basis_test,
)
from .sampling import sample_admissible_points
from .specfile import builtin_example, example_diagonal_value, interval_fault, load_spec


class UsageError(Exception):
    """Bad command-line input (maps to exit code 2)."""


NOT_SAMPLED = {"christoffel", "sectional", "angles", "qbasis"}  # --at only
NO_METRIC = {"validate", "qbasis"}  # validate classifies its points itself; qbasis needs no metric

DEFAULT_TOL = {
    "compare-curvature": 1e-7,
    "verify-theorems": 1e-8,
}


def _triple(what: str):
    """The argparse type of option `what`: three comma-separated finite numbers, as an array."""

    def triple(text: str) -> np.ndarray:
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"{what} must be three comma-separated numbers, got {text!r}")
        try:
            values = np.array([float(v) for v in parts])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad number in {what} {text!r}: {exc}") from exc
        if not np.isfinite(values).all():
            raise argparse.ArgumentTypeError(f"{what} must be finite, got {text!r}")
        return values

    return triple


def _count(what: str):
    """The argparse type of option `what`: an integer of at least 1."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid count value"
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} must be at least 1, got {value}")
        return value

    return count


def _parse_box(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--box needs three low:high intervals, got {text!r}")
    box = []
    for part in parts:
        bounds = part.split(":")
        if len(bounds) != 2:
            raise UsageError(f"interval must be low:high, got {part!r}")
        try:
            lo, hi = float(bounds[0]), float(bounds[1])
        except ValueError as exc:
            raise UsageError(f"bad bound in {part!r}: {exc}") from exc
        fault = interval_fault(lo, hi, part)
        if fault is not None:
            raise UsageError(fault if fault.startswith("empty") else f"--box {fault}")
        box.append((lo, hi))
    return tuple(box)


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(obj) -> str:
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
    """Append to out the text of json.dumps(obj, indent=2), numpy values as builtins, nested at indent."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, float):  # most leaves
        text = float.__repr__(obj)
        out.append(_JSON_SPECIAL.get(text, text))
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _json_str(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    else:
        out.append(_json_scalar(obj))


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
# --sample, except for validate, which classifies its points itself, and
# qbasis, which uses no metric: those two get None.


@np.errstate(all="ignore")  # as the float arithmetic of one point
def _cmd_validate(spec, p, M, args):
    ok, A_jet, B_jet, values = admissibility(spec.metric, p)
    if np.isnan(A_jet.value).any():  # A, B or a constraint does not evaluate: refuse as riemann does
        metric_at(spec.metric, p, allow_weak=args.allow_weak_metric)
    M = metric_from_jets(A_jet, B_jet)
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
    inv_residual = np.where(usable, np.abs(M.g @ M.g_inv - np.eye(3)).max(axis=(-2, -1)), 1.0)
    results = {
        "A": A,
        "B": B,
        "D": M.D,
        "g": M.g if np.any(usable) else None,
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
        h = 1e-5
        steps = np.kron(np.eye(3), [[h], [-h]])  # +h e0, -h e0, +h e1, ..., refused in this order
        stencil = metric_at(spec.metric, p + steps, allow_weak=args.allow_weak_metric)
        gamma = christoffel_from_metric(stencil).gamma
        fd = (gamma[0::2] - gamma[1::2]) / (2 * h)
        residual = float(np.max(np.abs(fd - ct.dgamma)))
        verdicts["fd_consistent"] = _verdict(residual <= 1e-5, residual, 1e-5)
    return results, verdicts


def _symmetry_verdicts(low, tol):
    scale = tol * (1.0 + max_abs(low))
    anti_ij = max_abs(low + np.einsum("...ijkh->...jikh", low))
    anti_kh = max_abs(low + np.einsum("...ijkh->...ijhk", low))
    pair = max_abs(low - np.einsum("...ijkh->...khij", low))
    bianchi = max_abs(low + np.einsum("...ijkh->...jkih", low) + np.einsum("...ijkh->...kijh", low))
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
    mu = sectional_curvature(riemann_from_metric(M), args.x, args.y)
    return {"mu": mu, "gram_determinant": gram_determinant(M, args.x, args.y)}, {}


def _cmd_angles(spec, p, M, args):
    rep = q_basis_angles(M, args.vector)
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


def _cmd_qbasis(spec, p, M, args):
    cubic, bound = q_basis_test(args.vector)
    results = {"cubic": cubic, "threshold": bound}
    # the test of induces_q_basis, from the two values reported
    return results, {"induces_q_basis": _verdict(abs(cubic) > bound, abs(cubic), bound)}


def _cmd_orthobasis(spec, p, M, args):
    x = construct_orthogonal_vector(M.A, M.B)
    qx = apply_q(x)
    q2x = apply_q(qx)
    gxx, g_x_qx, g_x_q2x = inners(M.g, x, (x, qx, q2x))
    pairs = {"g_x_qx": g_x_qx, "g_x_q2x": g_x_q2x, "g_qx_q2x": inner(M, qx, q2x)}
    worst = _max(abs(v) for v in pairs.values())
    results = {"vector": x, "norm_sq": gxx, **pairs}
    cubic, bound = q_basis_test(x)
    verdicts = {
        "orthogonal": _verdict(worst <= args.tol * gxx, worst, args.tol * gxx),
        "induces_q_basis": _verdict(abs(cubic) > bound, abs(cubic), bound),
    }
    # after the q-basis test, which refuses an x whose cubes overflow first
    require_finite(M, "orthogonal-basis inner products", gxx, *pairs.values())
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
    worst = _max((grad_norm, nq_max, gamma_res))
    agree = (grad_norm <= args.tol) == (nq_max <= args.tol)
    verdicts = {
        "parallel": _verdict(worst <= args.tol, worst, args.tol),
        "routes_agree": _verdict(agree, np.where(agree, 0.0, 1.0), 0.5),
    }
    return results, verdicts


def _cmd_nabla_q(spec, p, M, args):
    nq = nabla_q_from_table(christoffel_from_metric(M))
    return {"nabla_q": nq.nq, "max_abs": nq.max_abs}, {}


def _random_q_basis_vectors(rng, count):
    out = []
    for _ in range(100 * count):
        v = rng.standard_normal(3)
        if induces_q_basis(v):
            out.append(v)
            if len(out) == count:
                return out
    raise ConstructionFailed("could not draw q-basis vectors")


def _relation_residuals(R, vectors, tol):
    """Each relation's worst scaled residual over the vectors (V, 3), at each point of R's batch.

    The residuals are >= +0, so fmax from 0.0 keeps the first largest, NaN
    never the maximum, as a loop over the vectors would. They refuse a point
    whose curvature fails q-invariance at tol."""
    rel = sectional_relations(R, vectors, tol=tol)
    d, c, e = rel.difference, rel.combination, rel.equal
    scaled = {
        "sectional_difference": d.residual / (1.0 + abs(d.lhs)),
        "sectional_combination": c.residual / (1.0 + abs(c.lhs)),
        "equal_sectional": _max(e.residuals) / (1.0 + abs(e.mu_u_qu)),
    }
    return {name: np.fmax.reduce(per_vector, axis=0, initial=0.0) for name, per_vector in scaled.items()}


def _cmd_verify_theorems(spec, p, M, args):
    if args.vector is not None:
        vectors = [args.vector]
    else:
        rng = np.random.default_rng([args.seed or 0, 7])
        vectors = _random_q_basis_vectors(rng, args.n_vectors)
    R = riemann_from_metric(M)
    try:
        worst = _relation_residuals(R, vectors, args.tol)
    except CirculantError:
        # raise what a run point by point, and vector by vector, raises first
        for i in np.ndindex(R.metric.D.shape):
            for u in vectors:
                _relation_residuals(R[i], [u], args.tol)
        raise
    results = {"n_vectors": len(vectors), "max_scaled_residuals": worst}
    verdicts = {name: _verdict(val <= args.tol, val, args.tol) for name, val in worst.items()}
    return results, verdicts


def _cmd_example_m5(spec, p, M, args):
    R = riemann_from_metric(M)
    comps = components(R)
    cf = closed_form_from_metric(M)
    formula = example_diagonal_value(p)
    nq_max = nabla_q_from_table(R.christoffel).max_abs
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
        "not_flat": _verdict(np.logical_not(is_flat(R, 1e-9)), max_abs(R.low), 1e-9),
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


def _load_spec(args):
    if args.command == "example-m5":
        if args.spec is not None:
            raise UsageError("example-m5 uses the built-in manifold; drop --spec")
        return builtin_example()
    if args.command == "qbasis" and args.spec is None:
        return builtin_example()  # metric is irrelevant for the cubic criterion
    if args.spec is None:
        raise UsageError(f"{args.command} needs --spec FILE")
    return load_spec(args.spec)


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
    if args.tol is None:
        args.tol = DEFAULT_TOL.get(args.command, 1e-9)
    elif not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    spec = _load_spec(args)
    core = _CORES[args.command]
    vector = None if args.vector is None else list(args.vector)

    if args.sample is not None:
        if args.command in NOT_SAMPLED:
            raise UsageError(f"{args.command} does not support --sample")
        if args.at is not None:
            raise UsageError("give either --at or --sample, not both")
        box = _parse_box(args.box) if args.box else spec.sample_box
        if box is None:
            raise UsageError("sampling needs [sample] in the spec file or --box")
        seed = args.seed if args.seed is not None else 0
        points, M = sample_admissible_points(spec.metric, box, args.sample, seed)
        n = len(points)
        pass_counts, max_residuals, tols = _summarize(core(spec, points, M, args)[1], n)
        results = {"points_accepted": n, "pass_counts": pass_counts, "max_residuals": max_residuals}
        verdicts = {
            name: _verdict(pass_counts[name] == n, max_residuals[name], tols[name])
            for name in pass_counts
        }
        inputs = {"box": [list(b) for b in box], "point": None, "vector": vector}
        meta = {"seed": seed, "n": n}
    else:
        point = args.at
        if point is None and args.command != "qbasis":
            raise UsageError(f"{args.command} needs --at X1,X2,X3 (or --sample N)")
        M = None
        try:
            if args.command not in NO_METRIC:
                M = metric_at(spec.metric, point, allow_weak=args.allow_weak_metric)
            results, verdicts = core(spec, point, M, args)
        except PositivityViolation as exc:
            # the basis constructions see only A and B, not the point they refuse
            if np.isnan(exc.point).all():
                raise PositivityViolation(exc.A, exc.B, point) from None
            raise
        inputs = {"box": None, "point": None if point is None else list(point), "vector": vector}
        meta = {"seed": args.seed, "n": 1}

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
        p.add_argument("--spec", help="manifold spec file (TOML subset)")
        p.add_argument("--at", type=_triple("--at"), help="evaluation point X1,X2,X3")
        p.add_argument("--sample", type=_count("--sample"), help="sample N admissible points instead of --at")
        p.add_argument("--seed", type=int, help="PRNG seed for sampling (default 0)")
        p.add_argument("--box", help="sampling box lo:hi,lo:hi,lo:hi (overrides spec)")
        tol_help = "verdict tolerance override"
        if name == "verify-theorems":
            tol_help += " (default 1e-8), also of the refusal where q-invariance fails"
        p.add_argument("--tol", type=float, help=tol_help)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument(
            "--allow-weak-metric",
            action="store_true",
            help="warn instead of failing when A > B > 0 fails but g is positive definite",
        )
        p.add_argument(
            "--vector",
            type=_triple("--vector"),
            required=name in ("angles", "qbasis"),
            help="vector X1,X2,X3 (angles, qbasis, verify-theorems)",
        )
        if name == "sectional":
            p.add_argument("--x", type=_triple("--x"), required=True, help="first plane vector")
            p.add_argument("--y", type=_triple("--y"), required=True, help="second plane vector")
        if name == "christoffel":
            p.add_argument("--fd-check", action="store_true", help="cross-check dGamma by finite differences")
        if name == "verify-theorems":
            p.add_argument(
                "--n-vectors", type=_count("--n-vectors"), default=5, help="random q-basis vectors per point"
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        report = _run(args)
    except (UsageError, SpecFileError, ExprSyntaxError, NotAQBasis, DegeneratePlane,
            ConstructionFailed, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except (PositivityViolation, DomainViolation, EvalDomainError, SamplingExhausted,
            AngleRoutesDisagree) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 3
    except IdentityRNotSatisfied as exc:
        print(
            f"error ({args.command}): {exc}\n"
            "the requested check assumes the curvature q-invariance identity; "
            "it does not hold at this point, so the verification is refused",
            file=sys.stderr,
        )
        return 1
    except CirculantError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
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

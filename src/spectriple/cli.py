"""Command-line interface: validate, twist-by-grading, real-part, sm, fuzz.

Exit codes are uniform across subcommands: 0 when every check passes, 1 when
some semantic check fails (the report lists each), 2 for unreadable or
malformed input.  --json switches the report to machine-readable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from . import scalars
from .algebra import Representation, RepresentationError
from .docio import (DocumentError, emit_document, load_document, parse_document, save_document)
from .fuzz import EVEN_KO, generate_cases
from .oneforms import omega1_span
from .realpart import intersect_with_opposite, real_part, structure_label, verify_doubling_dichotomy, verify_real_part
from .reports import Report
from .scalars import QI
from .standard_model import (YukawaParams, build_sm_models, fiber_majorana, sflip_identification,
                             verify_sm_real_part)
from .triple import (FiniteRealTriple, check_axioms, check_first_order, check_order_zero,
                     check_twisted_first_order)
from .twist import TwistError, eigenprojections, twist_by_grading


def main(argv=None) -> int:
    """Run one subcommand; --tol holds only for this call."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    previous = scalars.get_tolerance()
    if args.tol is not None:
        try:
            scalars.set_tolerance(args.tol)
        except ValueError as exc:
            print(f"error: --tol {args.tol}: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RepresentationError, TwistError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    finally:
        scalars.set_tolerance(previous)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectriple",
        description="Finite real (twisted) spectral triples: axioms, twists, real parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every axiom of a triple document")
    p.add_argument("path")
    _common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("twist-by-grading", help="double a graded triple and twist by the flip")
    p.add_argument("path")
    p.add_argument("out")
    _common(p)
    p.set_defaults(func=cmd_twist_by_grading)

    p = sub.add_parser("real-part", help="compute A_J, its flags, and A n A°")
    p.add_argument("path")
    _common(p)
    p.set_defaults(func=cmd_real_part)

    p = sub.add_parser("sm", help="build and verify the standard-model models")
    _common(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    for flag in ("--y-nu", "--y-e", "--y-u", "--y-d"):
        p.add_argument(flag, default=None, help="complex value as 're,im' (rationals, or floats with --mode float)")
    p.add_argument("--k-r", default=None, help="real Majorana mass")
    p.add_argument("--full", action="store_true",
                   help="also run the order-zero / first-order pair sweeps")
    p.add_argument("--dump-fiber", metavar="PATH", help="write the fiber triple document")
    p.add_argument("--dump-twisted", metavar="PATH", help="write the twisted triple document")
    p.set_defaults(func=cmd_sm)

    p = sub.add_parser("fuzz", help="randomized verification campaign")
    _common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--ko", type=int, choices=EVEN_KO, default=None)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_fuzz)
    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--tol", type=float, default=None, help="float-mode tolerance")


def _finish(report: Report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    doc = load_document(args.path)
    report = Report("document validation")
    try:
        parsed = parse_document(doc)
    except RepresentationError as exc:
        report.add("representation_homomorphism", False, detail=str(exc))
        return _finish(report, args.json)
    t = parsed.triple
    report.extend(check_axioms(t))
    if parsed.twist is not None:
        report.extend(parsed.twist.validate(t.spec, t.rep), prefix="twist_")
    if t.real_structure is not None:
        report.extend(check_order_zero(t))
        if parsed.twist is not None:
            report.extend(check_twisted_first_order(t, parsed.twist))
        else:
            report.extend(check_first_order(t))
    return _finish(report, args.json)


def cmd_twist_by_grading(args) -> int:
    parsed = parse_document(load_document(args.path))
    if parsed.twist is not None:
        raise DocumentError("document already carries a twist; twisting again is not supported")
    if parsed.triple.grading is None:
        raise DocumentError("twist by grading needs a graded triple")
    try:
        doubled, rho = twist_by_grading(parsed.triple, parsed.identification)
    except TwistError as exc:
        raise DocumentError(str(exc)) from None
    p_plus, _ = eigenprojections(parsed.triple.grading, parsed.mode == "exact")
    w_used = p_plus @ rho.R
    out = emit_document(doubled, parsed.mode, twist=rho, identification=w_used,
                        metadata={**parsed.metadata, "construction": "twist-by-grading"})
    save_document(out, args.out)
    report = Report("twist by grading")
    report.add("written", True, detail=args.out)
    report.data["doubled_algebra"] = doubled.spec.labels()
    return _finish(report, args.json)


def cmd_real_part(args) -> int:
    parsed = parse_document(load_document(args.path))
    t = parsed.triple
    if t.real_structure is None:
        raise DocumentError("real structure required")
    report = Report("real part")
    try:
        rp = real_part(t, parsed.twist)
    except TwistError as exc:
        report.add("twist_compatible", False, detail=str(exc))
        return _finish(report, args.json)
    report.data["real_dimension"] = rp.real_dimension
    report.data["structure"] = structure_label(t, rp.basis)
    report.data["basis"] = [[str(x) for x in v] for v in rp.basis.vectors]
    for name, value in rp.flags.items():
        report.add(name, value)

    if t.rep.is_injective():
        inter = intersect_with_opposite(t)
        report.data["intersection_dimension"] = inter.dim
        report.data["real_part_equals_intersection"] = inter.equals(rp.basis)
    else:
        report.add("injective_representation", False,
                   detail="A n A° skipped: representation is not injective")

    if parsed.metadata.get("construction") == "twist-by-grading" and parsed.twist is not None:
        initial = _undoubled(t)
        if initial is not None:
            # twisting again checks the document's identification against the initial triple
            twisted = twist_by_grading(initial, parsed.identification)
            report.extend(verify_doubling_dichotomy(initial, twisted), prefix="dichotomy_")
    return _finish(report, args.json)


def _undoubled(t: FiniteRealTriple) -> FiniteRealTriple | None:
    """Reconstruct the initial triple of a doubled document: pi(a) = pi2(a, a)."""
    ns = len(t.spec.summands)
    if ns % 2:
        return None
    half = ns // 2
    if t.spec.summands[:half] != t.spec.summands[half:]:
        return None
    from .algebra import AlgebraSpec

    spec0 = AlgebraSpec(t.spec.summands[:half])
    k = spec0.real_dimension
    mats = [a + b for a, b in zip(t.rep.basis_matrices[:k], t.rep.basis_matrices[k:])]
    try:
        # a -> (a, a) is a unital *-homomorphism, so pi is one whenever the parsed pi2 is
        rep0 = Representation(spec0, t.dim, mats, validate=False)
        return FiniteRealTriple(spec0, rep0, t.dirac, t.grading, t.real_structure)
    except (RepresentationError, ValueError):
        return None


def cmd_sm(args) -> int:
    try:
        params = _sm_params(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    models = build_sm_models(params)
    internal, fiber, doubled, rho = models
    rp = real_part(doubled, rho)  # raises TwistError when the twist is incompatible
    report = verify_sm_real_part(models, rp)

    d_maj = fiber_majorana(params)
    report.data["majorana_span_untwisted"] = omega1_span(fiber, dirac=d_maj).dimension
    report.data["majorana_span_twisted"] = omega1_span(doubled, rho=rho, dirac=d_maj).dimension

    if args.full:
        report.extend(check_order_zero(internal), prefix="internal_")
        report.extend(check_first_order(internal), prefix="internal_")
        report.extend(check_order_zero(fiber), prefix="fiber_")
        report.extend(check_first_order(fiber), prefix="fiber_")
        report.extend(check_twisted_first_order(doubled, rho), prefix="twisted_")
        report.extend(verify_real_part(doubled, rho, rp), prefix="twisted_real_part_")

    if args.dump_fiber:
        save_document(
            emit_document(fiber, args.mode, identification=sflip_identification(args.mode == "exact"),
                          metadata={"model": "sm-fiber"}),
            args.dump_fiber,
        )
    if args.dump_twisted:
        p_plus, _ = eigenprojections(fiber.grading, args.mode == "exact")
        save_document(
            emit_document(doubled, args.mode, twist=rho, identification=p_plus @ rho.R,
                          metadata={"model": "sm-fiber", "construction": "twist-by-grading"}),
            args.dump_twisted,
        )
    return _finish(report, args.json)


def _sm_params(args) -> YukawaParams:
    """The default couplings, overridden by the flags given; a malformed flag
    raises ValueError naming it."""
    exact = args.mode == "exact"
    params = YukawaParams.exact() if exact else YukawaParams(0.5 + 0j, 1 / 3 + 0j, 2 / 3 + 0j, 0.6 + 0j, 1.0)
    given = {}
    for name in ("y_nu", "y_e", "y_u", "y_d", "k_r"):
        raw, real = getattr(args, name), name == "k_r"
        if raw is None:
            continue
        try:
            values = [Fraction(x) if exact else float(x) for x in raw.split(",")]
            if len(values) > 2 - real or not (exact or all(map(math.isfinite, values))):
                raise ValueError
        except (ValueError, ZeroDivisionError):
            form = "" if real else "'re' or 're,im', each "
            kind = "rational" if exact else "finite float"
            raise ValueError(f"--{name.replace('_', '-')} {raw}: expected {form}a {kind}") from None
        if real:
            given[name] = scalars.rational(values[0]) if exact else values[0]
        else:
            given[name] = QI(*values) if exact else complex(*values)
    return dataclasses.replace(params, **given)


def cmd_fuzz(args) -> int:
    report = Report("fuzz campaign")
    cases = generate_cases(args.seed, args.count, args.ko, exact=args.mode == "exact")
    passed = 0
    branches = {}
    for idx, case in enumerate(cases):
        ok = True
        axioms = check_axioms(case.triple)
        ok &= axioms.ok and axioms.data.get("ko_dimension") == case.ko
        ok &= check_order_zero(case.triple).ok
        ok &= check_first_order(case.triple).ok
        doubled, rho = twist_by_grading(case.triple)
        dichotomy = verify_doubling_dichotomy(case.triple, (doubled, rho))
        ok &= dichotomy.ok
        branch = dichotomy.data.get("branch")
        branches[branch] = branches.get(branch, 0) + 1
        ok &= verify_real_part(doubled, rho).ok
        report.add(f"case_{idx:04d}", bool(ok), detail=f"ko={case.ko} branch={branch}")
        passed += bool(ok)
    report.data["passed"] = passed
    report.data["count"] = len(cases)
    report.data["branches"] = branches
    report.data["seed"] = args.seed
    return _finish(report, args.json)


if __name__ == "__main__":
    sys.exit(main())

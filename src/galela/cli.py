"""Command line entry point.

Subcommands expose the library workflows with two views: a human table on
stdout by default, or canonical JSON with --json.  The JSON serialization
is the stable interface: keys sorted, minimal separators, no timestamps,
so identical parameters always produce byte-identical output.

Exit codes: 0 success, 1 verification failure (counterexample JSON on
stdout), 2 invalid parameters, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bruckbose, combinat, elation, selftest, singer
from .errors import CapExceeded, VerificationError
from .gf import make_field


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload, table_lines):
    if args.json:
        print(canonical_json(payload))
    else:
        for line in table_lines:
            print(line)
    return 0


def _poly_str(coeffs) -> str:
    # ascending coefficient tuple to a readable polynomial
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"


def cmd_field(args):
    tower = make_field(args.p, args.h)
    payload = {
        "p": tower.p, "h": tower.h, "order": tower.order,
        "modulus": list(tower.modulus),
        "generator": tower.mu,
        "generator_order": tower.order - 1,
        "subfields": sorted(combinat.divisors(tower.h)),
    }
    lines = [
        f"GF({tower.p}^{tower.h}), order {tower.order}",
        f"modulus {_poly_str(tower.modulus)}",
        f"generator {tower.mu} of multiplicative order {tower.order - 1}",
        "subfield degrees " + ", ".join(str(n) for n in sorted(combinat.divisors(tower.h))),
    ]
    return _emit(args, payload, lines)


def cmd_census(args):
    census = singer.orbit_census(args.s, args.t, args.q, cap=args.cap)
    orbits = [{
        "representative": [list(row) for row in rec.representative.basis],
        "size": rec.size,
        "u": rec.u,
        "is_spread": rec.u == args.t,
    } for rec in census.orbits]
    payload = {
        "params": {"s": args.s, "t": args.t, "q": args.q},
        "orbits": orbits,
        "totals": {"subspaces": sum(rec.size for rec in census.orbits),
                   "orbits": len(orbits),
                   "free_orbits": sum(1 for rec in census.orbits if rec.u == 1)},
        "predicted": {"eq2": singer.predicted_orbit_count(args.s, args.t, args.q),
                      "eq3": singer.predicted_free_orbit_count(args.s, args.t, args.q)},
    }
    lines = [f"orbits of {args.t}-spaces in PG({args.s - 1},{args.q}): {len(orbits)}"]
    for i, rec in enumerate(census.orbits):
        tag = "  spread" if rec.u == args.t else ""
        lines.append(f"  orbit {i}: size {rec.size}  u={rec.u}{tag}")
    lines.append(f"total subspaces {payload['totals']['subspaces']}, "
                 f"predicted orbits {payload['predicted']['eq2']} "
                 f"({payload['predicted']['eq3']} free)")
    return _emit(args, payload, lines)


def cmd_count(args):
    value = elation.count_classes(args.p, args.h, args.m, args.n, minimal=args.minimal)
    payload = {"params": {"p": args.p, "h": args.h, "m": args.m, "n": args.n,
                          "minimal": args.minimal},
               "count": value}
    return _emit(args, payload, [str(value)])


def cmd_classify(args):
    classes = elation.equivalence_classes(args.p, args.h, args.m, cap=args.cap)
    payload = {
        "params": {"p": args.p, "h": args.h, "m": args.m},
        "classes": [{
            "representative": [list(row) for row in c.representative.rows],
            "size": c.size,
            "profile": {"admissible": [list(pair) for pair in c.profile.admissible],
                        "minimal_n": c.profile.minimal_n,
                        "minimal_d": c.profile.minimal_d},
        } for c in classes],
        "totals": {"classes": len(classes),
                   "subgroups": sum(c.size for c in classes)},
    }
    lines = [f"{len(classes)} classes of order-{args.p}^{args.m} subgroups of "
             f"GF({args.p}^{args.h})"]
    for i, c in enumerate(classes):
        basis = "; ".join("".join(str(d) for d in row) for row in c.representative.rows)
        adm = ",".join(str(n) for n, _ in c.profile.admissible)
        lines.append(f"  class {i}: size {c.size}  basis [{basis}]  "
                     f"subfield degrees {{{adm}}}  minimal d={c.profile.minimal_d}")
    return _emit(args, payload, lines)


def cmd_verify_correspondence(args):
    report = elation.verify_correspondence(args.p, args.h, args.m, args.n, cap=args.cap)
    lines = [f"classes {report['classes']} <-> orbits {report['orbits']}: bijection",
             f"minimal classes {report['minimal_classes']} <-> free orbits "
             f"{report['free_orbits']}",
             "ok"]
    return _emit(args, report, lines)


def cmd_verify_lemma1(args):
    report = elation.verify_lemma1(args.r, args.p, args.h, cap=args.cap)
    lines = [f"subgroups {report['subgroups']}, equivalent pairs "
             f"{report['equivalent_pairs']} conjugated, inequivalent pairs "
             f"{report['inequivalent_pairs']} swept over the {args.p ** args.h - 1} diagonal "
             f"projectivities diag(1, ..., 1, d) (of {report['group_order']} in PGL)",
             "ok"]
    return _emit(args, report, lines)


def cmd_verify_bruckbose(args):
    report = bruckbose.verify_star_model(args.r, args.p, args.h, args.n,
                                          m=args.m, seed=args.seed,
                                          exhaustive=args.exhaustive, cap=args.cap)
    lines = [f"star model of PG({args.r - 1},{args.p}^{args.h}) over "
             f"GF({args.p}^{args.n})",
             f"checked {sum(row['orbits_checked'] for row in report['orders'])} "
             f"orbit images across orders {[row['m'] for row in report['orders']]}, "
             f"{report['sample']['line_specs']} lines",
             "ok"]
    return _emit(args, report, lines)


def cmd_selftest(args):
    report = selftest.run_selftest()
    print(canonical_json(report))
    return 0


def _cap(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galela",
        description="Exact finite geometry: field towers, orbit censuses, "
                    "elation-group classification, star representations.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    fmt.add_argument("--json", action="store_true",
                     help="emit canonical JSON instead of a table")
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False, parents=[fmt])
    common.add_argument("--cap", type=_cap, default=None,
                        help="enumeration size cap override")

    f = sub.add_parser("field", parents=[fmt], allow_abbrev=False, help="summarize a field tower")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--h", type=int, required=True)
    f.set_defaults(func=cmd_field)

    c = sub.add_parser("census", parents=[common], allow_abbrev=False,
                       help="orbit census of t-spaces under the cyclic point-regular group")
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.set_defaults(func=cmd_census)

    k = sub.add_parser("count", parents=[fmt], allow_abbrev=False,
                       help="closed-form class count for subgroups of GF(p^h)")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--h", type=int, required=True)
    k.add_argument("--m", type=int, required=True)
    k.add_argument("--n", type=int, default=1)
    k.add_argument("--minimal", action="store_true",
                   help="count only classes of minimal dimension over GF(p^n)")
    k.set_defaults(func=cmd_count)

    y = sub.add_parser("classify", parents=[common], allow_abbrev=False,
                       help="list scalar-equivalence classes of subgroups")
    y.add_argument("--p", type=int, required=True)
    y.add_argument("--h", type=int, required=True)
    y.add_argument("--m", type=int, required=True)
    y.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", allow_abbrev=False, help="run structural verifications")
    vsub = v.add_subparsers(dest="check", required=True)

    vc = vsub.add_parser("correspondence", parents=[common], allow_abbrev=False,
                         help="classes of subgroups against orbit structure")
    vc.add_argument("--p", type=int, required=True)
    vc.add_argument("--h", type=int, required=True)
    vc.add_argument("--m", type=int, required=True)
    vc.add_argument("--n", type=int, required=True)
    vc.set_defaults(func=cmd_verify_correspondence)

    vl = vsub.add_parser("lemma1", parents=[common], allow_abbrev=False,
                         help="conjugacy criterion in both directions")
    vl.add_argument("--p", type=int, required=True)
    vl.add_argument("--h", type=int, required=True)
    vl.add_argument("--r", type=int, required=True)
    vl.set_defaults(func=cmd_verify_lemma1)

    vb = vsub.add_parser("bruckbose", parents=[common], allow_abbrev=False,
                         help="orbit geometry of the star representation")
    vb.add_argument("--p", type=int, required=True)
    vb.add_argument("--h", type=int, required=True)
    vb.add_argument("--n", type=int, required=True)
    vb.add_argument("--r", type=int, required=True)
    vb.add_argument("--m", type=int, default=None)
    vb.add_argument("--seed", type=int, default=0)
    vb.add_argument("--exhaustive", action="store_true",
                    help="sweep every affine point and line regardless of size")
    vb.set_defaults(func=cmd_verify_bruckbose)

    st = sub.add_parser("selftest", allow_abbrev=False, help="run the full verification matrix")
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(canonical_json({"error": "verification failure",
                              "message": str(exc),
                              "details": exc.details}))
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

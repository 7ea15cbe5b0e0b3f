"""Batch command-line front end.

Subcommands: formula, verify, brute, hnf, lemma2, verify-moves, and the
zcase group (classes, ratio, constant).  All counts are serialized as decimal
strings so downstream consumers never truncate to 64 bits.  Exit codes:
0 success, 1 verification mismatch, 2 invalid input, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, integer_orbits, moves, oracle
from .errors import BudgetExceeded, InvalidParams, OrbitCountError
from .fields import field_of_order
from .oracle import EnumerationBudget
from .polymat import PolyMatrix, hnf

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

DEFAULT_VERIFY_GRID = ((2, 2, 2), (2, 3, 2), (3, 2, 1))  # (n, q, max k)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def emit(report: dict, fmt: str, out: str | None):
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"{key},{value}" for key, value in _flatten(report)]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_bounds(text: str):
    return tuple(int(x) for x in text.split(","))


def _load_matrix(path: str) -> PolyMatrix:
    with open(path) as fh:
        return PolyMatrix.from_json(json.load(fh))


# -- subcommand implementations ----------------------------------------------


def cmd_formula(args) -> int:
    orbit = counting.orbit_count_formula(args.n, args.q, args.t, args.k)
    total = counting.total_count_formula(args.n, args.q, args.t, args.k)
    emit(
        {
            "params": {"n": args.n, "q": args.q, "t": args.t, "k": args.k},
            "orbit_count": str(orbit),
            "total_count": str(total),
            "class_count": str(counting.c_nt(args.n, args.q, args.t)),
        },
        args.format,
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = DEFAULT_VERIFY_GRID if args.grid is None else _grid(args.grid)
    budget = EnumerationBudget(args.budget)
    reports, ok = oracle.verify_grid(grid, budget)
    emit(
        {"grid": [list(g) for g in grid], "reports": [r.to_json() for r in reports], "all_match": ok},
        args.format,
        args.out,
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_brute(args) -> int:
    budget = EnumerationBudget(args.budget)
    if args.input:
        rep = _load_matrix(args.input)
        count = oracle.count_orbit_bruteforce(rep, args.k, budget)
        emit(
            {"kind": "orbit", "k": args.k, "count": str(count), "rep": rep.to_json()},
            args.format,
            args.out,
        )
        return EXIT_OK
    if args.n is None or args.q is None:
        raise InvalidParams("brute needs --n and --q unless --input is given")
    census = oracle.census_by_det_degree(args.n, args.q, args.k, budget)
    emit(census.to_json(), args.format, args.out)
    return EXIT_OK


def cmd_hnf(args) -> int:
    m = _load_matrix(args.input)
    form = hnf(m)
    emit(
        {
            "h": form.h.to_json(),
            "u": form.u.to_json(),
            "det_degree": form.det_degree,
        },
        args.format,
        args.out,
    )
    return EXIT_OK


def cmd_lemma2(args) -> int:
    bounds = _parse_bounds(args.bounds)
    budget = EnumerationBudget(args.budget)
    # the budget-checked scan first: the formula's power and the recursion's
    # depth grow with the bounds
    brute = oracle.count_P_bruteforce(bounds, args.q, budget)
    formula = counting.p_count_formula(bounds, args.q)
    recursive = counting.p_count_recursive(bounds, args.q)
    ok = formula == recursive == brute
    emit(
        {
            "bounds": list(bounds),
            "q": args.q,
            "formula": str(formula),
            "recursive": str(recursive),
            "bruteforce": str(brute),
            "all_match": ok,
        },
        args.format,
        args.out,
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_verify_moves(args) -> int:
    if args.n not in (0, 2, 3):
        raise InvalidParams(f"--n must be 2, 3 or 0 (both sizes), got {args.n}")
    field = field_of_order(args.q)
    budget = EnumerationBudget(args.budget)
    two, three = moves.standard_move_fixtures(field)
    fixtures = two if args.n == 2 else three if args.n == 3 else two + three
    records = moves.run_move_battery(fixtures, k_extra=args.k_extra, budget=budget)
    ok = all(r.all_equal() for r in records)
    emit(
        {"records": [r.to_json() for r in records], "all_match": ok},
        args.format,
        args.out,
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_zcase_classes(args) -> int:
    reps = integer_orbits.hnf_classes_for_det(args.det)
    snf_classes = sorted({integer_orbits.snf_int(r) for r in reps})
    emit(
        {
            "det": args.det,
            "left_class_count": len(reps),
            "left_classes": [list(map(list, r)) for r in reps],
            "two_sided_class_count": len(snf_classes),
            "two_sided_classes": [list(map(list, s)) for s in snf_classes],
        },
        args.format,
        args.out,
    )
    return EXIT_OK


def cmd_zcase_ratio(args) -> int:
    if args.T < 1:
        raise InvalidParams(f"--T must be >= 1, got {args.T}")
    ladder = sorted({args.T // 4, args.T // 2, args.T} - {0})
    report = integer_orbits.orbit_ratio_experiment(args.det, args.T, ladder, args.budget)
    payload = report.to_json()
    counts = report.class_counts[args.T]
    if len(counts) == 2:
        (k1, v1), (k2, v2) = sorted(counts.items())
        payload["ratio"] = {
            "classes": [list(map(list, k1)), list(map(list, k2))],
            "rational": f"{v1}/{v2}",
            "float": v1 / v2,
        }
    emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_zcase_constant(args) -> int:
    value = integer_orbits.drs_constant(args.n, args.det)
    emit({"n": args.n, "k": args.det, "constant": value}, args.format, args.out)
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


def _grid(text):
    """Parse "n,q,kmax;..." into triples, each with n >= 1 and kmax >= 0."""
    out = []
    for part in text.split(";"):
        try:
            n, q, k = (int(v) for v in part.split(","))
        except ValueError:
            raise InvalidParams(f"--grid triple {part!r} is not n,q,kmax") from None
        if n < 1 or k < 0:
            raise InvalidParams(f"--grid triple {part!r} needs n >= 1 and kmax >= 0")
        out.append((n, q, k))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="orbitcount")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out")
        p.add_argument("--budget", type=int, default=oracle.DEFAULT_MAX_ITEMS)

    p = sub.add_parser("formula", help="evaluate the closed-form counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("verify", help="scan censuses against the closed forms")
    p.add_argument("--grid", help='triples "n,q,kmax;n,q,kmax;..."')
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("brute", help="exhaustive censuses and orbit counts")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", help="matrix JSON file: count its orbit instead")
    common(p)
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("hnf", help="canonical form and witness transform")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_hnf)

    p = sub.add_parser("lemma2", help="unipotent-at-zero family counts")
    p.add_argument("--bounds", required=True, help="comma-separated bounds k1,k2,...")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("verify-moves", help="count preservation of the proof moves")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=0, help="restrict to one fixture size")
    p.add_argument("--k-extra", type=int, default=1, dest="k_extra")
    common(p)
    p.set_defaults(func=cmd_verify_moves)

    p = sub.add_parser("zcase", help="integer-matrix companion experiments")
    zsub = p.add_subparsers(dest="zcommand", required=True)

    pz = zsub.add_parser("classes", help="left and two-sided class inventories")
    pz.add_argument("--det", type=int, required=True)
    common(pz)
    pz.set_defaults(func=cmd_zcase_classes)

    pz = zsub.add_parser("ratio", help="norm-ball census ratio ladder")
    pz.add_argument("--det", type=int, required=True)
    pz.add_argument("--T", type=int, required=True)
    common(pz)
    pz.set_defaults(func=cmd_zcase_ratio)

    pz = zsub.add_parser("constant", help="asymptotic density constant")
    pz.add_argument("--n", type=int, default=2)
    pz.add_argument("--det", type=int, required=True)
    common(pz)
    pz.set_defaults(func=cmd_zcase_constant)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OrbitCountError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

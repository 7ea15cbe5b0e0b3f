"""Batch command-line front end.

Subcommands: formula, verify, brute, hnf, lemma2, verify-moves, and the
zcase group (classes, ratio, constant).  All counts are serialized as decimal
strings so downstream consumers never truncate to 64 bits.  Exit codes:
0 success, 1 verification mismatch, 2 invalid input, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

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
    """The (key, value) CSV rows of a report, one leaf at a time."""
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def emit(report: dict, fmt: str, out: str | None):
    """Write the report as it is serialized, without building its text."""
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        if fmt == "json":
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        else:
            for key, value in _flatten(report):
                fh.write(f"{key},{value}\n")


def _parse_bounds(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidParams(f"--bounds {text!r} is not k_1,...,k_n") from None


def _load_matrix(path: str) -> PolyMatrix:
    with open(path) as fh:
        return PolyMatrix.from_json(json.load(fh))


# -- subcommand implementations ----------------------------------------------
# Each returns (report, ok); main emits the report and maps ok to the exit code.


def _total_count_digits(n: int, q: int, t: int, k: int, limit: int) -> int:
    """The digits of total_count_formula(n, q, t, k), the longest count, from
    logarithms: it is q^(n^2 + n(n-1)k + t) (1 - q^-n) prod_{0<j<n} (1 - q^-(t+j)),
    and 1 - q^-e is 1.0 in floats from e = 64 on.  Summed in fixed point, so no
    float overflows.  The sum can land on the wrong side of a power of ten
    (the count 10 at n = 1, q = 11 sums to just under 1), so an estimate of
    at most limit + 2 digits is settled by the count itself, as integers."""
    low = sum(math.log10(1 - q ** -min(e, 64)) for e in [n, *range(t + 1, t + min(n, 64))])
    one = 10**17
    d = ((n * n + n * (n - 1) * k + t) * round(math.log10(q) * one) + round(low * one)) // one + 1
    if d > limit + 2:
        return d
    count = counting.total_count_formula(n, q, t, k)
    return d - 1 + (count >= 10 ** (d - 1)) + (count >= 10**d)


def cmd_formula(args):
    n, q, t, k = args.n, args.q, args.t, args.k
    counting._check_nq(n, q)  # a bad n or q (or t, below) exits 2, before any size check
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (or no such call): no limit
    if limit and 0 <= t <= k and (digits := _total_count_digits(n, q, t, k, limit)) > limit:
        raise BudgetExceeded(f"formula: the total count has {digits} digits, over the limit {limit}")
    return {
        "params": {"n": args.n, "q": args.q, "t": args.t, "k": args.k},
        "orbit_count": str(counting.orbit_count_formula(args.n, args.q, args.t, args.k)),
        "total_count": str(counting.total_count_formula(args.n, args.q, args.t, args.k)),
        "class_count": str(counting.c_nt(args.n, args.q, args.t)),
    }, True


def cmd_verify(args):
    grid = DEFAULT_VERIFY_GRID if args.grid is None else _grid(args.grid)
    reports, ok = oracle.verify_grid(grid, EnumerationBudget(args.budget))
    return {
        "grid": [list(g) for g in grid],
        "reports": [r.to_json() for r in reports],
        "all_match": ok,
    }, ok


def cmd_brute(args):
    budget = EnumerationBudget(args.budget)
    if args.input:
        rep = _load_matrix(args.input)
        count = oracle.count_orbit_bruteforce(rep, args.k, budget)
        return {"kind": "orbit", "k": args.k, "count": str(count), "rep": rep.to_json()}, True
    if args.n is None or args.q is None:
        raise InvalidParams("brute needs --n and --q unless --input is given")
    return oracle.census_by_det_degree(args.n, args.q, args.k, budget).to_json(), True


def cmd_hnf(args):
    form = hnf(_load_matrix(args.input))
    return {"h": form.h.to_json(), "u": form.u.to_json(), "det_degree": form.det_degree}, True


def cmd_lemma2(args):
    bounds = _parse_bounds(args.bounds)
    # the budget-checked solve first: the formula's power and the recursion's
    # depth grow with the bounds
    brute = oracle.count_P_bruteforce(bounds, args.q, EnumerationBudget(args.budget))
    formula = counting.p_count_formula(bounds, args.q)
    recursive = counting.p_count_recursive(bounds, args.q)
    ok = formula == recursive == brute
    return {
        "bounds": list(bounds),
        "q": args.q,
        "formula": str(formula),
        "recursive": str(recursive),
        "bruteforce": str(brute),
        "all_match": ok,
    }, ok


def cmd_verify_moves(args):
    if args.n not in (0, 2, 3):
        raise InvalidParams(f"--n must be 2, 3 or 0 (both sizes), got {args.n}")
    field = field_of_order(args.q)
    budget = EnumerationBudget(args.budget)
    two, three = moves.standard_move_fixtures(field)
    fixtures = two if args.n == 2 else three if args.n == 3 else two + three
    records = moves.run_move_battery(fixtures, k_extra=args.k_extra, budget=budget)
    ok = all(r.all_equal() for r in records)
    return {"records": [r.to_json() for r in records], "all_match": ok}, ok


def cmd_zcase_classes(args):
    reps = integer_orbits.hnf_classes_for_det(args.det, EnumerationBudget(args.budget))
    snf_classes = sorted({integer_orbits.snf_int(r) for r in reps})
    return {
        "det": args.det,
        "left_class_count": len(reps),
        "left_classes": reps,
        "two_sided_class_count": len(snf_classes),
        "two_sided_classes": snf_classes,
    }, True


def cmd_zcase_ratio(args):
    if args.T < 1:
        raise InvalidParams(f"--T must be >= 1, got {args.T}")
    ladder = sorted({args.T // 4, args.T // 2, args.T} - {0})
    report = integer_orbits.orbit_ratio_experiment(
        args.det, args.T, ladder, EnumerationBudget(args.budget)
    )
    payload = report.to_json()
    counts = report.class_counts[args.T]
    if len(counts) == 2:
        (k1, v1), (k2, v2) = sorted(counts.items())
        payload["ratio"] = {
            "classes": [list(map(list, k1)), list(map(list, k2))],
            "rational": f"{v1}/{v2}",
            "float": v1 / v2,
        }
    return payload, True


def cmd_zcase_constant(args):
    if args.det < 1:
        raise InvalidParams(f"--det must be >= 1, got {args.det}")
    return {"n": 2, "k": args.det, "constant": integer_orbits.drs_constant(2, args.det)}, True


# -- argument wiring ---------------------------------------------------------


def _grid(text):
    """Parse "n,q,kmax;..." into triples; verify_grid checks their ranges."""
    out = []
    for part in text.split(";"):
        try:
            n, q, k = (int(v) for v in part.split(","))
        except ValueError:
            raise InvalidParams(f"--grid triple {part!r} is not n,q,kmax") from None
        out.append((n, q, k))
    return tuple(out)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidParams, which main reports in one line; the
    subparsers are built from this class too."""

    def error(self, message):
        raise InvalidParams(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="orbitcount")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out")
        if budget:
            p.add_argument("--budget", type=int, default=oracle.DEFAULT_MAX_ITEMS)

    p = sub.add_parser("formula", help="evaluate the closed-form counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, budget=False)
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
    common(p, budget=False)
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

    pz = zsub.add_parser("constant", help="asymptotic density constant (n = 2)")
    pz.add_argument("--det", type=int, required=True)
    common(pz, budget=False)
    pz.set_defaults(func=cmd_zcase_constant)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, ok = args.func(args)
        emit(report, args.format, args.out)
        return EXIT_OK if ok else EXIT_MISMATCH
    except (BudgetExceeded, MemoryError) as exc:  # what the budget admits may not fit in memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (OrbitCountError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment driver.

One subcommand per module area.  OPERATION_MAP below names, for each
library operation it lists, the one subcommand that calls it; the coverage
test wraps every listed function and checks that a call of its subcommand
reaches it.  Results are written as JSON (or CSV for series) to --out or
stdout.  Exit codes: 0 success, 2 domain error, 3 capacity error, 64 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import sys
import time

from . import __version__
from . import bv as bv_mod
from . import combinat, oracle, sequences, singular
from . import primes as prime_engine
from . import tuples as tc
from . import weights
from .errors import CapacityError, DomainError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 64

# Which subcommand calls each listed library operation (coverage contract).
OPERATION_MAP = {
    "sieve_range": "primes",
    "theta_sum": "primes",
    "theta_progression": "primes",
    "ap_error": "primes",
    "ap_error_star": "primes",
    "nu_p": "tuple check",
    "is_admissible": "tuple check",
    "nu_bar_p": "tuple check",
    "nu_star_p": "tuple check",
    "discriminant": "tuple discriminant",
    "regular_classes": "tuple regular",
    "singular_series": "singular value",
    "singular_series_extended": "singular value",
    "average_B": "singular average",
    "check_monotone": "singular monotone",
    "quasiprime_density": "singular quasidensity",
    "polynomial_value": "gpy lambda",
    "lambda_R": "gpy lambda",
    "pair_sum_direct": "gpy moment1",
    "pair_sum_divisor": "gpy moment1",
    "pair_sum_theta": "gpy moment2",
    "detector_sum": "gpy detector",
    "Z_sum": "combi lemma2",
    "Z_closed": "combi lemma2",
    "coeff_ratio_check": "combi coeffs",
    "divisor_mean_check": "combi divisor-mean",
    "main_term_t4": "oracle t4",
    "main_term_t5": "oracle t5",
    "g00": "oracle g00",
    "w_function": "oracle wscan",
    "verify_w_bounds": "oracle wscan",
    "j_product": "oracle jprod",
    "compare": "oracle t4",
    "bv_sum": "bv classic",
    "bv_sum_restricted": "bv restricted",
    "estar_aggregate": "bv estar",
    "generate_sequence": "seq generate",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _num(text: str) -> int:
    """Integer flag accepting scientific notation (1e7 -> 10000000)."""
    try:
        return int(text)
    except ValueError:
        v = float(text)
        if v != int(v):
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        return int(v)


def _shifts(text: str) -> tc.TupleH:
    return tc.parse_tuple_line(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--stable", action="store_true", help="omit runtime from output")
    p.add_argument("--seed", type=int, default=0)


def _add_pair(p: argparse.ArgumentParser) -> None:
    """The pair-sum inputs shared by gpy moment1/moment2 and oracle t4/t5."""
    p.add_argument("--h1", type=_shifts, required=True)
    p.add_argument("--h2", type=_shifts, required=True)
    p.add_argument("--ell", type=_num, default=1, help="shared ell")
    p.add_argument("--ell2", type=_num, default=None)
    p.add_argument("--n", type=_num, required=True)
    p.add_argument("--theta", type=float, default=0.20, help="R = (3N)^theta")
    p.add_argument("--v", type=_num, default=5)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gpylab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="prime tables and theta statistics")
    p.add_argument("--lo", type=_num, default=0)
    p.add_argument("--hi", type=_num, required=True)
    p.add_argument("--theta", action="store_true", help="report theta(hi)")
    p.add_argument("--q", type=_num, help="progression modulus")
    p.add_argument("--a", type=_num, help="progression residue")
    p.add_argument("--error", action="store_true", help="report E(hi; q, a)")
    p.add_argument("--estar", action="store_true", help="report E*(hi, q)")
    _add_common(p)

    p = sub.add_parser("tuple", help="shift-set arithmetic")
    ts = p.add_subparsers(dest="action", required=True)
    t = ts.add_parser("check")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--h2", type=_shifts, help="second tuple for nu_bar")
    t.add_argument("--h0", type=_num, help="extra shift for nu_star")
    t.add_argument("--p", type=_num, default=None, help="prime for nu reports")
    _add_common(t)
    t = ts.add_parser("discriminant")
    t.add_argument("--shifts", type=_shifts, required=True)
    _add_common(t)
    t = ts.add_parser("regular")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--v", type=_num, required=True)
    _add_common(t)

    p = sub.add_parser("singular", help="singular series and averages")
    ss = p.add_subparsers(dest="action", required=True)
    t = ss.add_parser("value")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--h0", type=_num, help="extend the tuple by h0")
    t.add_argument("--cutoff", type=_num, default=None)
    _add_common(t)
    t = ss.add_parser("average")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--k", type=_num, required=True)
    t.add_argument("--cutoff", type=_num, default=10**5)
    _add_common(t)
    t = ss.add_parser("monotone")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--kmax", type=_num, required=True)
    t.add_argument("--cutoff", type=_num, default=10**5)
    t.add_argument("--floor", type=float, default=0.95)
    _add_common(t)
    t = ss.add_parser("quasidensity")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--z", type=_num, required=True)
    _add_common(t)

    p = sub.add_parser("gpy", help="sieve weights and window sums")
    gs = p.add_subparsers(dest="action", required=True)
    t = gs.add_parser("lambda")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--n", type=_num, required=True)
    t.add_argument("--ell", type=_num, default=0)
    t.add_argument("--r", type=float, required=True, help="sieve level R")
    _add_common(t)
    for name in ("moment1", "moment2"):
        t = gs.add_parser(name)
        _add_pair(t)
        t.add_argument("--per-class", type=_num, default=None)
        if name == "moment1":
            t.add_argument(
                "--strategy", choices=("direct", "divisor", "both"), default="direct"
            )
        else:
            t.add_argument("--h0", type=_num, required=True)
        _add_common(t)
    t = gs.add_parser("detector")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--k", type=_num, required=True)
    t.add_argument("--ell", type=_num, default=0)
    t.add_argument("--n", type=_num, required=True)
    t.add_argument("--theta", type=float, default=0.20)
    t.add_argument("--v", type=_num, default=3)
    _add_common(t)

    p = sub.add_parser("combi", help="exact combinatorial kernels")
    cs = p.add_subparsers(dest="action", required=True)
    t = cs.add_parser("lemma2")
    t.add_argument("--max", type=_num, default=25)
    _add_common(t)
    t = cs.add_parser("coeffs")
    t.add_argument("--d", type=_num, default=3)
    t.add_argument("--u", type=_num, default=4)
    t.add_argument("--v", type=_num, default=4)
    t.add_argument("--max", type=_num, default=12, help="identity grid bound")
    _add_common(t)
    t = cs.add_parser("divisor-mean")
    t.add_argument("--x", type=_num, required=True)
    t.add_argument("--m", type=_num, required=True)
    _add_common(t)

    p = sub.add_parser("oracle", help="predicted main terms and W/J scans")
    os_ = p.add_subparsers(dest="action", required=True)
    for name in ("t4", "t5"):
        t = os_.add_parser(name)
        _add_pair(t)
        if name == "t4":
            t.add_argument("--scope", choices=("aggregate", "per_class"), default="aggregate")
            t.add_argument("--empirical", type=float, default=None)
        else:
            t.add_argument("--h0", type=_num, required=True)
        _add_common(t)
    t = os_.add_parser("g00")
    t.add_argument("--shifts", type=_shifts, required=True)
    t.add_argument("--v", type=_num, required=True)
    t.add_argument("--cutoff", type=_num, default=None)
    _add_common(t)
    t = os_.add_parser("wscan")
    t.add_argument("--tmax", type=float, default=100.0)
    t.add_argument("--step", type=float, default=0.01)
    t.add_argument("--t", type=float, default=None, help="also report W(it)")
    _add_common(t)
    t = os_.add_parser("jprod")
    t.add_argument("--t", type=float, required=True)
    t.add_argument("--x", type=_num, required=True)
    _add_common(t)

    p = sub.add_parser("bv", help="progression error statistics")
    bs = p.add_subparsers(dest="action", required=True)
    t = bs.add_parser("classic")
    t.add_argument("--n", type=_num, required=True)
    t.add_argument("--qmax", type=_num, required=True)
    _add_common(t)
    t = bs.add_parser("restricted")
    t.add_argument("--n", type=_num, required=True)
    t.add_argument("--qmax", type=_num, required=True)
    t.add_argument("--v", type=_num, default=3, help="base modulus P = primorial(V)")
    _add_common(t)
    t = bs.add_parser("estar")
    t.add_argument("--n", type=_num, required=True)
    t.add_argument("--qmax", type=_num, required=True)
    t.add_argument("--m", type=_num, default=1)
    t.add_argument("--endpoint-only", action="store_true")
    _add_common(t)

    p = sub.add_parser("seq", help="shift-set generators")
    qs = p.add_subparsers(dest="action", required=True)
    t = qs.add_parser("generate")
    t.add_argument("--kind", choices=sequences.KINDS, required=True)
    t.add_argument("--n", type=_num, required=True)
    t.add_argument("--k", type=_num, default=2)
    t.add_argument("--h", type=_num, default=10)
    t.add_argument("--exponents", help="comma-separated exponent list")
    _add_common(t)

    p = sub.add_parser("verify", help="verification batteries")
    vs = p.add_subparsers(dest="action", required=True)
    t = vs.add_parser("all")
    t.add_argument("--fast", action="store_true", help="smaller grids")
    _add_common(t)

    return top


def _level(args) -> float:
    """The sieve level R = (3N)^theta of the gpy and oracle subcommands."""
    return (3.0 * args.n) ** args.theta


def _pair_params(args) -> oracle.MainTermParams:
    """The inputs added by _add_pair, with ell2 and R resolved."""
    ell2 = args.ell if args.ell2 is None else args.ell2
    h0 = getattr(args, "h0", None)
    return oracle.MainTermParams(
        args.h1, args.h2, args.ell, ell2, _level(args), args.n, args.v, h0
    )


def _cmd_primes(args) -> dict:
    table = prime_engine.sieve_range(args.lo, args.hi)
    out = {"lo": args.lo, "hi": args.hi, "count": len(table)}
    if args.theta:
        out["theta"] = prime_engine.theta_sum(args.hi, table if args.lo == 0 else None)
    if args.q is not None and args.estar:
        out["estar"] = prime_engine.ap_error_star(
            args.hi, args.q, table if args.lo == 0 else None
        )
    elif args.q is not None and args.a is not None:
        t = table if args.lo == 0 else None
        out["theta_progression"] = prime_engine.theta_progression(args.hi, args.q, args.a, t)
        if args.error:
            out["ap_error"] = prime_engine.ap_error(args.hi, args.q, args.a, t)
    return out


def _cmd_tuple(args) -> dict:
    H = args.shifts
    if args.action == "check":
        out = {
            "tuple": list(H.shifts),
            "admissible": tc.is_admissible(H),
        }
        ps = [args.p] if args.p is not None else list(prime_engine.primes_upto(max(H.size, 3)))
        out["nu_p"] = {str(q): tc.nu_p(H, q) for q in ps}
        if args.h2 is not None:
            out["nu_bar_p"] = {str(q): tc.nu_bar_p(H, args.h2, q) for q in ps}
        if args.h0 is not None:
            out["nu_star_p"] = {str(q): tc.nu_star_p(H, args.h0, q) for q in ps}
        return out
    if args.action == "discriminant":
        return {"tuple": list(H.shifts), "discriminant": str(tc.discriminant(H))}
    classes = tc.regular_classes(H, args.v)
    return {
        "tuple": list(H.shifts),
        "V": args.v,
        "P": classes.modulus,
        "count": len(classes),
        "product_formula": tc.regular_class_count(H, args.v),
        "members_head": classes.members[:20].tolist(),
    }


def _cmd_singular(args) -> dict:
    H = args.shifts
    if args.action == "value":
        if args.h0 is not None:
            sv = singular.singular_series_extended(H, args.h0, args.cutoff)
        else:
            sv = singular.singular_series(H, args.cutoff)
        return {
            "tuple": list(H.shifts),
            "h0": getattr(args, "h0", None),
            "mid": sv.mid,
            "rad": sv.rad,
            "cutoff": sv.cutoff,
        }
    if args.action == "average":
        B, rad = singular.average_B(H, args.k, args.cutoff)
        return {
            "tuple": list(H.shifts),
            "k": args.k,
            "B": B,
            "B_radius": rad,
            "S_star": B / H.size**args.k,
            "cutoff": args.cutoff,
        }
    if args.action == "monotone":
        rep = singular.check_monotone(H, args.kmax, args.cutoff, args.floor)
        rep["tuple"] = list(H.shifts)
        return rep
    r = singular.quasiprime_density(H, args.z)
    return {
        "tuple": list(H.shifts),
        "z": args.z,
        "density": str(r),
        "density_float": float(r),
    }


def _cmd_gpy(args) -> dict:
    if args.action == "lambda":
        val = weights.lambda_R(args.n, args.shifts, args.ell, args.r)
        return {
            "n": args.n,
            "tuple": list(args.shifts.shifts),
            "ell": args.ell,
            "R": args.r,
            "lambda": val,
            "polynomial": str(weights.polynomial_value(args.n, args.shifts)),
        }
    if args.action == "detector":
        params = weights.WeightParams(K=args.k, ell=args.ell, R=_level(args), V=args.v, N=args.n)
        return weights.detector_sum(args.shifts, params)

    mp = _pair_params(args)
    H1, H2, ell2 = mp.H1, mp.H2, mp.ell2
    params = weights.WeightParams(
        K=max(H1.size, H2.size), ell=args.ell, R=mp.R, V=args.v, N=args.n
    )
    base = {
        "h1": list(H1.shifts),
        "h2": list(H2.shifts),
        "ell1": args.ell,
        "ell2": ell2,
        "N": args.n,
        "R": mp.R,
        "V": args.v,
    }
    if args.action == "moment1":
        if args.per_class is not None and args.strategy != "direct":
            raise DomainError(
                "--per-class needs --strategy direct: the divisor route sums every class"
            )
        if args.strategy in ("direct", "both"):
            base["direct"] = weights.pair_sum_direct(
                H1, H2, args.ell, ell2, params, args.per_class
            )
        if args.strategy in ("divisor", "both"):
            base["divisor"] = weights.pair_sum_divisor(H1, H2, args.ell, ell2, params)
        emp = base.get("direct", base.get("divisor"))
        pred = oracle.main_term_t4(
            mp, scope="per_class" if args.per_class is not None else "aggregate"
        )
    else:
        base["h0"] = args.h0
        emp = base["empirical"] = weights.pair_sum_theta(
            H1, H2, args.ell, ell2, args.h0, params, args.per_class
        )
        pred = oracle.main_term_t5(mp)
    base["predicted"] = pred
    base["comparison"] = oracle.compare(
        emp, pred["density_adjusted_mid"], pred["density_adjusted_rad"]
    )
    return base


def _cmd_combi(args) -> dict:
    if args.action == "lemma2":
        checked, bad = combinat.Z_identity_scan(args.max)
        violations = [{"d": d, "u": u, "y": y} for d, u, y in bad]
        return {
            "check": "lemma2",
            "grid": {"max": args.max},
            "checked": checked,
            "violations": violations,
            "max_ratio": "1" if not violations else "divergent",
        }
    if args.action == "coeffs":
        ratio = combinat.coeff_ratio_check(args.d, args.u, args.v)
        ratio["identity_grid_max"] = args.max
        ratio["identity_mismatches"] = combinat.coeff_identity_scan(args.max)
        return ratio
    return combinat.divisor_mean_check(args.x, args.m)


def _cmd_oracle(args) -> dict:
    if args.action == "g00":
        val = oracle.g00(args.shifts, args.v, args.cutoff)
        return {
            "tuple": list(args.shifts.shifts),
            "V": args.v,
            "mid": val.mid,
            "rad": val.rad,
            "cutoff": val.cutoff,
        }
    if args.action == "wscan":
        rep = oracle.verify_w_bounds(args.tmax, args.step)
        if args.t is not None:
            w = oracle.w_function(args.t)
            rep["w"] = {"t": args.t, "re": w.real, "im": w.imag, "abs": abs(w)}
        return rep
    if args.action == "jprod":
        return {"t": args.t, "X": args.x, "J": oracle.j_product(args.t, args.x)}
    p = _pair_params(args)
    if args.action == "t4":
        pred = oracle.main_term_t4(p, args.scope)
        out = {"params": {"N": args.n, "R": p.R, "V": args.v, "scope": args.scope}}
        out.update(pred)
        if args.empirical is not None:
            out["comparison"] = oracle.compare(args.empirical, pred["mid"], pred["rad"])
        return out
    pred = oracle.main_term_t5(p)
    pred["params"] = {"N": args.n, "R": p.R, "V": args.v, "h0": args.h0}
    return pred


def _cmd_bv(args) -> dict:
    use_estar = False
    if args.action == "classic":
        M, run = 1, bv_mod.bv_sum
    elif args.action == "restricted":
        M, run = tc.primorial(args.v), bv_mod.bv_sum_restricted
    else:
        M, run, use_estar = args.m, bv_mod.estar_aggregate, not args.endpoint_only
    s = run(bv_mod.BVConfig(N=args.n, Q=args.qmax, M=M, use_estar=use_estar))
    return {"N": args.n, "Q": args.qmax, "M": M, "sum": s, "normalized": s / args.n}


def _cmd_seq(args) -> dict:
    exps = None
    if args.exponents:
        exps = [int(x) for x in args.exponents.split(",")]
    values = sequences.generate_sequence(args.kind, args.n, args.k, args.h, exps)
    out = {
        "kind": args.kind,
        "N": args.n,
        "count": len(values),
        "density_threshold": sequences.density_threshold(max(args.n, 16)),
        "values_head": values[:20],
    }
    if not values:
        out["warning"] = "empty sequence for the given bounds"
    elif args.out:
        tc.write_tuple_file(args.out, [sequences.as_tuple(values)],
                            header=f"{args.kind} N={args.n} k={args.k}")
        out["file"] = args.out
    return out


def _cmd_verify(args) -> dict:
    bad = len(combinat.Z_identity_scan(10 if args.fast else 25)[1])
    checks = {"lemma2_violations": bad, "coeff_ratio": combinat.coeff_ratio_check(3, 4, 4)}
    rng = random.Random(args.seed)
    mismatch = 0
    for _ in range(20 if args.fast else 100):
        size = rng.randint(1, 4)
        H = tc.TupleH(tuple(rng.sample(range(0, 30), size)))
        V = rng.choice([3, 5, 7, 11, 13])
        if len(tc.regular_classes(H, V)) != tc.regular_class_count(H, V):
            mismatch += 1
    checks["regular_count_mismatches"] = mismatch
    checks["divisor_mean"] = combinat.divisor_mean_check(10**4, 3)["holds"]
    checks["ok"] = (
        bad == 0
        and mismatch == 0
        and not checks["coeff_ratio"]["violations"]
        and checks["divisor_mean"]
    )
    return checks


_HANDLERS = {
    "primes": _cmd_primes,
    "tuple": _cmd_tuple,
    "singular": _cmd_singular,
    "gpy": _cmd_gpy,
    "combi": _cmd_combi,
    "oracle": _cmd_oracle,
    "bv": _cmd_bv,
    "seq": _cmd_seq,
    "verify": _cmd_verify,
}


def _envelope(args, payload: dict, runtime: float) -> dict:
    """Run metadata around a handler's payload; payload keys win on a clash."""
    experiment = args.command + (f" {args.action}" if getattr(args, "action", None) else "")
    out = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "params": {},
        "empirical": None,
        "predicted_mid": None,
        "predicted_rad": None,
        "seed": args.seed,
        "version": __version__,
    }
    if not args.stable:
        out["runtime_seconds"] = runtime
    out.update(payload)
    return out


def _emit(payload: dict, args) -> None:
    # `seq generate --out F` writes its tuple file to F; the report then goes
    # to standard output in either format.
    out = args.out if args.out and payload.get("file") != args.out else None
    dest = contextlib.nullcontext(sys.stdout)
    if out:
        dest = open(out, "w", newline="", encoding="utf-8")
    with dest as fh:
        if args.format == "csv":
            rows = sorted((k, v) for k, v in payload.items() if not isinstance(v, (dict, list)))
            w = csv.writer(fh)
            w.writerow(("key", "value"))
            w.writerows(rows)
        else:
            fh.write(json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    start = time.monotonic()
    try:
        payload = _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    _emit(_envelope(args, payload, time.monotonic() - start), args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

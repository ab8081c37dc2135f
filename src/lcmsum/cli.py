"""Command-line interface.

Each subcommand declares exactly the flags it reads, so argparse rejects
any other flag with exit status 2.  All take `--out FILE` and all but
`verify` take `--k`.  `--budget` limits tuple evaluations for `brute`,
search nodes for `gwise` and wall seconds for `verify` (the battery of
`lcmsum.checks`); no other subcommand takes it, and a negative budget, like
a negative `--digits` or one past `MAX_DIGITS`, is rejected at parse time.

Every computational subcommand prints byte-identical output for fixed
flags.  The one documented exception is the runtime_ms field of `verify`
report rows, which records wall time.  All computations run
sequentially.

Exit status: 0 success, 1 verification failures, 2 usage error (also an
`--out` path that cannot be written; a directory or a missing or
read-only parent is refused before computing), 3 resource budget
exceeded (partial report emitted).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from .checks import FIELDS, run_checks
from .coprimality import (build_coprimality_graph, graph_dump,
                          independent_set_counts, local_factor_poly,
                          stirling_ism_counts)
from .errors import ResourceLimitError
from .eulerprod import euler_product, series_identity_mismatch
from .exactmath import BoundedReal
from .oracle import (GWISE_NODE_BUDGET, TUPLE_BUDGET, brute_sums,
                     convergence_report, gwise_sum_with_count,
                     lcm_multiplicity_table, leading_constants, theta_exponents)
from .polytope import KINDS, build_polytope, export_ieqs, volume_of

DEFAULT_DIGITS = 10

#: `--digits` past this exits 2 before any computing.  Rendering costs
#: about digits**1.9; `constants`, which renders eight numbers, takes about
#: 13 s at the cap on a 2-core host (notes/decisions.md)
MAX_DIGITS = 3 * 10**5


def fraction_decimal(f: Fraction, digits: int) -> str:
    """Exact decimal rendering of a rational, rounded to `digits` places."""
    n = math.floor(f * 10**digits + Fraction(1, 2))  # halves round up
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**digits)
    return f"{sign}{whole}" + (f".{frac:0{digits}d}" if digits else "")


def fmt_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fmt_bounded(b: BoundedReal, digits: int) -> str:
    return (f"{fraction_decimal(b.value, digits)} "
            f"+- {fraction_decimal(b.abs_error, digits + 4)}")


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# Subcommands: each returns (text to emit, exit status).

def cmd_graph(args):
    return graph_dump(build_coprimality_graph(args.k)), 0


def cmd_qpoly(args):
    coeffs = local_factor_poly(build_coprimality_graph(args.k))
    return "coeffs=" + ",".join(str(c) for c in coeffs) + "\n", 0


def cmd_ism(args):
    enum = independent_set_counts(build_coprimality_graph(args.k))
    stir = stirling_ism_counts(args.k)
    return (f"enumerated={','.join(map(str, enum))}\n"
            f"stirling={','.join(map(str, stir))}\n"
            f"agree={'yes' if enum == stir else 'no'}\n"), 0 if enum == stir else 1


def cmd_volume(args):
    return fmt_rational(volume_of(args.kind, args.k)) + "\n", 0


def cmd_export_ieqs(args):
    return export_ieqs(build_polytope(args.kind, args.k)), 0


def cmd_rho(args):
    res = euler_product(local_factor_poly(build_coprimality_graph(args.k)))
    return (
        f"value={fraction_decimal(res.value.value, args.digits)}\n"
        f"abs_error={fraction_decimal(res.value.abs_error, args.digits + 4)}\n"
        f"primes_used={res.primes_used}\n"
        f"acceleration_order={res.factorization.order}\n"
    ), 0


def cmd_constants(args):
    lc, d = leading_constants(args.k), args.digits
    lines = [f"k={args.k}", f"density={fmt_bounded(lc.density, d)}",
             f"vol_D={fmt_rational(lc.vol_d)}",
             f"vol_D_star={fmt_rational(lc.vol_d_star)}",
             f"vol_D_star2={fmt_rational(lc.vol_d_star2)}",
             f"c={fmt_bounded(lc.c, d)}", f"c2={fmt_bounded(lc.c2, d)}",
             f"c3={fmt_bounded(lc.c3, d)}"]
    if lc.theta1 is not None:
        lines += [f"theta1={lc.theta1!r}", f"theta2={lc.theta2!r}",
                  f"theta3={lc.theta3!r}"]
    else:
        lines.append("theta=n/a (power-saving exponents are stated for k >= 3;"
                     " the k=2 error term is of a different shape)")
    return "\n".join(lines) + "\n", 0


def cmd_theta(args):
    if args.k == 2:
        return ("k=2: no power-saving exponent is reported; the k=2 error term"
                " is of a different shape\n"), 0
    t1, t2, t3 = theta_exponents(args.k)
    return f"theta1={t1!r}\ntheta2={t2!r}\ntheta3={t3!r}\n", 0


def cmd_brute(args):
    b = brute_sums(args.k, args.x, args.budget)
    return (
        f"recip_lcm_sum={fmt_rational(b.recip)}\n"
        f"recip_lcm_sum_coprime={fmt_rational(b.recip_coprime)}\n"
        f"prod_over_lcm_sum={fmt_rational(b.prod_over_lcm)}\n"
        f"tuples={b.tuples} coprime_tuples={b.coprime_tuples}\n"
    ), 0


def cmd_gwise(args):
    (plain, leaves), (pinned, pinned_leaves) = (
        gwise_sum_with_count(args.k, args.x, fix, args.budget)
        for fix in (False, True))
    return (
        f"constrained_sum={fmt_rational(plain)}\n"
        f"constrained_sum_gcd1={fmt_rational(pinned)}\n"
        f"tuples={leaves} gcd1_tuples={pinned_leaves}\n"
    ), 0


def cmd_alpha(args):
    alphas, total = lcm_multiplicity_table(args.k, args.x)
    lines = [f"alpha({args.k},{n})={a}" for n, a in enumerate(alphas, start=1)]
    lines.append(f"alpha_sum={fmt_rational(total)}")
    lines.append(f"tuples_with_lcm_le_x={sum(alphas)}")
    return "\n".join(lines) + "\n", 0


def cmd_identity(args):
    ok = series_identity_mismatch(args.k, args.x) is None
    return (f"series_identity(k={args.k},N={args.x})="
            f"{'pass' if ok else 'FAIL'}\n"), 0 if ok else 1


def cmd_report(args):
    header = ["x", "sum", "sum_over_logpow", "c", "ratio_to_c", "flagged"]
    table = [[
        str(r.x),
        fmt_rational(r.sum_value),
        "" if r.log_power_ratio is None else f"{r.log_power_ratio:.6f}",
        f"{r.c_value:.6f}",
        "" if r.ratio_to_c is None else f"{r.ratio_to_c:.6f}",
        "yes" if r.flagged else "no",
    ] for r in convergence_report(args.k, args.x)]
    if args.format == "csv":
        return _csv(header, table), 0
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(header)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [header, *table]]
    return "\n".join(lines) + "\n", 0


def cmd_verify(args):
    rows, exceeded = run_checks(args.budget)
    statuses = [row[1] for row in rows]
    n_pass, n_fail = statuses.count("pass"), statuses.count("fail")
    if args.format == "json":
        text = json.dumps([dict(zip(FIELDS, row)) for row in rows], indent=2) + "\n"
    elif args.format == "csv":
        text = _csv(FIELDS, rows)
    else:
        lines = []
        for name, status, expected, actual, _, ms in rows:
            lines.append(f"[{status.upper():4s}] {name} ({ms} ms)")
            if status == "fail":
                lines += [f"    expected: {expected}", f"    actual:   {actual}"]
        lines.append(f"{n_pass} passed, {n_fail} failed, "
                     f"{len(rows) - n_pass - n_fail} skipped")
        text = "\n".join(lines) + "\n"
    return text, 3 if exceeded else (1 if n_fail else 0)


# Parser: each subcommand declares exactly the flags its cmd_* reads.

def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _digits(text: str) -> int:
    n = _non_negative(text)
    if n > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DIGITS}, got {n}")
    return n


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


K = {"--k": dict(type=int, default=3)}
KIND = {"--kind": dict(choices=KINDS, default="D")}
DIGITS = {"--digits": dict(type=_digits, default=DEFAULT_DIGITS)}
X10 = {"--x": dict(type=int, default=10)}

#: subcommand -> (handler, {flag: add_argument keywords}); all take --out
COMMANDS = {
    "graph": (cmd_graph, K),
    "qpoly": (cmd_qpoly, K),
    "ism": (cmd_ism, K),
    "volume": (cmd_volume, K | KIND),
    "export-ieqs": (cmd_export_ieqs, K | KIND),
    "rho": (cmd_rho, K | DIGITS),
    "constants": (cmd_constants, K | DIGITS),
    "theta": (cmd_theta, K),
    "brute": (cmd_brute, K | X10 | {"--budget": dict(
        type=_non_negative, default=TUPLE_BUDGET,
        help="limit in tuple evaluations")}),
    "gwise": (cmd_gwise, K | X10 | {"--budget": dict(
        type=_non_negative, default=GWISE_NODE_BUDGET,
        help="limit in search nodes")}),
    "alpha": (cmd_alpha, K | X10),
    "identity": (cmd_identity, K | {"--x": dict(type=int, default=30,
                                                help="series truncation degree")}),
    "verify": (cmd_verify, {"--format": dict(choices=("text", "csv", "json"),
                                             default="text"),
                            "--budget": dict(type=_non_negative,
                                             help="limit in wall seconds"),
                            "--suite": dict(choices=("all",), default="all")}),
    "report": (cmd_report, K | {"--x": dict(type=_int_list, default="10,100,1000"),
                                "--format": dict(choices=("text", "csv"), default="text")}),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lcmsum",
        description="exact constants of reciprocal-lcm sums: graphs, volumes,"
                    " Euler products, oracles, and a verification battery",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, spec in flags.items():
            sp.add_argument(flag, **spec)
        sp.add_argument("--out", default=None,
                        help="write to this file instead of stdout")
        sp.set_defaults(fn=fn)
    return p


def _unwritable(path: str) -> str | None:
    """Why `--out path` cannot be written, judged without creating it, or
    None: a directory, or a parent that is not an existing writable one."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    if not os.path.isdir(parent):
        return f"no directory {parent!r}"
    if not os.access(parent, os.W_OK):
        return f"directory {parent!r} is not writable"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # refuse an --out that cannot be written before computing; the write
    # below still reports what this check cannot see (say, a read-only file)
    reason = args.out and _unwritable(args.out)
    if reason:
        print(f"error: cannot write --out: {reason}", file=sys.stderr)
        return 2
    # exact sums print every digit (S2(10**4) has about 17,000); lift the
    # int-to-str guard (absent before Python 3.10.7) for this command only,
    # so library callers keep it
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits_limit:
        sys.set_int_max_str_digits(0)
    try:
        text, code = args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits_limit:
            sys.set_int_max_str_digits(digits_limit)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: riley / torsion / surgery / verify.

Complex numbers are passed as "re,im" pairs.  Exit codes: 0 success,
1 usage or parse error (including verify --samples above
MAX_VERIFY_SAMPLES), 2 invalid mathematical input (including a
non-finite value, an overflow, or a surgery slope whose Chebyshev
degree max(4|q|, |p|) exceeds `surgery.MAX_SURGERY_DEGREE`, which
`solve_surgery` refuses), 3 verification failure.
A subcommand accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from .errors import Fig8Error
from .riley import complex_csv, solve_t
from .surgery import SurgerySlope, solve_surgery, table_to_csv, table_to_json
from .formulas import REPORT_CSV_HEADER, full_report
from .verify import results_to_csv, run_all

EXIT_OK, EXIT_USAGE, EXIT_MATH, EXIT_VERIFY = 0, 1, 2, 3
# peak RSS grows by ~2.1 KB per verify sample: a fresh `verify --samples
# 20000` process takes ~0.35 s and ~74 MB, ~0.27 s and ~39 MB at the
# default 200 (2-core Xeon, numpy 2.4.6); the parser refuses more
MAX_VERIFY_SAMPLES = 20_000
RILEY_CSV_HEADER = "s_re,s_im,t_re,t_im,branch,residual"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value with a negative real part, as in --s -1,0 or --s -inf,0,
        # is a value and not an option: argparse's own pattern has no comma,
        # and no spelling of inf or nan that float() accepts
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)
        self._inputs = []

    def parse_known_args(self, args=None, namespace=None):
        self._inputs = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        # argparse quotes or lists an input, or the value after its
        # option's name ("--format=v", "-hv"), as it is or as its repr:
        # clip each, the longest first
        forms = {form for text in self._inputs
                 for part in (text, text[2:], text.partition("=")[2])
                 for form in (part, repr(part)[1:-1])}
        for form in sorted(forms, key=len, reverse=True):
            message = message.replace(form, _clip(form))
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 're,im' pair, got {_clip(text)!r}") from exc


def _clip(text: str) -> str:
    """text, or its first 17 characters and "..." if it is longer than 20:
    the most of an input that an error line quotes."""
    return text if len(text) <= 20 else text[:17] + "..."


def parse_int(text: str) -> int:
    # int() refuses a decimal string of more than 4300 digits too
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_clip(text)!r}") from None


def parse_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {_clip(text)!r}")
    return parse_int(text)


def parse_samples(text: str) -> int:
    count = parse_count(text)
    if count > MAX_VERIFY_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_VERIFY_SAMPLES} samples, got {_clip(text)}")
    return count


def _fmt_cx(z: complex) -> str:
    # adding 0.0 turns -0.0 into 0.0: a zero part prints as 0 or +0
    return f"{z.real + 0.0:.12g}{z.imag + 0.0:+.12g}i"


def cmd_riley(ns) -> int:
    points = solve_t(ns.s)
    if ns.format == "json":
        print(json.dumps([pt.to_json() for pt in points]))
    elif ns.format == "csv":
        print(RILEY_CSV_HEADER)
        for pt in points:
            print(f"{complex_csv(pt.s)},{complex_csv(pt.t)},{pt.branch},"
                  f"{pt.residual:.17g}")
    else:
        for pt in points:
            print(f"branch {pt.branch}: t = {_fmt_cx(pt.t)}   "
                  f"|R12| = {pt.residual:.3e}")
    return EXIT_OK


def cmd_torsion(ns) -> int:
    plus, minus = solve_t(ns.s)
    pt = plus if ns.branch == "+" else minus
    rep = full_report(pt)
    if ns.format == "json":
        print(json.dumps(rep.to_json()))
        return EXIT_OK
    if ns.format == "csv":
        print(REPORT_CSV_HEADER, rep.to_csv_row(), sep="\n")
        return EXIT_OK
    print(f"point: s = {_fmt_cx(pt.s)}, t = {_fmt_cx(pt.t)} "
          f"(branch {pt.branch}), u = {_fmt_cx(rep.u)}")
    print(f"tau(exterior), closed form : {_fmt_cx(rep.tau_exterior_closed)}")
    oracle = rep.tau_exterior_oracle
    print("tau(exterior), Fox oracle  : "
          + (f"{_fmt_cx(oracle.value)} (up to sign)" if oracle else "n/a"))
    print("tau(solid torus), trace    : "
          + (_fmt_cx(rep.tau_solid_trace) if rep.tau_solid_trace is not None
             else "n/a"))
    print("tau(solid torus), u form   : "
          + (_fmt_cx(rep.tau_solid_closed) if rep.tau_solid_closed is not None
             else "n/a"))
    # the paper's form, exact for the 1/n slopes only (see --help)
    if "degenerate" in rep.annotations:
        print("tau(M) (1/n form)          : omitted "
              "(degenerate, u^2(u^2 - 5) ~ 0)")
    elif "non-acyclic" in rep.annotations:
        print("tau(M) (1/n form)          : 0 (non-acyclic convention)")
    else:
        print(f"tau(M) (1/n form)          : {_fmt_cx(rep.tau_surgered)}")
    for name, state in sorted(rep.flags.items()):
        print(f"  check {name}: {state}")
    if rep.annotations:
        print("  annotations: " + ", ".join(rep.annotations))
    return EXIT_OK


def cmd_surgery(ns) -> int:
    slope = SurgerySlope(ns.p, ns.q)
    rows = solve_surgery(slope)
    if ns.format == "json":
        print(table_to_json(rows))
    elif ns.format == "csv":
        print(table_to_csv(rows), end="")
    else:
        print(f"slope {slope.p}/{slope.q}: {len(rows)} solution(s)")
        print(table_to_csv(rows), end="")
    return EXIT_OK


def cmd_verify(ns) -> int:
    results = run_all(samples=ns.samples, seed=ns.seed)
    n_fail = sum(not r.passed for r in results)
    if ns.format == "json":
        print(json.dumps({"checks": [dataclasses.asdict(r) for r in results]}))
    elif ns.format == "csv":
        print(results_to_csv(results), end="")
    else:
        for res in results:
            print(res.line())
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fig8torsion",
                     description="Reidemeister torsion of surgeries on the "
                                 "figure-eight knot")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    formats = ["json", "csv", "pretty"]

    sub = subs.add_parser("riley", help="solve the variety over a given s")
    sub.add_argument("--s", type=parse_complex, required=True,
                     metavar="RE,IM")
    sub.add_argument("--format", choices=formats, default="pretty")
    sub.set_defaults(func=cmd_riley)

    sub = subs.add_parser(
        "torsion", help="full torsion report at a point",
        description="Full torsion report at a point s of the variety. Its "
                    "tau(M) line is the paper's form "
                    "2(u - 1)/(u^2 (u^2 - 5)), exact for the 1/n slopes "
                    "only (p = +-1).")
    sub.add_argument("--s", type=parse_complex, required=True,
                     metavar="RE,IM")
    sub.add_argument("--branch", choices=["+", "-"], default="+")
    sub.add_argument("--format", choices=formats, default="pretty")
    sub.set_defaults(func=cmd_torsion)

    sub = subs.add_parser("surgery", help="tabulate p/q surgery solutions")
    sub.add_argument("--p", type=parse_int, required=True)
    sub.add_argument("--q", type=parse_int, required=True)
    sub.add_argument("--format", choices=formats, default="pretty")
    sub.set_defaults(func=cmd_surgery)

    sub = subs.add_parser("verify", help="run the self-verification suite")
    sub.add_argument("--samples", type=parse_samples, default=200)
    sub.add_argument("--format", choices=formats, default="pretty")
    sub.add_argument("--seed", type=parse_count, default=0)
    sub.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (Fig8Error, OverflowError) as exc:
        # a number of more than 20 digits, as a slope's p, is clipped
        message = re.sub(r"\d{21,}", lambda m: _clip(m[0]), str(exc))
        overflow = "" if isinstance(exc, Fig8Error) else "numeric overflow: "
        print(f"error: {overflow}{message}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

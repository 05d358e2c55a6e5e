"""Command-line surface: riley / torsion / surgery / verify.

Complex numbers are passed as "re,im" pairs.  Exit codes: 0 success,
1 usage or parse error, 2 invalid mathematical input (including a
non-finite value or an overflow), 3 verification failure.  Tolerances,
the output format and the verify seed can be set by flags or an
optional JSON config file; flags win.  A subcommand accepts only the
flags it reads, and --config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .errors import Fig8Error
from .riley import solve_t
from .surgery import (CSV_HEADER, SurgerySlope, solve_surgery, table_to_csv,
                      table_to_json)
from .formulas import full_report
from .verify import run_all

EXIT_OK, EXIT_USAGE, EXIT_MATH, EXIT_VERIFY = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    tol_variety: float = 1e-10
    tol_compare: float = 1e-8
    fmt: str = "pretty"
    seed: int = 0


def parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 're,im' pair, got {text!r}") from exc


def _load_config(ns) -> RunConfig:
    cfg = RunConfig()
    if ns.config:
        with open(ns.config) as fh:
            data = json.load(fh)
        for key in ("tol_variety", "tol_compare"):
            if key in data:
                setattr(cfg, key, float(data[key]))
        if "format" in data:
            cfg.fmt = data["format"]
        if "seed" in data:
            cfg.seed = int(data["seed"])
    for attr, flag in (("tol_variety", "tol_variety"),
                       ("tol_compare", "tol_compare"),
                       ("seed", "seed")):
        val = getattr(ns, flag, None)
        if val is not None:
            setattr(cfg, attr, val)
    if getattr(ns, "format", None):
        cfg.fmt = ns.format
    return cfg


_FLAGS = {"format": {"choices": ["json", "csv", "pretty"]},
          "tol-variety": {"type": float},
          "tol-compare": {"type": float},
          "seed": {"type": int}}


def _add_flags(sub, *names):
    """The named flags, which the subcommand reads, and --config."""
    for name in names:
        sub.add_argument(f"--{name}", **_FLAGS[name])
    sub.add_argument("--config", help="JSON config file (flags win)")


def _fmt_cx(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def cmd_riley(ns) -> int:
    cfg = _load_config(ns)
    points = solve_t(ns.s)
    if cfg.fmt == "json":
        print(json.dumps([pt.to_json() for pt in points], indent=2))
    else:
        for pt in points:
            print(f"branch {pt.branch}: t = {_fmt_cx(pt.t)}   "
                  f"|R12| = {pt.residual:.3e}")
    return EXIT_OK


def cmd_torsion(ns) -> int:
    cfg = _load_config(ns)
    plus, minus = solve_t(ns.s)
    pt = plus if ns.branch == "+" else minus
    rep = full_report(pt, compare_tol=cfg.tol_compare)
    if cfg.fmt == "json":
        print(json.dumps(rep.to_json(), indent=2))
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
    if "degenerate" in rep.annotations:
        print("tau(M)                     : omitted (degenerate, u^2 ~ 5)")
    elif "non-acyclic" in rep.annotations:
        print("tau(M)                     : 0 (non-acyclic convention)")
    else:
        print(f"tau(M)                     : {_fmt_cx(rep.tau_surgered)}")
    for name, state in sorted(rep.flags.items()):
        print(f"  check {name}: {state}")
    if rep.annotations:
        print("  annotations: " + ", ".join(rep.annotations))
    return EXIT_OK


def cmd_surgery(ns) -> int:
    cfg = _load_config(ns)
    slope = SurgerySlope(ns.p, ns.q)
    rows = solve_surgery(slope, tol=cfg.tol_variety)
    if cfg.fmt == "json":
        print(table_to_json(rows))
    elif cfg.fmt == "csv":
        print(table_to_csv(rows), end="")
    else:
        print(f"slope {ns.p}/{ns.q}: {len(rows)} solution(s)")
        print(CSV_HEADER)
        for row in rows:
            print(row.to_csv_row())
    return EXIT_OK


def cmd_verify(ns) -> int:
    cfg = _load_config(ns)
    results = run_all(samples=ns.samples, seed=cfg.seed)
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fig8torsion",
                     description="Reidemeister torsion of surgeries on the "
                                 "figure-eight knot")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("riley", help="solve the variety over a given s")
    sub.add_argument("--s", type=parse_complex, required=True,
                     metavar="RE,IM")
    _add_flags(sub, "format")
    sub.set_defaults(func=cmd_riley)

    sub = subs.add_parser("torsion", help="full torsion report at a point")
    sub.add_argument("--s", type=parse_complex, required=True,
                     metavar="RE,IM")
    sub.add_argument("--branch", choices=["+", "-"], default="+")
    _add_flags(sub, "format", "tol-compare")
    sub.set_defaults(func=cmd_torsion)

    sub = subs.add_parser("surgery", help="tabulate p/q surgery solutions")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    _add_flags(sub, "format", "tol-variety")
    sub.set_defaults(func=cmd_surgery)

    sub = subs.add_parser("verify", help="run the self-verification suite")
    sub.add_argument("--samples", type=int, default=200)
    _add_flags(sub, "seed")
    sub.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except Fig8Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

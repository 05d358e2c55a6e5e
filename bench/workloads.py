"""Workload inputs, operations and output checks for the benchmark.

Inputs come only from the workload seed (stdlib `random`), so one seed
always gives the same inputs; the library sees only the generated
values.  Every operation goes through a module attribute
(`riley.solve_t`, not a name imported into this file), so the tracer's
wrappers see the calls the benchmark makes.

An op ends in one of three states:

* OK     - the output passed every check;
* FAILED - the op raised, or the library reported a failure itself
           (a report flag "fail", a verify check that did not pass);
* WRONG  - the library returned an output as good, and the benchmark's
           own check found it wrong (a surgery row off the variety or
           off the relation, two rows for one character).

FAILED and WRONG both count as failed ops; only WRONG makes a run
incorrect.
"""

from __future__ import annotations

import cmath
import json
import math
import random

from fig8torsion import formulas, riley, surgery, verify

OK, FAILED, WRONG = "ok", "failed", "wrong"

RESIDUAL_TOL = 1e-9    # matrix relation and variety residual of a row
DISTINCT_RTOL = 1e-6   # two rows closer than this are one character

# point_reports
POINT_LIST = 2000
NEAR_SHARE = 0.1
NEAR_DIST = (1e-8, 1e-3)
PHI = (1 + math.sqrt(5)) / 2
# s values on each locus: u^2 = 5 is s = +-phi^{+-1}, u = 1 is
# s = e^{+-i pi/3}, u = 0 is s = +-i
LOCI = ((PHI, -PHI, 1 / PHI, -1 / PHI),
        (1.0, -1.0),
        (cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)),
        (1j, -1j))

# surgery_slopes: every small slope, plus two large ones per q
SMALL_P, SMALL_Q = 6, 4
LARGE_P, LARGE_Q = 40, 16

# verify_sweep
VERIFY_SAMPLES = 200
VERIFY_SEEDS = 64


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _is_small(p: int, q: int) -> bool:
    return abs(p) <= SMALL_P and q <= SMALL_Q


class PointReports:
    """solve_t(s) then full_report on one branch: the `torsion`
    subcommand.  About 90% of the s values are generic (|s| log-uniform
    in [0.3, 3], uniform angle); the rest sit 1e-8 to 1e-3 from the loci
    u^2 = 5, s = +-1, u = 1 and u = 0, where the NotAcyclic and
    degenerate paths run.  Branches alternate."""

    name = "point_reports"
    params = {"points": POINT_LIST, "near_share": NEAR_SHARE,
              "near_dist": list(NEAR_DIST), "generic_abs_s": [0.3, 3.0]}

    def inputs(self, seed: int) -> list[tuple[complex, int]]:
        rng = random.Random(seed)
        out = []
        for i in range(POINT_LIST):
            if rng.random() < NEAR_SHARE:
                s0 = rng.choice(rng.choice(LOCI))
                s = s0 + _log_uniform(rng, *NEAR_DIST) * cmath.exp(
                    1j * rng.uniform(0, 2 * math.pi))
            else:
                s = _log_uniform(rng, 0.3, 3.0) * cmath.exp(
                    1j * rng.uniform(0, 2 * math.pi))
            out.append((s, i % 2))
        return out

    def pass_ops(self, inputs) -> int:
        return len(inputs)

    def op(self, item):
        s, branch = item
        pt = riley.solve_t(s)[branch]
        return pt, formulas.full_report(pt)

    def check(self, item, out) -> tuple[str, int]:
        """(state, verified characters): a point is one verified
        character when every flag of its report is "pass"."""
        pt, rep = out
        scale = max(1.0, abs(pt.s) ** 2, abs(pt.t) ** 2)
        if abs(riley.riley_poly(pt.s, pt.t)) > RESIDUAL_TOL * scale:
            return WRONG, 0
        if "fail" in rep.flags.values():
            return FAILED, 0
        return OK, int(all(v == "pass" for v in rep.flags.values()))


class SurgerySlopes:
    """solve_surgery(SurgerySlope(p, q)) then table_to_json: the
    `surgery` subcommand.  The list holds every coprime slope with
    |p| <= 6, 1 <= q <= 4 (33 slopes) and, for each q in 1..16, one large
    slope with 1 <= |p| <= 20 and one with 21 <= |p| <= 40 (32 slopes),
    in a seeded order."""

    name = "surgery_slopes"
    params = {"small": f"|p|<={SMALL_P}, 1<=q<={SMALL_Q}, all",
              "large": f"|p|<={LARGE_P}, q<={LARGE_Q}, 2 per q"}

    def inputs(self, seed: int) -> list[tuple[int, int]]:
        rng = random.Random(seed)
        slopes = [(p, q) for q in range(1, SMALL_Q + 1)
                  for p in range(-SMALL_P, SMALL_P + 1) if math.gcd(p, q) == 1]
        for q in range(1, LARGE_Q + 1):
            for lo, hi in ((1, LARGE_P // 2), (LARGE_P // 2 + 1, LARGE_P)):
                pool = [p for p in range(lo, hi + 1)
                        if math.gcd(p, q) == 1 and not _is_small(p, q)]
                slopes.append((rng.choice(pool) * rng.choice((1, -1)), q))
        rng.shuffle(slopes)
        return slopes

    def pass_ops(self, inputs) -> int:
        return len(inputs)

    def op(self, item):
        rows = surgery.solve_surgery(surgery.SurgerySlope(*item))
        return rows, surgery.table_to_json(rows)

    def check(self, item, out) -> tuple[str, int]:
        rows, text = out
        slope = surgery.SurgerySlope(*item)
        if len(json.loads(text)) != len(rows):
            return WRONG, 0
        for k, row in enumerate(rows):
            s, t = row.point.s, row.point.t
            scale = max(1.0, abs(s) ** 2, abs(t) ** 2)
            if abs(riley.riley_poly(s, t)) > RESIDUAL_TOL * scale:
                return WRONG, 0
            if surgery.surgery_residual(row.point, slope)[1] > RESIDUAL_TOL:
                return WRONG, 0
            for other in rows[:k]:
                if (abs(row.u - other.u)
                        <= DISTINCT_RTOL * max(1.0, abs(other.u))
                        and abs(row.trace_l - other.trace_l)
                        <= DISTINCT_RTOL * max(1.0, abs(other.trace_l))):
                    return WRONG, 0
        return OK, len(rows)


class VerifySweep:
    """run_all(samples=200, seed=k): the `verify` subcommand, with the k
    drawn from the workload seed.  The characters of an op are the rows
    its surgery check gets back from solve_surgery; to count them, the
    constructor replaces verify's binding of solve_surgery by a counting
    shim."""

    name = "verify_sweep"
    params = {"samples": VERIFY_SAMPLES, "op_seeds": VERIFY_SEEDS}

    def __init__(self):
        self.rows_seen = 0
        solve = surgery.solve_surgery

        def counting_solve_surgery(*args, **kwargs):
            # looked up at call time, so a traced wrapper is seen
            rows = surgery.solve_surgery(*args, **kwargs)
            self.rows_seen += len(rows)
            return rows

        if verify.solve_surgery is solve:
            verify.solve_surgery = counting_solve_surgery

    def inputs(self, seed: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.randrange(2 ** 31) for _ in range(VERIFY_SEEDS)]

    def pass_ops(self, inputs) -> int:
        # every op walks the same fixed slopes of the surgery check
        return 1

    def op(self, item):
        before = self.rows_seen
        results = verify.run_all(samples=VERIFY_SAMPLES, seed=item)
        return results, self.rows_seen - before

    def check(self, item, out) -> tuple[str, int]:
        results, rows = out
        if not all(r.passed for r in results):
            return FAILED, 0
        return OK, rows


WORKLOADS = {w.name: w for w in (PointReports, SurgerySlopes, VerifySweep)}

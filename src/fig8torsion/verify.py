"""Self-verification: every closed formula cross-checked against its
independent oracle on random variety samples plus fixed fixtures.

Each check returns a CheckResult with the worst residual seen and the
tolerance it was held to; `run_all` aggregates them deterministically
for a given (samples, seed) pair.  Variety points are arrays (s, t).
The checks over them, pairs and u make one stacked call each (N items
at once, see `formulas.torsion_exterior_oracle`), the
basis-independence check one `torsion` call and one perturbed call per
dims, on fixtures drawn as one stack per dims, and the surgery check
one `solve_surgery` call on its ten slopes and one torsion call; it
reads each row's residuals from the row, and counts each slope's rows.
The checks call the forms that the CLI prints and keep no copy of a
closed form.  The samples are stacked draws: a round draws every
missing item at once and the items a rule rejects are drawn again in
the next round; the product check gives that count in its detail, the
torus check, which draws once, how many pairs its oracle masked.
`run_all` times each check (`CheckResult.seconds`).
"""

from __future__ import annotations

import csv
import io
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainComplex, torsion, torsion_with_basis_perturbation
from .linalg import det2, mat2_inverse
from .riley import (_t_branches, longitude_l11, longitude_matrix_word,
                    solve_t, trace_l, trace_u)
from .surgery import (RELATION_TOL, SurgerySlope, polynomial_degree,
                      solve_surgery)
from .formulas import (COMPARE_TOL, degenerate, full_report,
                       torsion_exterior_closed, torsion_exterior_oracle,
                       torsion_solid_torus_closed,
                       torsion_solid_torus_from_trace, torsion_surgered,
                       torus_torsion_oracle)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    tol: float
    detail: str = ""
    # wall time of the check in `run_all`; the one field two runs of the
    # same (samples, seed) do not share
    seconds: float = field(default=0.0, compare=False)

    def __post_init__(self):
        # the checks reduce numpy arrays; keep plain Python values
        self.passed = bool(self.passed)
        self.max_residual = float(self.max_residual)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{status}] {self.name}: max residual {self.max_residual:.3e}"
                f" (tol {self.tol:.1e}){extra}")


def sample_variety_points(n: int, seed: int) -> tuple:
    """n random variety points as (n,) arrays (s, t): |s| log-uniform in
    [0.3, 3], uniform angle, excluding |2 - u| < 1e-3, and t on the "+"
    branch at even k and the "-" branch at odd k.  Each round draws the
    missing points at once and redraws the excluded ones."""
    rng = np.random.default_rng(seed)
    s = np.empty(0, dtype=complex)
    while s.size < n:
        log_r, theta = rng.uniform((math.log(0.3), 0.0),
                                   (math.log(3.0), 2 * math.pi),
                                   size=(n - s.size, 2)).T
        draw = np.exp(log_r) * np.exp(1j * theta)
        s = np.concatenate([s, draw[np.abs(2 - trace_u(draw)) >= 1e-3]])
    return s, np.where(np.arange(n) % 2 == 0, *_t_branches(s * s))


def _relerr(a, b):
    """|a - b| / max(1, |a|, |b|), for numbers or item by item for arrays."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def check_geometric_point() -> CheckResult:
    """Fixed-point chain at s = 1, "+" branch: t = (-1 + i sqrt(3))/2,
    tr rho(l) = -2, tau(exterior) = -2, tau(solid) = 1/4 both ways,
    tau(M) = -1/2 by three agreeing routes."""
    plus, _ = solve_t(1.0)
    worst = abs(plus.t - complex(-0.5, math.sqrt(3) / 2))
    worst = max(worst, plus.residual)
    trl = trace_l(plus.s, plus.t)
    worst = max(worst, abs(trl - (-2)))
    u = trace_u(plus.s)
    worst = max(worst, abs(u - 2))
    worst = max(worst, abs(torsion_exterior_closed(u) - (-2)))
    worst = max(worst, abs(torsion_solid_torus_from_trace(plus.s, plus.t)
                           - 0.25))
    worst = max(worst, abs(torsion_solid_torus_closed(u) - 0.25))
    worst = max(worst, abs(torsion_surgered(u) - (-0.5)))
    rep = full_report(plus)
    ok = worst <= 1e-10 and rep.all_pass
    return CheckResult("geometric point s=1 fixed values", ok, worst, 1e-10)


def check_exterior_oracle(s, t) -> CheckResult:
    """|Fox-calculus torsion| = |-2(u - 1)| on the variety; every point
    must be acyclic."""
    oracle = torsion_exterior_oracle(s, t)
    u = trace_u(s)[oracle.acyclic]
    err = _relerr(np.abs(oracle.value[oracle.acyclic]),
                  np.abs(torsion_exterior_closed(u)))
    worst = float(np.max(err, initial=0.0))
    masked = s.size - err.size
    return CheckResult("exterior oracle |tau| vs closed form",
                       masked == 0 and worst <= COMPARE_TOL, worst,
                       COMPARE_TOL,
                       detail=f"{s.size} points, {masked} not acyclic")


def check_trace_identity(s, t) -> CheckResult:
    """2 - tr rho(l) = u^2 (5 - u^2) on the variety, as the two forms of
    tau(solid torus) that the `torsion` report prints: 1/(2 - tr rho(l))
    from the closed-form longitude trace in (s, t), and the u-form."""
    err = _relerr(torsion_solid_torus_from_trace(s, t),
                  torsion_solid_torus_closed(trace_u(s)))
    worst = float(np.max(err, initial=0.0))
    return CheckResult("trace identity 2 - tr rho(l) = u^2(5 - u^2)",
                       worst <= COMPARE_TOL, worst, COMPARE_TOL,
                       detail=f"{s.size} points")


def check_longitude_lemma(s, t) -> CheckResult:
    """Closed-form l11 and tr rho(l) match the word product, to 1e-9 of
    its largest entry; the word's l21 vanishes, to COMPARE_TOL of it."""
    word = longitude_matrix_word(s, t)
    scale = np.maximum(1.0, np.max(np.abs(word), axis=(1, 2), initial=0.0))
    gap = np.maximum(np.abs(longitude_l11(s, t) - word[:, 0, 0]),
                     np.abs(trace_l(s, t) - np.trace(word, axis1=1, axis2=2)))
    worst_closed = float(np.max(gap / scale, initial=0.0))
    l21 = float(np.max(np.abs(word[:, 1, 0]) / scale, initial=0.0))
    tol = 1e-9
    ok = worst_closed <= tol and l21 <= COMPARE_TOL
    return CheckResult("longitude l11 and trace vs word product",
                       ok, worst_closed, tol,
                       detail=f"word l21 {l21:.2e}, tol {COMPARE_TOL:.1e}")


def random_acyclic_stacks(rng, n: int) -> list[ChainComplex]:
    """n random exact 3-term complexes, one stack per dims: split a
    random invertible change of basis P of the middle space into an
    injection and a projection.  One draw gives every fixture's dims
    (dim C_2 and dim C_0, each 1 or 2); per dims, in order of first
    appearance, one draw gives every P, a P with |det P| <= 1e-3 is
    redrawn in the next round, and one stacked inverse splits them."""
    counts = Counter(map(tuple, rng.integers(1, 3, size=(n, 2)).tolist()))
    stacks = []
    for (d2, d0), k in counts.items():
        d1 = d0 + d2
        pmat = np.empty((0, d1, d1), dtype=complex)
        while len(pmat) < k:
            draw = rng.normal(size=(k - len(pmat), d1, 2 * d1)).view(complex)
            pmat = np.concatenate(
                [pmat, draw[np.abs(np.linalg.det(draw)) > 1e-3]])
        inj = pmat[:, :, :d2]                      # boundary C2 -> C1
        proj = np.linalg.inv(pmat)[:, d2:, :]      # boundary C1 -> C0
        stacks.append(ChainComplex((d0, d1, d2), (proj, inj)))
    return stacks


def check_basis_independence(n_fixtures: int, seed: int) -> CheckResult:
    """Torsion is independent of image-basis and lift choices: the
    fixtures, one stack per dims (`random_acyclic_stacks`), each stack
    in one `torsion` call and in one perturbed call with 10 copies, so
    every fixture meets 10 random bases; an item masked by either call
    (in the perturbed one, a drawn basis short of its rank) fails the
    check."""
    rng = np.random.default_rng(seed)
    stacks = random_acyclic_stacks(rng, n_fixtures)
    worst, masked = 0.0, 0
    for stack in stacks:
        ref = torsion(stack)
        val = torsion_with_basis_perturbation(stack, rng, copies=10)
        ok = ref.acyclic & val.acyclic.reshape(10, -1)
        err = _relerr(val.value.reshape(10, -1), ref.value)[ok]
        worst = max(worst, float(np.max(err, initial=0.0)))
        masked += int(np.count_nonzero(~ok.all(axis=0)))
    return CheckResult("chain torsion basis independence",
                       masked == 0 and worst <= COMPARE_TOL, worst,
                       COMPARE_TOL,
                       detail=f"{n_fixtures} fixtures in {len(stacks)} shapes"
                              f" x 10 bases, {masked} masked")


def random_commuting_pairs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n commuting unimodular images as two (n, 2, 2) stacks: diagonal
    pairs diag(a, 1/a), diag(b, 1/b) conjugated by a random P of
    determinant 1.  An attempt reads 12 normals: a, b, then the real and
    imaginary parts of P; it is redrawn if |a| or |b| < 0.2, if both
    traces are within 0.1 of 2, or if |det P| < 0.2."""
    imga = imgb = np.empty((0, 2, 2), dtype=complex)
    while len(imga) < n:
        z = rng.normal(size=(n - len(imga), 12))
        ab = z[:, :4].view(complex)                        # (m, 2): a, b
        eig = np.stack([ab, 1 / ab], axis=-1)              # (m, 2, 2)
        pmat = (z[:, 4:8] + 1j * z[:, 8:]).reshape(-1, 2, 2)
        det = det2(pmat)
        ok = ((np.abs(ab) >= 0.2).all(axis=1)
              & ~(np.abs(eig.sum(axis=-1) - 2) < 0.1).all(axis=1)
              & (np.abs(det) >= 0.2))
        pmat = pmat[ok] / np.sqrt(det[ok])[:, None, None]
        # P diag(e) P^-1 for the a and b rows of eig at once
        img = ((pmat[:, None] * eig[ok][:, :, None, :])
               @ mat2_inverse(pmat)[:, None])
        imga = np.concatenate([imga, img[:, 0]])
        imgb = np.concatenate([imgb, img[:, 1]])
    return imga, imgb


def check_torus_oracle(n: int, seed: int) -> CheckResult:
    """|tau(T^2)| = 1 on n commuting pairs, one draw and one oracle call.
    The draw refuses a pair whose traces are both near 2, so every pair
    has a nontrivial character and an acyclic torus complex; a pair the
    oracle masks fails the check."""
    imga, imgb = random_commuting_pairs(np.random.default_rng(seed), n)
    val = torus_torsion_oracle(imga, imgb)
    err = np.abs(np.abs(val.value[val.acyclic]) - 1.0)
    worst = float(np.max(err, initial=0.0))
    masked = n - err.size
    return CheckResult("torus complex |tau| = 1",
                       masked == 0 and worst <= COMPARE_TOL, worst,
                       COMPARE_TOL,
                       detail=f"{n} commuting pairs, {masked} not acyclic")


def check_product_identity(n: int, seed: int) -> CheckResult:
    """tau(M) = tau(exterior) * tau(solid torus) as rational functions
    of u, checked at random u all at once; a `degenerate` u is redrawn."""
    rng = np.random.default_rng(seed)
    u, drawn = np.empty(0, dtype=complex), 0
    while u.size < n:
        draw = rng.normal(scale=2, size=(n - u.size, 2)).view(complex)[:, 0]
        drawn += draw.size
        u = np.concatenate([u, draw[~degenerate(draw)]])
    lhs = torsion_surgered(u)
    rhs = torsion_exterior_closed(u) * torsion_solid_torus_closed(u)
    err = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    worst = float(np.max(err, initial=0.0))
    return CheckResult("theorem product identity", worst <= 1e-12, worst, 1e-12,
                       detail=f"{n} random u, {drawn - n} redrawn")


def check_surgery_solver() -> CheckResult:
    """Each slope has its N(p/q) characters as rows, N = max(4|q|, |p|)
    - [p odd] - [4 | p] and 1 at 4/1 (none at 1/0); each row meets both
    residuals and the torsion formula to the printed RELATION_TOL, and a
    row without torsion is flagged degenerate.  One `solve_surgery` call
    solves the ten slopes and one `torsion_surgered` call gives the
    torsion of every non-degenerate row; each row's relation and variety
    residuals are read from the row."""
    slopes = [SurgerySlope(p, q)
              for p, q in ((1, 0), (1, 1), (2, 1), (3, 1), (5, 1), (1, 2),
                           (3, 2), (5, 3), (-1, 2), (4, 1))]
    rows = solve_surgery(slopes)
    found, short = Counter(sol.slope for sol in rows), []
    for sl in slopes:
        n = 1 if (abs(sl.p), sl.q) == (4, 1) else (
            polynomial_degree(sl) - sl.p % 2 - (sl.p % 4 == 0))
        if found[sl] != n:
            short.append(f"; {sl.p}/{sl.q}: {found[sl]} of {n} rows")
    res = np.array([max(sol.relation_residual, sol.point.residual)
                    for sol in rows], dtype=float)
    with_tau = [sol for sol in rows if sol.torsion is not None]
    u = np.array([sol.u for sol in with_tau], dtype=complex)
    err = _relerr(np.array([sol.torsion for sol in with_tau], dtype=complex),
                  torsion_surgered(u))
    worst = max(np.max(res, initial=0.0), np.max(err, initial=0.0))
    ok = not short and worst <= RELATION_TOL and all(
        "degenerate" in sol.flags for sol in rows if sol.torsion is None)
    return CheckResult("surgery solver residuals + torsion", ok, worst,
                       RELATION_TOL,
                       detail=f"{len(slopes)} slopes, {len(rows)} solutions"
                              + "".join(short))


def run_all(samples: int = 200, seed: int = 0) -> list[CheckResult]:
    """The full verification sweep; the sampled checks take three fixed
    points first, so samples = 0 keeps those only."""
    fixed = np.array([(p.s, p.t) for p in (solve_t(1.0)[0], *solve_t(2.0))])
    s, t = np.hstack([fixed.T, sample_variety_points(samples, seed)])
    checks = [(check_geometric_point,),
              (check_exterior_oracle, s, t),
              (check_trace_identity, s, t),
              (check_longitude_lemma, s, t),
              (check_basis_independence, 20, seed + 1),
              (check_torus_oracle, 100, seed + 2),
              (check_product_identity, 1000, seed + 3),
              (check_surgery_solver,)]
    results = []
    for check, *args in checks:
        start = time.perf_counter()
        res = check(*args)
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results


CSV_FIELDS = ("name", "passed", "max_residual", "tol", "detail", "seconds")


def results_to_csv(results: list[CheckResult]) -> str:
    """A header and one row per check; a float cell is the float's JSON
    text, and a detail cell holding a comma is quoted."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(CSV_FIELDS)
    for res in results:
        out.writerow([res.name, str(res.passed).lower(),
                      repr(res.max_residual), repr(res.tol), res.detail,
                      repr(res.seconds)])
    return buf.getvalue()

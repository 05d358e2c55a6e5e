"""Self-verification: every closed formula cross-checked against its
independent oracle on random variety samples plus fixed fixtures.

Each check returns a CheckResult with the worst residual seen and the
tolerance it was held to; `run_all` aggregates them deterministically
for a given (samples, seed) pair.  The checks over sampled points,
pairs and u make one stacked call each (N items at once, see
`formulas.torsion_exterior_oracle` and `riley.rep_stacks`), the
basis-independence check one perturbed call per dims over all seeds,
and the surgery check one residual call per slope and one torsion call.
The samples are stacked draws: a round draws every missing item at
once and the items a rule rejects are drawn again in the next round;
the torus and product checks give that count in their detail.
`run_all` times each check (`CheckResult.seconds`).
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainComplex, torsion, torsion_with_basis_perturbation
from .linalg import det2, mat2_inverse
from .riley import (LONGITUDE, RileyPoint, _t_branches, longitude_l11,
                    point_arrays, rep_stacks, riley_poly, solve_t, trace_l,
                    trace_u)
from .words import word_product
from .surgery import (RELATION_TOL, SurgerySlope, relation_residuals,
                      solve_surgery)
from .formulas import (degenerate, full_report, torsion_exterior_closed,
                       torsion_exterior_oracle, torsion_solid_torus_closed,
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


def sample_variety_points(n: int, seed: int) -> list[RileyPoint]:
    """n random variety points: |s| log-uniform in [0.3, 3], uniform
    angle, alternating branches, excluding |2 - u| < 1e-3.  Each round
    draws the missing points at once and redraws the excluded ones."""
    rng = np.random.default_rng(seed)
    s = np.empty(0, dtype=complex)
    while s.size < n:
        log_r, theta = rng.uniform((math.log(0.3), 0.0),
                                   (math.log(3.0), 2 * math.pi),
                                   size=(n - s.size, 2)).T
        draw = np.exp(log_r) * np.exp(1j * theta)
        s = np.concatenate([s, draw[np.abs(2 - trace_u(draw)) >= 1e-3]])
    t = np.where(np.arange(n) % 2 == 0, *_t_branches(s))
    cols = zip(s.tolist(), t.tolist(), np.abs(riley_poly(s, t)).tolist())
    return [RileyPoint(a, b, "+-"[k % 2], res)
            for k, (a, b, res) in enumerate(cols)]


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
    worst = max(worst, abs(torsion_solid_torus_from_trace(plus) - 0.25))
    worst = max(worst, abs(torsion_solid_torus_closed(u) - 0.25))
    worst = max(worst, abs(torsion_surgered(u) - (-0.5)))
    rep = full_report(plus)
    ok = worst <= 1e-10 and rep.all_pass
    return CheckResult("geometric point s=1 fixed values", ok, worst, 1e-10)


def check_exterior_oracle(points) -> CheckResult:
    """|Fox-calculus torsion| = |-2(u - 1)| on the variety; every point
    must be acyclic."""
    oracle = torsion_exterior_oracle(points)
    u = trace_u(point_arrays(points)[0])[oracle.acyclic]
    err = _relerr(np.abs(oracle.value[oracle.acyclic]),
                  np.abs(torsion_exterior_closed(u)))
    worst = float(np.max(err, initial=0.0))
    masked = len(points) - err.size
    return CheckResult("exterior oracle |tau| vs closed form",
                       masked == 0 and worst <= 1e-8, worst, 1e-8,
                       detail=f"{len(points)} points, {masked} not acyclic")


def check_trace_identity(points) -> CheckResult:
    """2 - tr rho(l) = -u^4 + 5 u^2 on the variety."""
    s, t, _ = point_arrays(points)
    u = trace_u(s)
    err = _relerr(2 - trace_l(s, t), -u ** 4 + 5 * u ** 2)
    worst = float(np.max(err, initial=0.0))
    return CheckResult("trace identity 2 - tr rho(l) = u^2(5 - u^2)",
                       worst <= 1e-8, worst, 1e-8,
                       detail=f"{len(points)} points")


def check_longitude_lemma(points) -> CheckResult:
    """Closed-form l11 and tr rho(l) match the word product, to 1e-9 of
    its largest entry; the word's l21 vanishes, to 1e-8."""
    s, t, _ = point_arrays(points)
    word = word_product(LONGITUDE, rep_stacks(s, t))
    scale = np.maximum(1.0, np.max(np.abs(word), axis=(1, 2), initial=0.0))
    gap = np.maximum(np.abs(longitude_l11(s, t) - word[:, 0, 0]),
                     np.abs(trace_l(s, t) - np.trace(word, axis1=1, axis2=2)))
    worst_closed = float(np.max(gap / scale, initial=0.0))
    worst_l21 = float(np.max(np.abs(word[:, 1, 0]) / scale, initial=0.0))
    ok = worst_closed <= 1e-9 and worst_l21 <= 1e-8
    return CheckResult("longitude l11 and trace vs word product",
                       ok, worst_closed, 1e-9,
                       detail=f"word l21 {worst_l21:.2e}, tol 1.0e-08")


def random_acyclic_complex(rng) -> ChainComplex:
    """Random exact 3-term complex: split a random invertible change of
    basis of the middle space into an injection and a projection."""
    d2 = int(rng.integers(1, 3))
    d0 = int(rng.integers(1, 3))
    d1 = d0 + d2
    while True:
        pmat = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        if abs(np.linalg.det(pmat)) > 1e-3:
            break
    inj = pmat[:, :d2]                      # boundary C2 -> C1
    proj = np.linalg.inv(pmat)[d2:, :]      # boundary C1 -> C0
    return ChainComplex(dims=(d0, d1, d2), boundaries=(proj, inj))


def check_basis_independence(n_fixtures: int, seed: int) -> CheckResult:
    """Torsion is independent of image-basis and lift choices: the
    fixtures, grouped by dims, as one stack per shape, each stack in one
    `torsion` call and one perturbed call over all 10 perturbation
    seeds; an item masked by either call fails the check."""
    rng = np.random.default_rng(seed)
    shapes: dict = {}
    for _ in range(n_fixtures):
        cx = random_acyclic_complex(rng)
        shapes.setdefault(cx.dims, []).append(cx.boundaries)
    worst, redrawn, masked = 0.0, 0, 0
    for dims, items in shapes.items():
        stack = ChainComplex(dims, tuple(map(np.array, zip(*items))))
        ref = torsion(stack)
        val = torsion_with_basis_perturbation(stack, range(10))
        redrawn += val.redrawn
        ok = ref.acyclic & val.acyclic
        err = _relerr(val.value, ref.value)[ok]
        worst = max(worst, float(np.max(err, initial=0.0)))
        masked += int(np.count_nonzero(~ok.all(axis=0)))
    return CheckResult("chain torsion basis independence",
                       masked == 0 and worst <= 1e-8, worst, 1e-8,
                       detail=f"{n_fixtures} fixtures in {len(shapes)} shapes"
                              f" x 10 seeds, {redrawn} redrawn, "
                              f"{masked} masked")


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


def random_commuting_pair(rng):
    """One commuting pair: the N = 1 item of `random_commuting_pairs`."""
    imga, imgb = random_commuting_pairs(rng, 1)
    return imga[0], imgb[0]


def check_torus_oracle(n: int, seed: int) -> CheckResult:
    """|tau(T^2)| = 1 for acyclic commuting peripheral images: the first
    n acyclic pairs that `random_commuting_pairs` draws, the others
    redrawn, one draw and one oracle call per round."""
    rng = np.random.default_rng(seed)
    worst, done, redrawn = 0.0, 0, 0
    while done < n:
        imga, imgb = random_commuting_pairs(rng, n - done)
        val = torus_torsion_oracle(imga, imgb)
        err = np.abs(np.abs(val.value[val.acyclic]) - 1.0)
        worst = max(worst, float(np.max(err, initial=0.0)))
        done += err.size
        redrawn += len(imga) - err.size
    return CheckResult("torus complex |tau| = 1", worst <= 1e-8, worst, 1e-8,
                       detail=f"{n} commuting pairs, {redrawn} redrawn")


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
    """Slope (1,0) finds nothing; every solution on other slopes
    satisfies both residuals to RELATION_TOL and the torsion formula,
    and a row without torsion is flagged degenerate.  One
    `relation_residuals` call per slope re-computes the residual of its
    rows, and one `torsion_surgered` call the torsion of every
    non-degenerate row."""
    slopes = [(1, 0), (1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (3, 2), (5, 3),
              (-1, 2), (4, 1)]
    ok = True
    res, rows = [], []
    for p, q in slopes:
        slope = SurgerySlope(p, q)
        sols = solve_surgery(slope)
        if (p, q) == (1, 0) and sols:
            ok = False
        s, t, residual = point_arrays([sol.point for sol in sols])
        res.append(np.maximum(relation_residuals(s, t, slope), residual))
        rows += sols
    res = np.concatenate(res)
    with_tau = [sol for sol in rows if sol.torsion is not None]
    u = np.array([sol.u for sol in with_tau], dtype=complex)
    err = _relerr(np.array([sol.torsion for sol in with_tau], dtype=complex),
                  torsion_surgered(u))
    worst = max(np.max(res, initial=0.0), np.max(err, initial=0.0))
    if (np.any(res > RELATION_TOL) or np.any(err > 1e-8)
            or any("degenerate" not in sol.flags
                   for sol in rows if sol.torsion is None)):
        ok = False
    return CheckResult("surgery solver residuals + torsion", ok, worst,
                       RELATION_TOL,
                       detail=f"{len(slopes)} slopes, {len(rows)} solutions")


def run_all(samples: int = 200, seed: int = 0) -> list[CheckResult]:
    """The full verification sweep; samples = 0 keeps the fixed
    fixtures only for the sampled checks."""
    points = sample_variety_points(samples, seed) if samples else []
    fixture_pts = [solve_t(1.0)[0], *solve_t(2.0)]
    checks = [(check_geometric_point,),
              (check_exterior_oracle, fixture_pts + points),
              (check_trace_identity, fixture_pts + points),
              (check_longitude_lemma, fixture_pts + points),
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

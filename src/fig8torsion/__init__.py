"""Reidemeister torsion of Dehn surgeries on the figure-eight knot:
SL(2,C) representation variety, closed torsion formulas, and the
chain-complex / Fox-calculus oracles that verify them."""

from .chain import (ChainComplex, TorsionValue, is_acyclic, torsion,
                    torsion_with_basis_perturbation)
from .errors import (DegenerateLeadingCoefficient, DegenerateU,
                     DimensionMismatch, Fig8Error, InvalidSlope, NotAcyclic,
                     SingularMatrix, SingularParameter, WordParseError)
from .linalg import E2, mat2, mat2_inverse, rank, solve_quadratic, svd
from .riley import (LONGITUDE, RileyPoint, longitude_entries,
                    longitude_matrix_closed, longitude_matrix_word,
                    longitude_trace, make_point, rep_matrices, riley_poly,
                    solve_t, trace_u)
from .surgery import (SurgerySlope, SurgerySolution, solve_surgery,
                      surgery_residual)
from .formulas import (TorsionReport, full_report, torsion_exterior_closed,
                       torsion_exterior_oracle, torsion_solid_torus_closed,
                       torsion_solid_torus_from_trace, torsion_surgered,
                       torus_torsion_oracle)
from .words import (GroupRingElement, evaluate_group_ring, evaluate_word,
                    fox_derivative, fox_jacobian, parse_word, word_concat,
                    word_inverse, word_to_text)

__version__ = "0.1.0"

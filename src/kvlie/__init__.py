"""Exact free Lie algebra calculus with transport solvers and graph weights."""

from .words import Alphabet, AmbientMismatch, AssocSeries, NotPrimitiveError
from .lie import LieSeries, bch, bch_xy
from .cyclic import (CycSeries, duflo_series, h_subspace_vector, j_of,
                     partial_decompose, tr_project, tr_power)
from .derivations import (BraidGenerator, DerivationFlags, TDer, braid_embed,
                          braid_bracket_basis, classify, divergence,
                          tder_extend, tn_membership)
from .automorphisms import (TAutElem, inner_automorphism, iris_derivation,
                            j_group_cocycle, r_element, symmetry_transform,
                            tau_involution, taut_exp, taut_extend, taut_log)
from .solvers import (AssociatorCandidate, DegreeRecord, DegreeReport,
                      check_associator_axioms, check_f_symmetries,
                      solve_associator, solve_kv, tder_bch)
from .graphs import (KGraph, LieGraph, WheelGraph, enumerate_lie_graphs,
                     enumerate_wheel_graphs, graph_symbol)
from .weights import (WeightEstimate, angle, angle_gradient,
                      example_weight_quadrature, weight_montecarlo)

__version__ = "0.1.0"

"""Divisor theory and canonical semi-rings of finite graphs and Z-metric graphs.

Exact-arithmetic verification library: chip-firing linear systems R(G, D)
and R(Gamma, D), their tropical semi-module/semi-ring structure, extremal
detection, Hilbert-basis finite-generation certificates, and the witness
pipeline showing generator degrees are unbounded (finite graphs) or that no
finite generating set exists (Z-metric graphs).
"""

from .budget import Budget, DEFAULT_BUDGET
from .errors import (BudgetExceeded, CertificateError, DegenerateCone,
                     DegreeOverflow, Disconnected, EmptyOrFullSubset,
                     EmptySubgraph, HypothesisFailure, IndexOutOfRange,
                     InputError, InvalidPL, NotMember, SizeMismatch,
                     TropdivError)
from .graphs import (Divisor, FiniteGraph, RationalFunction, build_graph,
                     canonical_divisor, genus, linear_equiv, ord_and_div)
from .linear_systems import (RgdElement, can_fire, extremals, firing_subsets,
                             is_extremal, odot, oplus, oplus_cover,
                             rgd_enumerate, rgd_member, scale)
from .generators import (GenerationCertificate, GeneratorSet, MonoidCone,
                         build_gn, certify_basis, decompose, extreme_rays,
                         graded_cone, hilbert_basis, min_generator_degrees,
                         monoid_certificate, verify_gn)
from .metric import (MetricDivisor, MetricGraph, MetricSubgraph, PLFunction,
                     Point, Refinement, build_metric_graph, can_fire_metric,
                     canonical_divisor_metric, cf_move, is_extremal_metric,
                     linear_equiv_metric, metric_firing_subgraphs,
                     rgd_member_metric)
from .witness import (WitnessInstance, WitnessResult, build_witness,
                      check_hypotheses, complete_graph_instance,
                      indecomposability_check, nonfinite_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Operator means on symmetric positive definite matrices.

A toolkit for two-variable operator means: spectral evaluation, means
generated by integral representations over step densities, order and
symmetry-class tests, inverse problems (which pairs produce prescribed mean
values), bounded-ratio monotone chains between ordered matrices, and sampled
operator-monotonicity checking with self-verifying witnesses.
"""

from .errors import (ConditioningError, ConvergenceError, DomainError,
                     OpmeansError, OrderError, OutOfRangeError,
                     StructuralError, UnsupportedMeanError, UsageError)
from .funcexpr import FunctionExpr, parse_function
from .hdensity import (SELF_ADJOINT, SYMMETRIC, HDensity, dagger_density,
                       eval_selfadjoint_rep, eval_symmetric_rep, h_order,
                       lattice_meet_join, selfadjoint_rep_derivative,
                       symmetric_rep_derivative)
from .means import (AxiomReport, MeanDescriptor, RepresentingFunction,
                    eval_mean, eval_mean_from_function, mean_from_spectrum,
                    parse_mean_descriptor, representing_function,
                    verify_mean_axioms)
from .monocheck import (InequalityChainReport, LinkMargin, LoewnerWitness,
                        MonoConfig, MonotonicityVerdict, TransferWitness,
                        falsify_transfer, is_operator_monotone_sampled,
                        loewner_matrix, verify_inequality_chain)
from .orders import (KaReport, KaViolation, PhiProfile, dagger,
                     ka_condition_check, order_leq_sa, order_leq_sym,
                     phi_profile)
from .solvers import (ChainWitness, PairWitness, ScalarPairSolution,
                      build_monotone_chain, f_alpha, geom_heinz_ratio,
                      invert_f_alpha, invert_geom_heinz_ratio, invert_phi,
                      solve_geom_heinz_matrix, solve_heinz_heron_matrix,
                      solve_matrix_pair, solve_scalar_geometric_pair,
                      solve_scalar_heinz_heron)
from .spd import (RelativeSpectrum, SpdMatrix, SpectralDecomposition,
                  apply_spectral_function, as_spd, loewner_leq,
                  matrix_from_json_dict, matrix_to_json_dict, min_eig_and_norm,
                  random_spd, sqrt_pair, sym_eigendecompose)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "ChainWitness", "ConditioningError", "ConvergenceError",
    "DomainError", "FunctionExpr", "HDensity", "InequalityChainReport",
    "KaReport", "KaViolation", "LinkMargin", "LoewnerWitness",
    "MeanDescriptor", "MonoConfig", "MonotonicityVerdict", "OpmeansError",
    "OrderError", "OutOfRangeError", "PairWitness", "PhiProfile",
    "RelativeSpectrum", "RepresentingFunction", "ScalarPairSolution",
    "SELF_ADJOINT",
    "SpdMatrix", "SpectralDecomposition", "StructuralError", "SYMMETRIC",
    "TransferWitness", "UnsupportedMeanError", "UsageError",
    "apply_spectral_function", "as_spd", "build_monotone_chain", "dagger",
    "dagger_density", "eval_mean", "eval_mean_from_function",
    "eval_selfadjoint_rep", "eval_symmetric_rep", "f_alpha",
    "falsify_transfer", "geom_heinz_ratio", "h_order",
    "invert_f_alpha", "invert_geom_heinz_ratio", "invert_phi",
    "is_operator_monotone_sampled", "ka_condition_check",
    "lattice_meet_join", "loewner_leq", "loewner_matrix",
    "matrix_from_json_dict", "matrix_to_json_dict", "mean_from_spectrum",
    "min_eig_and_norm",
    "order_leq_sa", "order_leq_sym", "parse_function",
    "parse_mean_descriptor", "phi_profile", "random_spd",
    "representing_function", "selfadjoint_rep_derivative",
    "solve_geom_heinz_matrix", "solve_heinz_heron_matrix",
    "solve_matrix_pair", "solve_scalar_geometric_pair",
    "solve_scalar_heinz_heron", "sqrt_pair", "sym_eigendecompose",
    "symmetric_rep_derivative", "verify_inequality_chain",
    "verify_mean_axioms",
]

"""slplab: a verification laboratory for sign-linked-pair feature geometry.

Finite relation algebras with negation/converse closure, logical query
families, equivariant tensor-factorized feature maps, lifted symmetric-group
actions with isotypic decomposition, parity splits of factorized terms,
conjunctive query closures with collapse certificates, and desk-scale
gradient-alignment experiments.
"""

__version__ = "0.1.0"

from .relalg import (EntitySet, Relation, RelationAlgebra, close_unary,
                     compose, converse, load_relations, negate)
from .queryspace import (GroupElementH, LogicalFamily, LogicalOp, Query,
                         apply_logical, apply_renaming, compute_families,
                         enumerate_queries)
from .featspace import (FeatureMap, KernelNotInvariantError,
                        check_logical_equivariance, check_slp, kernel,
                        lift_renaming, load_feature_map,
                        propagation_audit, save_feature_map)
from .factorize import (BlockSpec, ConverseInvarianceError, FactorizedMap,
                        Term, TensorBlock, build_slp_map, hom_dimension_check,
                        isotypic_decompose, negation_split, parity_decompose,
                        parity_involution, verify_factorized_form)
from .conjunction import (Compound, ConjFeatureAssignment, atom,
                          check_kernel_stability, close_conjunction,
                          collapse_certificate, conj, fit_bilinear, neg,
                          possible_worlds_assignment, unique_witness_reduce)
from .gradlab import (ScorerModel, SyntheticKB, alignment_experiment,
                      edit_step, generate_kb, gradient, make_mlp,
                      make_slp_linear, score, train)
from .reports import Report, emit_report, parse_report, render_report

__all__ = [
    "__version__",
    "EntitySet", "Relation", "RelationAlgebra", "close_unary", "compose",
    "converse", "load_relations", "negate",
    "GroupElementH", "LogicalFamily", "LogicalOp", "Query", "apply_logical",
    "apply_renaming", "compute_families", "enumerate_queries",
    "FeatureMap", "KernelNotInvariantError", "check_logical_equivariance",
    "check_slp", "kernel", "lift_renaming", "load_feature_map",
    "propagation_audit", "save_feature_map",
    "BlockSpec", "ConverseInvarianceError", "FactorizedMap", "Term",
    "TensorBlock", "build_slp_map", "hom_dimension_check",
    "isotypic_decompose", "negation_split", "parity_decompose",
    "parity_involution", "verify_factorized_form",
    "Compound", "ConjFeatureAssignment", "atom",
    "check_kernel_stability", "close_conjunction", "collapse_certificate",
    "conj", "fit_bilinear", "neg", "possible_worlds_assignment",
    "unique_witness_reduce",
    "ScorerModel", "SyntheticKB", "alignment_experiment", "edit_step",
    "generate_kb", "gradient", "make_mlp", "make_slp_linear", "score",
    "train",
    "Report", "emit_report", "parse_report", "render_report",
]

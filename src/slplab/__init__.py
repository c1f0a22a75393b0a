"""slplab: a verification laboratory for sign-linked-pair feature geometry.

Finite relation algebras with negation/converse closure, logical query
families, equivariant tensor-factorized feature maps, lifted symmetric-group
actions with isotypic decomposition, parity splits of factorized terms,
conjunctive query closures with collapse certificates, and desk-scale
gradient-alignment experiments.

The package re-exports nothing: import from its modules, and run its checks
through `slplab.cli` (`python -m slplab`).
"""

__version__ = "0.1.0"

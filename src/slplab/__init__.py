"""slplab: a verification laboratory for sign-linked-pair feature geometry.

Finite relation algebras with negation/converse closure, logical query
families, equivariant tensor-factorized feature maps, lifted symmetric-group
actions with isotypic decomposition, parity splits of factorized terms,
conjunctive query closures with collapse certificates, and desk-scale
gradient-alignment experiments.

The package re-exports nothing: import from its modules, and run its checks
through `slplab.cli` (`python -m slplab`).

Importing the package before NumPy pins the BLAS to one thread, since a
threaded BLAS splits its sums by thread count and so moves the last bits of
some report values; once NumPy is imported, the package leaves it alone.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

__version__ = "0.1.0"

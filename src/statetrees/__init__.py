"""Quantum state trees, their size measures, and the machinery around them.

The package covers: tree construction / validation / evaluation
(`trees`, `dsl`, `builders`), GF(2) and GF(2^d) linear algebra (`gf2`,
`codes`), multilinear arithmetic formulas and conversions (`formulas`),
exact manifestly-orthogonal tree size of coset states (`mots`),
compilation of orthogonal trees to preparation circuits (`circuits`),
and the partition-rank experiments (`rank`).  The `statetrees` console
script exposes everything on files.
"""

from .trees import (  # noqa: F401
    Leaf, Plus, Tensor, StateTree, TOLERANCE, MAX_QUBITS,
    classify_tree, depth, eps_to_delta, evaluate, fidelity, l2_distance2,
    local_basis_change, restrict, tree_size, validate,
)
from .dsl import parse, serialize  # noqa: F401
from .gf2 import BitMatrix, Coset, rank_gf2, kernel_basis, enumerate_coset  # noqa: F401

__version__ = "0.1.0"

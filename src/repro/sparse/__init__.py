"""Sparse-matrix substrate used by every kernel and baseline in the package.

Public names
------------
``CSRMatrix``
    Compressed Sparse Row matrix — the compute format (Section IV.C of the
    paper assumes this layout for its memory model).
``COOMatrix``
    Coordinate format — the construction/interchange format.
``as_csr`` / ``as_coo``
    Coercion helpers accepting our formats, SciPy, NetworkX, dense arrays
    and edge lists.
``read_matrix_market`` / ``write_matrix_market``
    Self-contained Matrix Market coordinate I/O.
``random_csr`` & friends
    Controlled random sparsity patterns for tests and benchmarks.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .convert import as_coo, as_csr, from_networkx
from .delta import DeltaCSR, EdgeBatchResult, splice_rows
from .io import read_matrix_market, write_matrix_market
from .random import banded_csr, block_diagonal_csr, random_bipartite, random_csr

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "DeltaCSR",
    "EdgeBatchResult",
    "splice_rows",
    "as_coo",
    "as_csr",
    "from_networkx",
    "read_matrix_market",
    "write_matrix_market",
    "random_csr",
    "random_bipartite",
    "banded_csr",
    "block_diagonal_csr",
]

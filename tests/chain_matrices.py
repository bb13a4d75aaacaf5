"""Conversion between the sparse columns of chain maps and dense matrices,
the dense boundaries and transposes built from them, dense block
placement, and the staircase on the simplicial (unreduced) chains, owned
by the tests so that their dense references do not depend on the
package's own conversions or on its Morse reduction.

Sparse columns are the package's format for chain-level maps: one list of
(row, entry) pairs per source coordinate, entries at one row adding up.
"""

from functools import lru_cache

from equihom.complexes import chain_complex
from equihom.equivariant import TotalComplex
from equihom.intlinalg import IntMatrix


def dense(columns, rows):
    """The rows x len(columns) matrix with these sparse columns."""
    data = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col:
            data[i][j] += x
    return IntMatrix(rows, len(columns), data)


def sparse(matrix):
    """The sparse columns of a matrix: per column its nonzero entries as
    (row, entry), rows ascending."""
    return [[(i, x) for i, x in enumerate(col) if x]
            for col in matrix.columns()]


def boundary(cc, q):
    """The boundary C_q -> C_{q-1} of the chain complex view cc as a dense
    matrix, the zero matrix of its shape outside degrees 0..dim."""
    columns = cc.columns[q][0] if 0 <= q < len(cc.columns) else []
    return dense(columns, cc.rank(q - 1))


def transpose(matrix):
    """The transpose of a dense matrix."""
    return IntMatrix(matrix.cols, matrix.rows, matrix.columns())


def from_blocks(rows, cols, blocks):
    """The rows x cols matrix that is the sum of sign * block placed with
    its top-left entry at (row offset, column offset), for each
    (row offset, column offset, block, sign) in blocks."""
    data = [[0] * cols for _ in range(rows)]
    for roff, coff, block, sign in blocks:
        for r, row in enumerate(block.data):
            for c, x in enumerate(row):
                data[roff + r][coff + c] += sign * x
    return IntMatrix(rows, cols, data)


@lru_cache(maxsize=None)
def total_complex_of(X, k):
    """The staircase on the simplicial chains of X with twist k, the
    reference for the staircase on the Morse-reduced chains."""
    return TotalComplex(chain_complex(X, k))


def total_complex(X, k, p_min, p_max):
    """The differentials of total_complex_of(X, k) in the total degrees
    p_min..p_max, by degree; windows agree wherever they overlap."""
    tc = total_complex_of(X, k)
    return {p: tc.diff(p) for p in range(p_min, p_max + 1)}

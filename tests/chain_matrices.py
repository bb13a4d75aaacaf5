"""Conversion between the sparse columns of chain maps and dense matrices,
the dense boundaries and transposes built from them, and dense block
placement, owned by the tests so that their dense references do not
depend on the package's own conversions.

Sparse columns are the package's format for chain-level maps: one list of
(row, entry) pairs per source coordinate, entries at one row adding up.
"""

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

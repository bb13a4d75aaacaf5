"""Conversion between the sparse columns of chain maps and dense matrices,
owned by the tests so that their dense references do not depend on the
package's own conversions.

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

"""The staircase differentials, whose entries are placed straight from the
sparse chain columns, and the chain complex views, against the dense path
they replaced: chain complexes densified eagerly per coefficient system,
and per block the vertical map and the dense 1 -+ sigma placed by the
tests' own from_blocks.  The staircases cut to one column are the ordinary
chain and cochain complexes, whose differentials are the dense boundaries
and their transposes."""

import pytest

from equihom.complexes import (
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    barycentric_subdivide,
    builtin,
    chain_columns,
    chain_complex,
    dim,
    fixed_subcomplex,
)
from equihom.equivariant import TotalCochainComplex, TotalComplex
from equihom.intlinalg import IntMatrix
from equihom.morse import morse_reduction, reduced_chain_complex

from chain_matrices import dense, from_blocks, transpose

EMPTY = "fixed set of free-pair"
SPACES = BUILTIN_NAMES + ("circle-reflection+free-pair", EMPTY)


class DenseChainComplex:
    """The chain complex with every matrix densified at construction, the
    twist sign (-1)^k on sigma."""

    def __init__(self, columns, coeff):
        twist = -1 if coeff.k else 1
        ranks = [len(sigma) for _, sigma in columns]
        self.boundaries = tuple(dense(boundary, ranks[q - 1] if q else 0)
                                for q, (boundary, _) in enumerate(columns))
        self.sigmas = tuple(dense(sigma, ranks[q]).scale(twist)
                            for q, (_, sigma) in enumerate(columns))

    def rank(self, q):
        return self.sigma(q).rows

    def boundary(self, q):
        if 0 <= q < len(self.boundaries):
            return self.boundaries[q]
        return IntMatrix.zeros(self.rank(q - 1), self.rank(q))

    def sigma(self, q):
        if 0 <= q < len(self.sigmas):
            return self.sigmas[q]
        return IntMatrix.zeros(0, 0)


def reference_diff(tc, ref, p):
    """The differential out of total degree p of the staircase tc, from
    the dense blocks of ref: the vertical map, and the horizontal map
    (-1)^q (1 -+ sigma) with sigma transposed on cochains, unless the next
    column is cut."""
    tgt = {c: off for _, c, off in tc.blocks(p - tc.STEP)}
    pieces = []
    for q, c, off in tc.blocks(p):
        if tc.STEP == 1:
            vertical, sigma = ref.boundary(q), ref.sigma(q)
        else:
            vertical = transpose(ref.boundary(q + 1))
            sigma = transpose(ref.sigma(q))
        ident = IntMatrix.identity(ref.rank(q))
        if c in tgt:
            pieces.append((tgt[c], off, vertical, 1))
        if c + 1 in tgt:
            pieces.append((tgt[c + 1], off, ident + sigma if c % 2
                           else ident - sigma, -1 if q % 2 else 1))
    return from_blocks(tc.rank(p - tc.STEP), tc.rank(p), pieces)


def space(name, subdivisions):
    X = fixed_subcomplex(builtin("free-pair")) if name == EMPTY \
        else builtin(name)
    for _ in range(subdivisions):
        X = barycentric_subdivide(X)
    return X


@pytest.mark.parametrize("reduced", [False, True],
                         ids=["simplicial", "reduced"])
@pytest.mark.parametrize("subdivisions", [0, 1])
@pytest.mark.parametrize("name", SPACES)
def test_views_and_staircases_match_the_dense_path(name, subdivisions,
                                                   reduced):
    X = space(name, subdivisions)
    columns = morse_reduction(X).columns if reduced else chain_columns(X)
    view = reduced_chain_complex if reduced else chain_complex
    n = dim(X)
    for coeff in (COEFF_Z2, COEFF_Z, COEFF_Z1):
        cc, ref = view(X, coeff.k), DenseChainComplex(columns, coeff)
        chains, cochains = TotalComplex(cc, 1), TotalCochainComplex(cc, 1)
        for q in range(-2, n + 4):
            assert cc.rank(q) == ref.rank(q)
            assert chains.diff(q) == ref.boundary(q)
            assert cochains.diff(q - 1) == transpose(ref.boundary(q))
            assert dense(cc.sigma(q), cc.rank(q)) == ref.sigma(q)
        for staircase in (TotalComplex(cc), TotalCochainComplex(cc),
                          chains, cochains):
            for p in range(-4, n + 4):
                assert staircase.diff(p) == reference_diff(staircase, ref,
                                                           p), (coeff, p)

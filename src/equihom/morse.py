"""Equivariant algebraic Morse reduction of the chain complex of a G-complex.

Cancelling a pair of cells (a, b), a a face of b with incidence u = +-1,
replaces the chain complex C by a chain homotopy equivalent one C' on the
other cells (Gaussian elimination of the pivot u): the cofaces x of a take
boundary dx - <dx, a> u db, and the chain maps

    iota : C' -> C,  x |-> x - <dx, a> u b          (x of the degree of b)
    pi   : C -> C',  a |-> -u (db - u a),  b |-> 0

satisfy pi iota = 1, while iota pi is chain homotopic to 1.  Pairs are taken
by orbits of the involution, so that C' is again a complex of Z[G]-modules
and both maps are equivariant:

  stage 1 cancels a free orbit, (a, b) together with (sigma a, sigma b),
    where <db, a> = +-1 and <d(sigma b), a> = 0 and neither cell is fixed;
  stage 2 cancels a pair of fixed cells (sigma = +-1 on each).

The stages repeat, greedily on the current boundary, until no pair is left.
The involution of C' is the signed permutation of C restricted to the cells
left (the critical cells).  The pairing and both maps are computed once per
complex over Z with the untwisted involution: the twist only flips the sign
of sigma, and Z/2 is the same integral data, so one reduction serves every
coefficient system, viewed with the twist k alone (reduced_chain_complex).

The elimination updates the boundary only.  It logs each cancellation
with the boundary of b and the cofaces of a as they were then, and the
composite maps are read off that log backwards (_flow): the row of iota
at b is -u sum <dx, a> row(x) over the other cofaces x of a, the column
of pi at a is -u sum <db, y> column(y) over the other faces y of b, and
both vanish at the other cell of the pair.  Every cell on a right-hand
side outlives the cancellation, so its row or column is final when the
log is replayed from its end.

A MorseReduction holds the critical cells, the reduced complex C' as its
columns (d', sigma') in the sparse chain layout of simplicial chains, and
iota and pi as sparse columns.  So C' is checked by the same
check_chain_columns and viewed by the same GChainComplex as C.  d', sigma'
and iota are built and checked with the reduction; pi, which only maps
between complexes read, is replayed and checked on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .complexes import (
    _apply,
    _view,
    chain_columns,
    check_chain_columns,
    check_chain_map,
    gmap_chain_columns,
    transpose,
)
from .intlinalg import InternalError


@dataclass(frozen=True)
class MorseReduction:
    """The reduced complex of X over Z, untwisted, and the maps to and
    from the simplicial chains.  Sparse columns are lists of (row, entry).

    cells[q]: the simplex indices of the critical cells of degree q;
    columns[q]: the pair (d'_q, sigma'_q) of sparse columns, in the chain
      layout of complexes.chain_columns;
    lifts[q]: iota_q, one column over the q-simplices per critical cell;
    projections[q]: pi_q, one column over the critical cells per q-simplex,
      replayed from the log of cancellations and checked on first read,
      then kept.  Concurrent first reads replay the same immutable log.
    """

    cells: tuple
    columns: tuple
    lifts: tuple
    # the simplicial chain columns, and per cancellation the step of the
    # pi replay: (degree of a, a, u, the boundary of b)
    _chains: tuple = field(repr=False, compare=False)
    _log: tuple = field(repr=False, compare=False)

    @cached_property
    def projections(self):
        cols = _flow(self.cells, [len(bnd) for bnd, _ in self._chains],
                     ((q, a, u, fb.items())
                      for q, a, u, fb in reversed(self._log)))
        proj = tuple([sorted(v.items()) for v in level] for level in cols)
        _check_projections(self._chains, self, proj)
        return proj


class _Elimination:
    """The current complex while pairs are cancelled: per degree the
    boundary of each live cell ({face: incidence}, None once cancelled)
    and its transpose, and the log of the cancellations."""

    def __init__(self, columns):
        self.faces = [[dict(col) for col in boundary]
                      for boundary, _ in columns]
        self.cofaces = [[{} for _ in boundary] for boundary, _ in columns]
        for q in range(1, len(columns)):
            for b, col in enumerate(self.faces[q]):
                for a, u in col.items():
                    self.cofaces[q - 1][a][b] = u
        self.sigma = [[col[0] for col in sigma] for _, sigma in columns]
        self.log = []

    def cancel(self, q, a, b):
        """Cancel the face a (degree q - 1) of b (degree q), and log
        (q, a, b, u, boundary of b, cofaces of a).  The boundary of b is
        not changed afterwards."""
        fb = self.faces[q][b]
        u = fb.get(a, 0)
        if u not in (1, -1):
            raise InternalError("Morse pair (%d, %d) in degree %d has "
                                "incidence %d, not a unit" % (a, b, q, u))
        cof = list(self.cofaces[q - 1][a].items())
        for x, alpha in cof:
            if x == b:
                continue
            c = -alpha * u
            fx = self.faces[q][x]
            for y, v in fb.items():
                w = fx.get(y, 0) + c * v
                if w:
                    fx[y] = self.cofaces[q - 1][y][x] = w
                else:
                    del fx[y], self.cofaces[q - 1][y][x]
        for y in fb:
            del self.cofaces[q - 1][y][b]
        if q + 1 < len(self.faces):
            for z in self.cofaces[q][b]:
                del self.faces[q + 1][z][b]
        if q > 1:
            for y in self.faces[q - 1][a]:
                del self.cofaces[q - 2][y][a]
        for d, c in ((q - 1, a), (q, b)):
            self.faces[d][c] = self.cofaces[d][c] = None
        self.log.append((q, a, b, u, fb, cof))

    def sweep(self, free):
        """Cancel every pair of the stage (free orbits, or fixed cells)
        found in one pass over the cells, top degree first; whether any
        was found."""
        found = False
        for q in range(len(self.faces) - 1, 0, -1):
            for b, fb in enumerate(self.faces[q]):
                sb = self.sigma[q][b][0]
                if fb is None or (sb != b) != free:
                    continue
                # the faces of a fixed cell are fixed, and a fixed face of
                # a free cell b is also a face of sigma b
                for a, u in fb.items():
                    if u not in (1, -1) or free and a in self.faces[q][sb]:
                        continue
                    self.cancel(q, a, b)
                    if free:
                        self.cancel(q, self.sigma[q - 1][a][0], sb)
                    found = True
                    break
        return found


def _flow(cells, sizes, steps):
    """Per degree q, one sparse vector over the critical cells for each of
    the sizes[q] cells, as a dict of nonzeros: {i: 1} at the i-th
    critical cell and, for each step (q, c, u, entries) in the order
    given, minus u times the sum of e * vector(x) over the (x, e) in
    entries at c.  Every other cell keeps the zero vector, and so does c
    until its step, so its own entry adds nothing."""
    vecs = [[{}] * n for n in sizes]
    for level, vq in zip(cells, vecs):
        for i, c in enumerate(level):
            vq[c] = {i: 1}
    for q, c, u, entries in steps:
        vq = vecs[q]
        out = {}
        for x, e in entries:
            for i, y in vq[x].items():
                out[i] = out.get(i, 0) - u * e * y
        vq[c] = {i: y for i, y in out.items() if y}
    return vecs


@lru_cache(maxsize=None)
def morse_reduction(X):
    """The equivariant Morse reduction of the chains of X (memoized per
    complex; its invariants are checked with InternalError)."""
    columns = chain_columns(X)
    elim = _Elimination(columns)
    while elim.sweep(True) | elim.sweep(False):
        pass
    cells = tuple(tuple(c for c, fc in enumerate(faces) if fc is not None)
                  for faces in elim.faces)
    index = [{c: i for i, c in enumerate(level)} for level in cells]
    rows = _flow(cells, [len(faces) for faces in elim.faces],
                 ((q, b, u, cof)
                  for q, a, b, u, fb, cof in reversed(elim.log)))
    red = MorseReduction(
        cells=cells,
        columns=tuple(
            ([sorted((index[q - 1][a], u)
                     for a, u in elim.faces[q][c].items()) for c in level],
             [[(index[q][elim.sigma[q][c][0]], elim.sigma[q][c][1])]
              for c in level])
            for q, level in enumerate(cells)),
        lifts=tuple(transpose(map(dict.items, level), len(crit))
                    for level, crit in zip(rows, cells)),
        _chains=columns,
        _log=tuple((q - 1, a, u, fb) for q, a, b, u, fb, cof in elim.log))
    _check_reduction(columns, red)
    return red


def _check_reduction(columns, red):
    """The reduced columns pass check_chain_columns, iota_0 is the
    inclusion of the critical vertices (so a reduced 0-chain has the
    degree of its lift), and iota is a chain map that commutes with the
    involutions."""
    check_chain_columns(red.columns)
    if red.lifts and any(col != [(c, 1)] for c, col
                         in zip(red.cells[0], red.lifts[0])):
        raise InternalError("iota_0 is not the inclusion of the critical "
                            "vertices")
    check_chain_map("iota", red.lifts, red.columns, columns)


def _check_projections(columns, red, projections):
    """pi, given as projections, is a chain map from the simplicial
    columns to red.columns that commutes with the involutions, and
    pi iota = 1."""
    check_chain_map("pi", projections, columns, red.columns)
    for proj, lifts in zip(projections, red.lifts):
        for i, lift in enumerate(lifts):
            if _apply(proj, lift) != {i: 1}:
                raise InternalError("pi iota is not the identity")


@lru_cache(maxsize=None)
def reduced_chain_complex(X, k):
    """The G-chain complex on the critical cells of morse_reduction(X),
    a view of its columns with twist k."""
    return _view(X, k, morse_reduction(X).columns)


@lru_cache(maxsize=None)
def reduced_gmap_matrices(f):
    """The chain map of an equivariant simplicial map moved onto the
    reduced complexes, pi f iota per degree as sparse columns, for every
    coefficient system."""
    src, tgt = morse_reduction(f.source), morse_reduction(f.target)
    out = []
    for q, cols in enumerate(gmap_chain_columns(f)):
        # the map is zero in degrees the target does not have
        proj = tgt.projections[q] if q < len(tgt.cells) else []
        out.append([sorted(_apply(proj, _apply(cols, lift).items()).items())
                    for lift in src.lifts[q]])
    return tuple(out)

"""Finite simplicial complexes with an order-two simplicial involution.

A complex is stored by its maximal simplices plus a vertex permutation of
order two.  Regularity (every simplex fixed setwise is fixed vertexwise) is
enforced; one barycentric subdivision always restores it.  Simplicial
and Morse-reduced chains (morse.py) share one sparse layout, per degree the
boundary and the untwisted involution (a signed permutation) as columns of
(row, entry) pairs, one checker (check_chain_columns) and one view
(GChainComplex, which adds the twist k = 0 or 1, the only coefficient here:
chains are integral over Z/2 too, the modulus entering in presentations).
Chain maps are such columns; only the staircase of equivariant.py turns
chain columns into a matrix.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import lru_cache

from .intlinalg import InternalError, _is_integer


class ComplexError(ValueError):
    """Structurally malformed complex or map."""


class ComplexFormatError(ComplexError):
    """Malformed complex/type file; the message names the offending field."""


@dataclass(frozen=True)
class Coeff:
    """Coefficient system: the ring Z or Z/2, with a twist parity.

    The involution acts on Z(k) coefficients by (-1)^k; the twist is
    meaningless over Z/2 and normalized to 0 there.
    """

    ring: str
    k: int = 0

    def __post_init__(self):
        if self.ring not in ("Z", "Z2"):
            raise ComplexError("ring must be 'Z' or 'Z2'")
        if not _is_integer(self.k):
            raise ComplexError("twist must be an integer, got %r" % (self.k,))
        object.__setattr__(self, "k", 0 if self.ring == "Z2" else self.k % 2)

    @property
    def mod(self):
        return 2 if self.ring == "Z2" else 0

    def shift(self):
        """The system with twist raised by one (Z/2 is its own shift)."""
        return Coeff(self.ring, self.k + 1)

    def __str__(self):
        if self.ring == "Z2":
            return "Z/2"
        return "Z" if self.k == 0 else "Z(1)"


COEFF_Z2 = Coeff("Z2")
COEFF_Z = Coeff("Z", 0)
COEFF_Z1 = Coeff("Z", 1)

COEFF_BY_FLAG = {"Z2": COEFF_Z2, "Z": COEFF_Z, "Z1": COEFF_Z1}

# the most simplices of an input's face closure or regularity repair
MAX_SIMPLICES = 1_000_000


@dataclass(frozen=True)
class GComplex:
    """Finite simplicial complex with involution, closed under faces."""

    vertex_count: int
    maximal_simplices: tuple
    involution: tuple
    auto_subdivided: bool = False


def _is_vertex_id(v, vertex_count):
    return _is_integer(v) and 0 <= v < vertex_count


def make_complex(vertex_count, simplices, involution):
    """Canonicalize the input to its maximal simplices; errors raise."""
    if vertex_count < 0:
        raise ComplexFormatError("vertices: must be nonnegative")
    involution = tuple(involution)
    if len(involution) != vertex_count:
        raise ComplexFormatError(
            "involution: expected a list of length %d, got %d"
            % (vertex_count, len(involution)))
    for v, w in enumerate(involution):
        if not _is_vertex_id(w, vertex_count):
            raise ComplexFormatError(
                "involution[%d]: %r is not a vertex id" % (v, w))
    if len(set(involution)) != vertex_count:
        raise ComplexFormatError("involution: not a permutation")

    cleaned = set()
    for idx, simplex in enumerate(simplices):
        # check the entries before sorting, which would compare them
        for v in simplex:
            if not _is_vertex_id(v, vertex_count):
                raise ComplexFormatError(
                    "simplices[%d]: %r is not a vertex id" % (idx, v))
        simplex = tuple(sorted(simplex))
        if not simplex:
            raise ComplexFormatError("simplices[%d]: empty simplex" % idx)
        if len(set(simplex)) != len(simplex):
            raise ComplexFormatError(
                "simplices[%d]: repeated vertex in %r" % (idx, list(simplex)))
        cleaned.add(simplex)
    missing = set(range(vertex_count)).difference(*cleaned)
    if missing:
        raise ComplexFormatError(
            "simplices: vertex %d appears in no simplex" % min(missing))

    # drop non-maximal faces one size at a time, longest first: a simplex
    # is maximal unless it is a face of a longer kept one (a face of the
    # closure, so held to its cap)
    maximal = []
    for n in sorted({len(s) for s in cleaned}, reverse=True):
        faces = set()
        for s in maximal:
            _check_size(2 ** len(s) - 1)
            faces.update(itertools.combinations(s, n))
            _check_size(len(faces))
        maximal += [s for s in cleaned if len(s) == n and s not in faces]
    maximal.sort(key=lambda s: (len(s), s))
    return GComplex(vertex_count, tuple(maximal), involution)


def _check_size(count, what="simplices: the face closure has at least"):
    if count > MAX_SIMPLICES:
        raise ComplexFormatError("%s %d simplices, past the cap %d"
                                 % (what, count, MAX_SIMPLICES))


@lru_cache(maxsize=None)
def simplices_by_dim(X):
    """All faces, per dimension, in sorted order: the one face closure.
    Its count is checked for each maximal simplex alone, then per face
    size, so that little past the cap is built."""
    levels = [set() for _ in range(dim(X) + 1)]
    count = 0
    for s in X.maximal_simplices:
        _check_size(2 ** len(s) - 1)
        for q, level in enumerate(levels[:len(s)]):
            count -= len(level)
            level.update(itertools.combinations(s, q + 1))
            count += len(level)
            _check_size(count)
    return tuple(tuple(sorted(level)) for level in levels)


def dim(X):
    return max(map(len, X.maximal_simplices), default=0) - 1


def simplex_count(X):
    return sum(len(level) for level in simplices_by_dim(X))


def euler_characteristic(X):
    return sum((-1) ** q * len(level)
               for q, level in enumerate(simplices_by_dim(X)))


@lru_cache(maxsize=None)
def face_index(X):
    return tuple({s: i for i, s in enumerate(level)}
                 for level in simplices_by_dim(X))


def _perm_sign(seq):
    """(-1) to the number of inversions of seq."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))


def _map_columns(X, Y, vertex_map, what):
    """The chain map of the vertex map X -> Y as sparse columns, per degree
    one [(index, sign)] per simplex, or [] where its image collapses: the
    one lookup of images.  A ComplexError names the first simplex whose
    image is missing."""
    index = face_index(Y) + ({},) * (dim(X) + 1)  # no image past dim(Y)

    def column(s):
        image = [vertex_map[v] for v in s]
        i = index[len(s) - 1].get(tuple(sorted(image)))
        if i is not None:
            return [(i, _perm_sign(image))]
        face = tuple(sorted(set(image)))
        if len(face) == len(s) or face not in index[len(face) - 1]:
            raise ComplexError("%s is not simplicial: image of %r missing"
                               % (what, list(s)))
        return []
    return tuple([column(s) for s in level] for level in simplices_by_dim(X))


@lru_cache(maxsize=None)
def sigma_columns(X):
    """The sigma of chain_columns(X): the untwisted involution's columns."""
    return _map_columns(X, X, X.involution, "involution")


def validate(X):
    """None when the involution has order two, is simplicial and regular (a
    simplex whose sigma column points at itself is fixed vertexwise), else
    a message naming the first failing vertex or simplex."""
    inv = X.involution
    for v in range(X.vertex_count):
        if inv[inv[v]] != v:
            return "involution is not of order two at vertex %d" % v
    # past the cap the face closure raises here, not as a missing image
    levels = simplices_by_dim(X)
    try:
        sigma = sigma_columns(X)
    except ComplexError as exc:
        return str(exc)
    for level, cols in zip(levels, sigma):
        for j, [(i, _)] in enumerate(cols):
            if i == j and any(inv[v] != v for v in level[j]):
                return ("regularity violated: simplex %r is fixed setwise "
                        "but not vertexwise" % (list(level[j]),))
    return None


def barycentric_subdivide(X):
    """Barycentric subdivision with the induced involution.

    One subdivision always restores regularity: a setwise-fixed flag has
    every member setwise fixed, so all its barycenters are fixed vertices.
    Any other defect of X, as validate reports it, is a ComplexError.
    """
    message = validate(X)
    if message is not None and not message.startswith("regularity"):
        raise ComplexError(message)
    # face i of level q has the barycenter offsets[q] + i, moved by sigma
    offsets = list(itertools.accumulate(map(len, simplices_by_dim(X)),
                                        initial=0))
    new_inv = tuple(offsets[q] + i for q, cols in enumerate(sigma_columns(X))
                    for [(i, _)] in cols)
    index = face_index(X)
    # the full flags of distinct maximal simplices are distinct, maximal
    # and cover every barycenter, so no face filter is needed
    new_simplices = sorted(
        (tuple(sorted(offsets[i] + index[i][tuple(sorted(perm[:i + 1]))]
                      for i in range(len(perm))))
         for s in X.maximal_simplices for perm in itertools.permutations(s)),
        key=lambda s: (len(s), s))
    return GComplex(offsets[-1], tuple(new_simplices), new_inv,
                    X.auto_subdivided)


def _subdivision_size(X):
    """The simplex count of barycentric_subdivide(X): the flags of faces
    that end at a face with n vertices are the ordered set partitions of
    its vertices, counted by the Fubini numbers a(n) = 1, 3, 13, 75, ..."""
    from math import comb
    a = [1]
    for n in range(1, dim(X) + 2):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return sum(a[q + 1] * len(level)
               for q, level in enumerate(simplices_by_dim(X)))


@lru_cache(maxsize=None)
def fixed_subcomplex(X):
    """The subcomplex of vertexwise-fixed simplices, with trivial
    involution; by regularity this is the topological fixed set."""
    fixed = fixed_vertex_injection(X)
    renum = {v: i for i, v in enumerate(fixed)}
    kept = [tuple(renum[v] for v in s) for level in simplices_by_dim(X)
            for s in level if all(v in renum for v in s)]
    return make_complex(len(fixed), kept, list(range(len(fixed))))


@lru_cache(maxsize=None)
def fixed_vertex_injection(X):
    """Vertex map of the inclusion fixed_subcomplex(X) -> X (monotone, so
    every induced chain map has +1 signs)."""
    return tuple(v for v in range(X.vertex_count) if X.involution[v] == v)


@dataclass(frozen=True)
class GChainComplex:
    """The chain complex of a G-complex with a twist, a view of the checked
    sparse chain layout columns (chain_columns(X) or the columns of
    morse_reduction(X)) and the twist sign (-1)^k: sigma(q) is the twisted
    involution as sparse columns, and the staircase reads the boundaries."""

    X: GComplex
    columns: tuple
    twist: int

    def _level(self, q):
        return self.columns[q] if 0 <= q < len(self.columns) else ([], [])

    def rank(self, q):
        return len(self._level(q)[1])

    def sigma(self, q):
        return [[(i, self.twist * s)] for (i, s), in self._level(q)[1]]


def _view(X, k, columns):
    """The view of the chain layout columns of X with twist k, 0 or 1."""
    if k not in (0, 1):
        raise ComplexError("twist must be 0 or 1, got %r" % (k,))
    return GChainComplex(X, columns, -1 if k else 1)


def transpose(cols, n):
    """The n sparse columns of the transpose of the matrix with these
    sparse columns."""
    out = [[] for _ in range(n)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i].append((j, x))
    return out


def _apply(cols, entries):
    """sum of c * cols[j] over (j, c) in entries, as a dict of nonzeros."""
    out = {}
    for j, c in entries:
        for i, x in cols[j]:
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def check_chain_map(name, cols, src, tgt):
    """InternalError unless the map with sparse columns cols (per degree,
    one list of (row, entry) per cell) commutes with the boundaries and
    the involutions of src and tgt, given per degree as the (boundary,
    sigma) sparse columns of chain_columns."""
    for q, level in enumerate(cols):
        for j, col in enumerate(level):
            # a nonzero column needs a target degree q
            boundary, sigma = tgt[q] if col else ([], [])
            if (q and _apply(boundary, col) != _apply(cols[q - 1],
                                                      src[q][0][j])
                    or _apply(sigma, col) != _apply(level, src[q][1][j])):
                raise InternalError("%s does not commute with the boundary "
                                    "and the involution" % name)


@lru_cache(maxsize=None)
def chain_columns(X):
    """The integral chain data of X with the untwisted involution, in the
    sparse chain layout: per degree q a pair (boundary, sigma) of lists
    with one list of (row, entry) per q-simplex.  Checked with
    check_chain_columns, once per complex."""
    index = face_index(X)
    out = []
    for q, (basis, sigma) in enumerate(zip(simplices_by_dim(X),
                                           sigma_columns(X))):
        boundary = [[(index[q - 1][s[:i] + s[i + 1:]], (-1) ** i)
                     for i in range(len(s))] if q else []
                    for s in basis]
        out.append((boundary, sigma))
    check_chain_columns(out)
    return tuple(out)


def check_chain_columns(columns):
    """InternalError unless the sparse chain layout columns is a based
    G-chain complex: each sigma column is one entry +-1 and sigma^2 = 1,
    d^2 = 0, and d sigma = sigma d, once per cell."""
    for _, sigma in columns:
        for c, col in enumerate(sigma):
            if len(col) != 1 or col[0][1] not in (1, -1):
                raise InternalError("involution column %d is not one signed "
                                    "entry" % c)
            if sigma[col[0][0]] != [(c, col[0][1])]:
                raise InternalError("involution matrix is not an involution")
    for q in range(2, len(columns)):
        if any(_apply(columns[q - 1][0], faces) for faces in columns[q][0]):
            raise InternalError("boundary squared is nonzero")
    for (_, below), (boundary, sigma) in zip(columns, columns[1:]):
        if any(_apply(boundary, image) != _apply(below, faces)
               for image, faces in zip(sigma, boundary)):
            raise InternalError("sigma does not commute with the boundary")


@lru_cache(maxsize=None)
def chain_complex(X, k):
    """The chain complex of X with twist k, a view of its chain_columns."""
    return _view(X, k, chain_columns(X))


@dataclass(frozen=True)
class GMap:
    """Simplicial map commuting with the involutions (may collapse)."""

    source: GComplex
    target: GComplex
    vertex_map: tuple


def make_gmap(source, target, vertex_map):
    vertex_map = tuple(vertex_map)
    if len(vertex_map) != source.vertex_count:
        raise ComplexError("vertex map has wrong length")
    for v, w in enumerate(vertex_map):
        if not _is_vertex_id(w, target.vertex_count):
            raise ComplexError("vertex map sends %d to %r, not a vertex of "
                               "the target" % (v, w))
    for v in range(source.vertex_count):
        if vertex_map[source.involution[v]] != target.involution[vertex_map[v]]:
            raise ComplexError(
                "map does not commute with the involutions at vertex %d" % v)
    _map_columns(source, target, vertex_map, "map")
    return GMap(source, target, vertex_map)


def identity_map(X):
    return make_gmap(X, X, range(X.vertex_count))


def constant_map(X):
    """The equivariant collapse onto the builtin point (its involution is
    trivial, so any source works)."""
    return make_gmap(X, builtin("point"), [0] * X.vertex_count)


def fixed_inclusion(X):
    XG = fixed_subcomplex(X)
    return make_gmap(XG, X, fixed_vertex_injection(X))


def gmap_chain_columns(f):
    """The integral chain map of a simplicial map as sparse columns, per
    degree one list of (row, entry) per simplex; collapsing simplices
    contribute zero.  That it commutes with the boundary and the
    involution is checked with InternalError."""
    out = _map_columns(f.source, f.target, f.vertex_map, "map")
    check_chain_map("chain map", out, chain_columns(f.source),
                    chain_columns(f.target))
    return out


def relabel(X, perm):
    """The same complex with vertices renamed by a permutation; the
    involution is conjugated accordingly."""
    perm = tuple(perm)
    if not all(map(_is_integer, perm)) \
            or sorted(perm) != list(range(X.vertex_count)):
        raise ComplexError("relabeling is not a permutation")
    inverse = [0] * X.vertex_count
    for v, w in enumerate(perm):
        inverse[w] = v
    simplices = [tuple(perm[v] for v in s) for s in X.maximal_simplices]
    involution = [perm[X.involution[inverse[w]]]
                  for w in range(X.vertex_count)]
    return make_complex(X.vertex_count, simplices, involution)


def disjoint_union(X, Y):
    off = X.vertex_count
    simplices = list(X.maximal_simplices)
    simplices += [tuple(v + off for v in s) for s in Y.maximal_simplices]
    involution = list(X.involution) + [v + off for v in Y.involution]
    return make_complex(X.vertex_count + Y.vertex_count, simplices,
                        involution)


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

def _square_circle(involution):
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return make_complex(4, edges, involution)


def _octahedron(involution):
    # vertex pairs (0,1)=+-x, (2,3)=+-y, (4,5)=+-z
    faces = [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    return make_complex(6, faces, involution)


def _grid_torus(diagonals, col_map):
    """4 x 3 vertex grid on the torus; diagonals[i] is '/' or '\\' for the
    strip between columns i and i+1."""
    def vid(i, j):
        return 3 * (i % 4) + (j % 3)

    triangles = []
    for i in range(4):
        for j in range(3):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            if diagonals[i] == "/":
                triangles += [(a, b, d), (a, d, c)]
            else:
                triangles += [(a, b, c), (b, d, c)]
    involution = [3 * col_map[i] + j for i in range(4) for j in range(3)]
    return make_complex(12, triangles, involution)


def _klein_bottle():
    def vid(i, j):
        return 3 * (i % 4) + j

    def up(i, j):
        if j < 2:
            return vid(i, j + 1)
        return vid((-i) % 4, 0)

    triangles = []
    for i in range(4):
        for j in range(3):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = up(i, j), up(i + 1, j)
            triangles += [(a, b, d), (a, d, c)]
    return make_complex(12, triangles, list(range(12)))


def _rp2():
    faces = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
             (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    return make_complex(6, faces, list(range(6)))


_BUILTIN_FACTORIES = {
    "point": lambda: make_complex(1, [(0,)], [0]),
    "free-pair": lambda: make_complex(2, [(0,), (1,)], [1, 0]),
    "circle-antipodal": lambda: _square_circle([2, 3, 0, 1]),
    "circle-reflection": lambda: _square_circle([0, 3, 2, 1]),
    "sphere-octahedron-antipodal": lambda: _octahedron([1, 0, 3, 2, 5, 4]),
    "sphere-octahedron-reflection": lambda: _octahedron([0, 1, 2, 3, 5, 4]),
    "torus-reflection": lambda: _grid_torus("//\\\\", [0, 3, 2, 1]),
    "torus-free": lambda: _grid_torus("////", [2, 3, 0, 1]),
    "klein-bottle-trivial": _klein_bottle,
    "rp2-trivial": _rp2,
}

# per-dimension simplex counts of the documented fixed set
BUILTIN_FIXED_COUNTS = {
    "point": (1,),
    "free-pair": (),
    "circle-antipodal": (),
    "circle-reflection": (2,),
    "sphere-octahedron-antipodal": (),
    "sphere-octahedron-reflection": (4, 4),
    "torus-reflection": (6, 6),
    "torus-free": (),
    "klein-bottle-trivial": (12, 36, 24),
    "rp2-trivial": (6, 15, 10),
}

BUILTIN_EULER = {
    "point": 1,
    "free-pair": 2,
    "circle-antipodal": 0,
    "circle-reflection": 0,
    "sphere-octahedron-antipodal": 2,
    "sphere-octahedron-reflection": 2,
    "torus-reflection": 0,
    "torus-free": 0,
    "klein-bottle-trivial": 0,
    "rp2-trivial": 1,
}

BUILTIN_NAMES = tuple(_BUILTIN_FACTORIES)


@lru_cache(maxsize=None)
def builtin(name):
    """A catalogued complex; '+'-joined names give disjoint unions."""
    if "+" in name:
        parts = name.split("+")
        X = builtin(parts[0])
        for part in parts[1:]:
            X = disjoint_union(X, builtin(part))
        return X
    try:
        X = _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise ComplexError("unknown builtin complex %r (choose from %s)"
                           % (name, ", ".join(BUILTIN_NAMES))) from None
    message = validate(X)
    if message is not None:
        raise InternalError("builtin %s invalid: %s" % (name, message))
    return X


def connected_components(X):
    parent = list(range(X.vertex_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in X.maximal_simplices:
        for a, b in zip(s, s[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in range(X.vertex_count)})


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _check_object(obj, fields, where=None):
    """ComplexFormatError unless obj is a JSON object with exactly these
    fields; the message names the object (where, or the top level) and
    the first missing or unknown field."""
    if not isinstance(obj, dict):
        raise ComplexFormatError("%s: expected an object"
                                 % (where or "top level"))
    prefix = where + "." if where else ""
    for key in fields:
        if key not in obj:
            raise ComplexFormatError("%s%s: missing field" % (prefix, key))
    extra = set(obj).difference(fields)
    if extra:
        raise ComplexFormatError(
            "%s%s: unknown field" % (prefix, sorted(extra)[0]))


def complex_from_dict(obj):
    """Build a complex from the file schema {"vertices", "simplices",
    "involution"}.  Regularity violations are repaired by one barycentric
    subdivision, recorded in the auto_subdivided flag; any other defect is
    an error naming the field."""
    _check_object(obj, ("vertices", "simplices", "involution"))
    if not _is_integer(obj["vertices"]):
        raise ComplexFormatError("vertices: expected an integer")
    if not isinstance(obj["simplices"], list):
        raise ComplexFormatError("simplices: expected a list of lists")
    for i, s in enumerate(obj["simplices"]):
        if not isinstance(s, list):
            raise ComplexFormatError("simplices[%d]: expected a list" % i)
    if not isinstance(obj["involution"], list):
        raise ComplexFormatError("involution: expected a list")
    X = make_complex(obj["vertices"], obj["simplices"], obj["involution"])
    message = validate(X)
    if message is None:
        return X
    if message.startswith("regularity"):
        _check_size(_subdivision_size(X),
                    "regularity repair: the subdivision would have")
        X = replace(barycentric_subdivide(X), auto_subdivided=True)
        message = validate(X)
        if message is None:
            return X
    raise ComplexFormatError(message)


def read_json(path):
    """The JSON document in the file at path.  A file that is not UTF-8,
    not JSON, or too long or deep to parse is a ComplexFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ComplexFormatError("file is not UTF-8: %s" % exc.reason) \
            from None
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(
            "invalid JSON at line %d column %d: %s"
            % (exc.lineno, exc.colno, exc.msg)) from None
    except ValueError as exc:
        # an integer literal longer than the interpreter converts
        raise ComplexFormatError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise ComplexFormatError("JSON nested too deeply") from None


def load_complex(path):
    return complex_from_dict(read_json(path))

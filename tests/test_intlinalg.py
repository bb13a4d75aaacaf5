import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from equihom import intlinalg
from equihom.complexes import (
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    barycentric_subdivide,
    builtin,
    chain_complex,
    constant_map,
    dim,
    fixed_inclusion,
    fixed_subcomplex,
    gmap_chain_columns,
    identity_map,
    make_complex,
    make_gmap,
    simplex_count,
    simplices_by_dim,
    validate,
)
from equihom.equivariant import (
    TotalCochainComplex,
    TotalComplex,
    _blockwise,
    _coefficient_bockstein,
    _column_projection,
    _edge_connecting,
    _graded_group,
    _mod2_reduction,
    _shift_matrix,
    _times_two,
    cohomology,
    cohomology_involution,
    edge_morphism,
    edge_morphism_cohomology,
    eq_cohomology,
    eq_homology,
    eta_cap,
    fixed_offsets,
    graded_bockstein,
    group_cohomology,
    homology,
    homology_involution,
    localize_cohomology,
    localize_homology,
    ordinary_bockstein,
    ordinary_pushforward_hom,
    parity_projection,
    pullback_hom,
    pushforward_hom,
    reduced_total_cochain_complex_of,
    reduced_total_complex_of,
)
from equihom.intlinalg import (
    ChainConditionError,
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    LinAlgError,
    LinearSolver,
    exact_at,
    homology_at,
    image_lattice,
    induced_hom,
    kernel_lattice,
    lattices_equal,
    smith_normal_form,
)
from equihom.morse import morse_reduction, reduced_chain_complex
from equihom.verify import fuzz_complexes

from chain_matrices import boundary, dense, from_blocks, sparse, transpose

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def mat(rows):
    return IntMatrix.from_rows(rows)


def random_matrix(rng, rows, cols, bound=4):
    return IntMatrix(rows, cols,
                     [[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def random_sparse_matrix(rng, rows, cols, density=0.2):
    return IntMatrix(rows, cols,
                     [[rng.choice((-1, 1)) if rng.random() < density else 0
                       for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n, ops=12):
    m = [list(r) for r in IntMatrix.identity(n).data]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += c * m[j][t]
    return IntMatrix(n, n, m)


def check_decomposition(M, dec):
    assert dec.U @ M @ dec.V == dec.D
    assert dec.U @ dec.Uinv == IntMatrix.identity(M.rows)
    assert dec.V @ dec.Vinv == IntMatrix.identity(M.cols)
    diag = dec.diag
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert dec.D.data[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestSmithNormalForm:
    def test_zero_1x1(self):
        dec = smith_normal_form(mat([[0]]))
        assert dec.D == mat([[0]])

    def test_identity(self):
        ident = IntMatrix.identity(3)
        dec = smith_normal_form(ident)
        assert dec.D == ident

    def test_reference_2x2(self):
        # gcd of entries gives d1 = 2, gcd of 2x2 minors gives d1*d2 = 12
        M = mat([[2, 4], [0, 6]])
        dec = smith_normal_form(M)
        assert dec.diag == (2, 6)
        check_decomposition(M, dec)
        entries = [x for row in M.data for x in row if x]
        assert math.gcd(*entries) == 2
        minor = 2 * 6 - 4 * 0
        assert abs(minor) == 2 * 6

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            M = IntMatrix.zeros(r, c)
            dec = smith_normal_form(M)
            check_decomposition(M, dec)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_reconstruction(self, seed):
        rng = random.Random(seed)
        cases = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))]
        # tall and wide
        cases += [random_matrix(rng, r, c)
                  for r, c in ((1, 12), (12, 1), (9, 15), (15, 9))]
        # sparse +-1 with zero rows and columns, like boundary matrices
        cases.append(with_zero_lines(
            rng, random_sparse_matrix(rng, rng.randint(1, 12),
                                      rng.randint(1, 12)),
            rng.randint(1, 3), rng.randint(1, 3)))
        # [d | 2 I], the stack homology_at builds for mod 2
        d = random_sparse_matrix(rng, rng.randint(1, 8), rng.randint(1, 7))
        cases.append(IntMatrix.hstack(d, IntMatrix.identity(d.rows).scale(2)))
        # no unit entries, so pivots leave remainders and fail to divide
        cases.append(IntMatrix(6, 7, [[rng.choice((0, 2, 3, 5, 6, 10, 15))
                                       for _ in range(7)] for _ in range(6)]))
        for M in cases:
            dec = smith_normal_form(M)
            check_decomposition(M, dec)
            # reconstructing Uinv . D . Vinv returns M
            assert dec.Uinv @ dec.D @ dec.Vinv == M

    @pytest.mark.parametrize("rows, diag", [
        ([[2], [3]], (1,)),  # a remainder in the pivot column
        ([[2, 3]], (1,)),  # a remainder in the pivot row
        ([[2, 0], [0, 3]], (1, 6)),  # the pivot 2 does not divide 3
        ([[4, 0, 0], [0, 6, 0], [0, 0, 9]], (1, 6, 36)),  # chained
        ([[-4, 6], [6, 9]], (1, 72)),  # a negative pivot
    ])
    def test_pivot_control_paths(self, rows, diag):
        M = mat(rows)
        dec = smith_normal_form(M)
        check_decomposition(M, dec)
        assert dec.diag == diag

    def test_deterministic(self):
        M = mat([[6, 4, 2], [4, 2, 8], [0, 10, 6]])
        a = smith_normal_form(M)
        b = smith_normal_form(M)
        assert a.U == b.U and a.V == b.V and a.D == b.D

    @pytest.mark.parametrize("seed", range(6))
    def test_larger_entries_stress(self, seed):
        rng = random.Random(7000 + seed)
        square = random_matrix(rng, rng.randint(4, 8), rng.randint(4, 8),
                               bound=30)
        tall = random_matrix(rng, 15, 9, bound=30)
        for M in (square, tall, transpose(tall)):
            dec = smith_normal_form(M)
            check_decomposition(M, dec)
            assert dec.Uinv @ dec.D @ dec.Vinv == M


def _identity_lists(n):
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _add_row_multiple(dst, src, c):
    for t, x in enumerate(src):
        if x:
            dst[t] += c * x


def reference_smith_normal_form(M):
    """The eager Smith normal form: the same pivot loop as
    intlinalg.smith_normal_form, updating all four transforms with D at
    every step.  Returns (U, D, V, Uinv, Vinv)."""
    m, n = M.rows, M.cols
    D = [list(row) for row in M.data]
    # U^-1 and V are kept transposed, so that the column operations they
    # take are row operations like every other transform update
    U = _identity_lists(m)
    UiT = _identity_lists(m)
    VT = _identity_lists(n)
    Vi = _identity_lists(n)

    def row_swap(i, j):
        if i != j:
            for A in (D, U, UiT):
                A[i], A[j] = A[j], A[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j on D and U; U^-1 takes col_j -= c * col_i
        _add_row_multiple(D[i], D[j], c)
        _add_row_multiple(U[i], U[j], c)
        _add_row_multiple(UiT[j], UiT[i], -c)

    t = 0
    while t < min(m, n):
        prev = D[t - 1][t - 1] if t else 1
        best = piv = bad = None
        for i in range(t, m):
            for j in range(t, n):
                a = D[i][j]
                if a:
                    if a % prev:
                        bad = i
                        break
                    if best is None or abs(a) < best:
                        best = abs(a)
                        piv = (i, j)
                        if best == 1:
                            break
            if bad is not None or best == 1:
                break
        if bad is not None:
            t -= 1
            row_addmul(t, bad, 1)
            continue
        if piv is None:
            break
        i, j = piv
        row_swap(t, i)
        if j != t:
            for r in D:
                r[t], r[j] = r[j], r[t]
            for A in (VT, Vi):
                A[t], A[j] = A[j], A[t]
        if D[t][t] < 0:
            for A in (D, U, UiT):
                A[t] = [-x for x in A[t]]
        d = D[t][t]
        remainder = False
        for i in range(t + 1, m):
            q = D[i][t] // d
            if q:
                row_addmul(i, t, -q)
            if D[i][t]:
                remainder = True
        if remainder:
            continue
        # col_j -= q * col_t changes D in row t only; V^-1 takes
        # row_t += q * row_j
        for j in range(t + 1, n):
            q = D[t][j] // d
            if q:
                D[t][j] -= q * d
                _add_row_multiple(VT[j], VT[t], -q)
                _add_row_multiple(Vi[t], Vi[j], q)
            if D[t][j]:
                remainder = True
        if not remainder:
            t += 1

    return (IntMatrix(m, m, U), IntMatrix(m, n, D), IntMatrix(n, n, zip(*VT)),
            IntMatrix(m, m, zip(*UiT)), IntMatrix(n, n, Vi))


SNF_FIELDS = ("U", "D", "V", "Uinv", "Vinv")

# Smith inputs of one `verify core` and one `verify exactness` run, in a
# fresh process so that the memo caches are cold and every elimination is
# reached
CAPTURE_SMITH_INPUTS = r"""
import json
from equihom import intlinalg, verify

seen = {}
smith = intlinalg.smith_normal_form


def capturing(M):
    seen.setdefault((M.rows, M.cols, M.data), None)
    return smith(M)


intlinalg.smith_normal_form = capturing
verify.run_suite("core")
verify.run_suite("exactness")
print(json.dumps([[r, c, [list(row) for row in data]]
                  for r, c, data in seen]))
"""


@pytest.fixture(scope="module")
def verify_core_smith_inputs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", CAPTURE_SMITH_INPUTS],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [IntMatrix(r, c, data) for r, c, data in json.loads(proc.stdout)]


def smith_corpus(seed):
    """Seeded differential inputs: every shape up to 12 x 12, sparse +-1
    matrices, [d | 2 I] stacks and matrices over a pool without units."""
    rng = random.Random(seed)
    cases = [random_matrix(rng, r, c, bound=rng.choice((1, 4, 30)))
             for r in range(13) for c in range(13)]
    for _ in range(20):
        cases.append(with_zero_lines(
            rng, random_sparse_matrix(rng, rng.randint(1, 12),
                                      rng.randint(1, 12),
                                      density=rng.choice((0.1, 0.3, 0.6))),
            rng.randint(0, 2), rng.randint(0, 2)))
        d = random_sparse_matrix(rng, rng.randint(1, 10), rng.randint(0, 10))
        cases.append(IntMatrix.hstack(d, IntMatrix.identity(d.rows).scale(2)))
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        cases.append(IntMatrix(r, c, [
            [rng.choice((1, -1)) * rng.choice((0, 2, 3, 5, 6, 10, 15))
             for _ in range(c)] for _ in range(r)]))
    return cases


def check_smith_against_reference(M):
    dec = smith_normal_form(M)
    assert tuple(getattr(dec, f) for f in SNF_FIELDS) \
        == reference_smith_normal_form(M)
    check_decomposition(M, dec)


class TestLazyTransformsAgainstReference:
    """Every field of the decomposition, transforms built on first read,
    equals the eager reference entry for entry."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_corpus(self, seed):
        for M in smith_corpus(500 + seed):
            check_smith_against_reference(M)

    def test_verify_core_inputs(self, verify_core_smith_inputs):
        assert len(verify_core_smith_inputs) > 100
        for M in verify_core_smith_inputs:
            check_smith_against_reference(M)

    def test_any_read_order_and_rereads(self):
        rng = random.Random(77)
        cases = [random_matrix(rng, 5, 7), random_sparse_matrix(rng, 8, 6),
                 mat([[-4, 6], [6, 9]]), IntMatrix.zeros(3, 0)]
        for M in cases:
            expected = dict(zip(SNF_FIELDS, reference_smith_normal_form(M)))
            for order in itertools.permutations(SNF_FIELDS):
                dec = smith_normal_form(M)
                for field in order + order:
                    assert getattr(dec, field) == expected[field]
            # a field read twice is the same matrix, built once
            assert dec.V is dec.V and dec.Uinv is dec.Uinv


class TestKernel:
    def test_kernel_of_projection(self):
        M = mat([[1, 0, 0], [0, 1, 0]])
        K = integer_kernel(M)
        assert K.cols == 1
        assert (M @ K).is_zero()

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_random(self, seed):
        rng = random.Random(100 + seed)
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        K = integer_kernel(M)
        assert (M @ K).is_zero()
        # basis: the columns are part of a unimodular matrix, hence primitive
        if K.cols:
            dec = smith_normal_form(K)
            assert all(d == 1 for d in dec.diag if d)


class TestHomologyAt:
    def test_zero_differentials(self):
        z_in = IntMatrix.zeros(2, 0)
        z_out = IntMatrix.zeros(0, 2)
        grp = homology_at(z_in, z_out)
        assert grp == FGAbelianGroup(2)

    def test_times_two(self):
        d_in = mat([[2]])
        d_out = IntMatrix.zeros(0, 1)
        grp = homology_at(d_in, d_out)
        assert grp == FGAbelianGroup(0, (2,))

    def test_circle_from_square(self):
        # boundary of the 4-gon circle: vertices 0..3, edges 01,12,23,03
        d1 = mat([
            [-1, 0, 0, -1],
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, 1],
        ])
        h1 = homology_at(IntMatrix.zeros(4, 0), d1)
        assert h1 == FGAbelianGroup(1)
        h0 = homology_at(d1, IntMatrix.zeros(0, 4))
        assert h0 == FGAbelianGroup(1)

    def test_rejects_non_complex(self):
        d_in = mat([[1], [0]])
        d_out = mat([[1, 0]])
        with pytest.raises(ChainConditionError):
            homology_at(d_in, d_out)
        with pytest.raises(ChainConditionError):
            homology_at(d_in, d_out, mod=2)
        # the composite is 2: no complex over Z, a complex over Z/2
        d_in = mat([[1], [1]])
        d_out = mat([[1, 1]])
        with pytest.raises(ChainConditionError):
            homology_at(d_in, d_out)
        assert homology_at(d_in, d_out, mod=2) == FGAbelianGroup(0)

    @pytest.mark.parametrize("mod", [2.0, True, None, 3, -2, "2"])
    def test_modulus_is_the_integer_0_or_2(self, mod):
        d_in, d_out = mat([[2]]), IntMatrix.zeros(0, 1)
        misses = intlinalg._subquotient.cache_info().misses
        with pytest.raises(LinAlgError, match="modulus must be"):
            homology_at(d_in, d_out, mod)
        # nothing is stored under the key of an exact modulus
        assert intlinalg._subquotient.cache_info().misses == misses
        assert type(homology_at(d_in, d_out, 2).ambient_orders[0]) is int

    def test_mod2(self):
        d_in = mat([[2]])
        d_out = IntMatrix.zeros(0, 1)
        grp = homology_at(d_in, d_out, mod=2)
        # multiplication by two is zero mod 2
        assert grp == FGAbelianGroup(0, (2,))

    def test_generator_lifts_reduce(self):
        d1 = mat([
            [-1, 0, 0, -1],
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, 1],
        ])
        h1 = homology_at(IntMatrix.zeros(4, 0), d1)
        gen = h1.generators[0]
        assert h1.reduce(gen) == (1,)
        assert h1.reduce([2 * g for g in gen]) == (2,)
        assert h1.reduce(h1.lift((5,))) == (5,)

    @pytest.mark.parametrize("seed", range(8))
    def test_unimodular_conjugation_invariance(self, seed):
        rng = random.Random(1000 + seed)
        g = rng.randint(1, 5)
        d_in = random_matrix(rng, g, rng.randint(0, 4), bound=2)
        # make d_out vanish on im(d_in) by picking d_out from the left
        # kernel of d_in
        left = transpose(integer_kernel(transpose(d_in)))
        if left.rows == 0:
            left = IntMatrix.zeros(0, g)
        h = homology_at(d_in, left)
        P = random_unimodular(rng, g)
        Pinv = smith_normal_form(P).Vinv @ smith_normal_form(P).Uinv
        # U P V = D = I so P^-1 = V U
        dec = smith_normal_form(P)
        assert dec.D == IntMatrix.identity(g)
        Pinv = dec.V @ dec.U
        assert P @ Pinv == IntMatrix.identity(g)
        h2 = homology_at(P @ d_in, left @ Pinv)
        assert h == h2

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_nullity(self, seed):
        rng = random.Random(2000 + seed)
        g = rng.randint(1, 5)
        d_in = random_matrix(rng, g, rng.randint(0, 4), bound=2)
        left = transpose(integer_kernel(transpose(d_in)))
        h = homology_at(d_in, left)
        dim_ker = g - smith_normal_form(left).rank
        rank_im = smith_normal_form(d_in).rank
        assert h.free_rank == dim_ker - rank_im


class TestInducedHom:
    def _circle_h1(self):
        d1 = mat([
            [-1, 0, 0, -1],
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, 1],
        ])
        return homology_at(IntMatrix.zeros(4, 0), d1)

    def test_identity(self):
        h1 = self._circle_h1()
        hom = induced_hom(sparse(IntMatrix.identity(4)), h1, h1)
        assert hom.matrix == IntMatrix.identity(1)

    def test_zero(self):
        h1 = self._circle_h1()
        hom = induced_hom(sparse(IntMatrix.zeros(4, 4)), h1, h1)
        assert hom.is_zero()

    def test_multiplication_by_two(self):
        h1 = self._circle_h1()
        hom = induced_hom(sparse(IntMatrix.identity(4).scale(2)), h1, h1)
        assert hom.matrix == mat([[2]])
        # direct evaluation on the fundamental cycle agrees
        gen = h1.generators[0]
        assert h1.reduce([2 * g for g in gen]) == (2,)

    def test_rejects_non_chain_map(self):
        d_in = mat([[2], [0]])
        d_out = IntMatrix.zeros(0, 2)
        src = homology_at(d_in, d_out)
        # the map sends the boundary lattice outside itself
        bad = mat([[0, 1], [1, 0]])
        with pytest.raises(LinAlgError):
            induced_hom(sparse(bad), src, src)

    @pytest.mark.parametrize("columns", [
        [[(0, 1)], [(1, 1)], [(2, 1)]],
        [[(0, 1)], [(1, 1)], [(2, 1)], [(3, 1)], []],
        [[(0, 1)], [(1, 1)], [(2, 1)], [(4, 1)]],
        [[(0, 1)], [(1, 1)], [(-1, 1)], [(3, 1)]],
    ], ids=["column-short", "column-over", "row-at-ambient-rank",
            "negative-row"])
    def test_rejects_columns_outside_the_ambient(self, columns):
        # h1 has ambient rank 4 (the edges), so the identity has four
        # columns with rows 0..3
        h1 = self._circle_h1()
        with pytest.raises(LinAlgError, match="wrong shape"):
            induced_hom(columns, h1, h1)

    @pytest.mark.parametrize("seed", range(6))
    def test_functoriality_on_random_chain_maps(self, seed):
        rng = random.Random(3000 + seed)
        h1 = self._circle_h1()
        # random words in the symmetries of the 4-gon (edge order
        # 01, 12, 23, 03): rotation by one step and the reflection
        # fixing vertices 0 and 2, both genuine chain maps
        rotation = mat([
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, -1, 0],
        ])
        reflection = mat([
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, -1, 0, 0],
            [1, 0, 0, 0],
        ])
        def word():
            out = IntMatrix.identity(4)
            for _ in range(rng.randint(1, 4)):
                out = out @ rng.choice((rotation, reflection))
            return out
        f, g = word(), word()
        hf = induced_hom(sparse(f), h1, h1)
        hg = induced_hom(sparse(g), h1, h1)
        hgf = induced_hom(sparse(g @ f), h1, h1)
        assert hg.compose(hf).matrix == hgf.matrix
        assert hgf.matrix.data[0][0] in (-1, 1)


def matrix_with_invariants(rng, m, n, diag):
    """P . D . Q for random unimodular P, Q and D = diag(diag) padded with
    zeros to m x n."""
    D = IntMatrix(m, n, [[diag[i] if i == j and i < len(diag) else 0
                          for j in range(n)] for i in range(m)])
    return random_unimodular(rng, m) @ D @ random_unimodular(rng, n)


def with_zero_lines(rng, M, extra_rows, extra_cols):
    """M with zero rows and zero columns inserted at random places."""
    rows = [list(r) for r in M.data]
    for _ in range(extra_rows):
        rows.insert(rng.randint(0, len(rows)), [0] * M.cols)
    cols = M.cols
    for _ in range(extra_cols):
        at = rng.randint(0, cols)
        for r in rows:
            r.insert(at, 0)
        cols += 1
    return IntMatrix(len(rows), cols, rows)


def dense_solve(dec, b):
    """V . D^+ . U . b from the dense Smith decomposition dec of M, or None
    when U . b is not divisible by the invariant factors."""
    diag = dec.diag
    c = dec.U.mul_vector(b)
    z = [0] * dec.V.rows
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d:
            q, r = divmod(ci, d)
            if r:
                return None
            z[i] = q
        elif ci:
            return None
    return dec.V.mul_vector(z)


def reference_solve(M, b):
    return dense_solve(smith_normal_form(M), b)


def relation_matrix(orders):
    """The dense relation columns d.e_i over the nonzero orders d, built
    here so that the references do not depend on the kernel's own."""
    kept = [j for j, d in enumerate(orders) if d]
    return IntMatrix(len(orders), len(kept),
                     [[d if i == j else 0 for j in kept]
                      for i, d in enumerate(orders)])


def integer_kernel(M):
    """A basis of the plain integer kernel {x : M x = 0}: the columns of V
    past the rank, by the eager reference elimination."""
    _, D, V, _, _ = reference_smith_normal_form(M)
    r = sum(1 for i in range(min(D.rows, D.cols)) if D.data[i][i])
    return IntMatrix(V.rows, V.cols - r, [row[r:] for row in V.data])


def stacked_kernel(M, orders):
    """The dense reference of the lattice {x : M x in R}: the integer
    kernel of [M | R], R = relation_matrix(orders), cut to its top M.cols
    rows."""
    K = integer_kernel(IntMatrix.hstack(M, relation_matrix(orders)))
    return IntMatrix(M.cols, K.cols, K.data[:M.cols])


def stacked_solve(M, orders, b):
    """The dense reference of solving M x = b modulo the relations over
    orders: the coefficients of M's columns in a solution on [M | R]."""
    sol = reference_solve(IntMatrix.hstack(M, relation_matrix(orders)), b)
    return None if sol is None else sol[:M.cols]


def reference_reducer(grp, d_out, target_orders):
    """reduce by the dense formula, built once per group: solve in the
    cycle basis (the kernel of [d_out | R] cut to its top rows), apply the
    full U_y of the boundary Smith decomposition, keep the rows whose
    invariant factor is not 1.  Returns the function, which gives None for
    a non-cycle, and the orders of the coordinates it keeps."""
    kmat = stacked_kernel(d_out, target_orders)
    ks = smith_normal_form(kmat)
    lmat = IntMatrix.hstack(grp.d_in, relation_matrix(grp.ambient_orders))
    sols = [dense_solve(ks, col) for col in lmat.columns()]
    ymat = IntMatrix(kmat.cols, len(sols),
                     [[sol[i] for sol in sols] for i in range(kmat.cols)])
    sy = smith_normal_form(ymat)
    orders = [sy.diag[i] if i < len(sy.diag) else 0
              for i in range(kmat.cols)]

    def reduce(vec):
        y = dense_solve(ks, vec)
        if y is None:
            return None
        u = sy.U.mul_vector(y)
        return tuple(u[i] % d if d else u[i]
                     for i, d in enumerate(orders) if d != 1)
    return reduce, tuple(d for d in orders if d != 1)


def random_cycles(grp, rng, rounds):
    """Pairs (random combination of generators, boundaries and relations,
    random noise) over the ambient of grp."""
    g = grp.ambient_rank
    spanning = list(grp.generators) + grp.d_in.columns() \
        + relation_matrix(grp.ambient_orders).columns()
    for _ in range(rounds):
        cycle = [0] * g
        for vec in spanning:
            c = rng.randint(-3, 3)
            cycle = [a + c * v for a, v in zip(cycle, vec)]
        yield cycle, [rng.randint(-2, 2) for _ in range(g)]


def invertible_mod_2(A):
    """Whether the square matrix A is invertible mod 2: its determinant,
    the product of its invariant factors, is odd."""
    dec = smith_normal_form(A)
    return dec.rank == A.rows and all(d % 2 for d in dec.diag)


def check_against_reference(grp, d_out, target_orders, rng, rounds=10):
    """grp has the group type of the dense reference; random cycles
    (combinations of generators, boundaries and relations) and random
    noise reduce as the reference does, a non-cycle raises, and the lift
    of every unit vector reduces back to it.

    Over Z/2 the generators are echelon choices, not the Smith form's, so
    the coordinates agree through a change of basis: A, whose column k is
    the reference coordinates of lift(e_k), is invertible mod 2, and the
    reference coordinates of every cycle are A times its coordinates.
    Other groups are compared coordinate for coordinate.  Returns the
    number of non-cycles among the vectors reduced."""
    reference, orders = reference_reducer(grp, d_out, target_orders)
    assert orders == grp.orders
    n = grp.ngens
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if set(orders) <= {2}:
        A = IntMatrix.from_columns(n, [reference(grp.lift(e))
                                       for e in units])
        assert invertible_mod_2(A)

        def translate(coords):
            return tuple(v % 2 for v in A.mul_vector(coords))
    else:
        translate = tuple
    non_cycles = 0
    for cycle, noise in random_cycles(grp, rng, rounds):
        for vec in (cycle, noise):
            want = reference(vec)
            if want is None:
                non_cycles += 1
                with pytest.raises(LinAlgError):
                    grp.reduce(vec)
            else:
                assert translate(grp.reduce(vec)) == want
        assert reference(cycle) is not None
    for unit in units:
        assert grp.reduce(grp.lift(unit)) == unit
    return non_cycles


def random_chain_pair(rng, mod):
    """Random d_in : Z^s -> Z^g, d_out : Z^g -> Z^h with d_out . d_in = 0
    (mod 2 only, when mod=2): d_in = P [A; 0], d_out = [0 | E] P^-1."""
    g = rng.randint(1, 7)
    r = rng.randint(0, g)
    s, h = rng.randint(0, 4), rng.randint(0, 4)
    P = random_unimodular(rng, g)
    dec = smith_normal_form(P)
    Pinv = dec.V @ dec.U
    A = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(r)]
    E = [[rng.randint(-2, 2) for _ in range(g - r)] for _ in range(h)]
    d_in = P @ IntMatrix(g, s, A + [[0] * s] * (g - r))
    d_out = IntMatrix(h, g, [[0] * r + row for row in E]) @ Pinv
    if mod:
        d_out = d_out + random_matrix(rng, h, g, bound=1).scale(mod)
    return d_in, d_out


SOLVER_CASES = {
    # name: (rows, cols, invariant factors, zero rows, zero columns)
    "full-rank": (6, 4, (1, 1, 1, 1), 0, 0),
    "rank-deficient": (5, 6, (1, 1, 0), 0, 0),
    "torsion": (5, 5, (1, 2, 6, 12), 0, 0),
    "zero-lines": (4, 4, (1, 3), 2, 2),
}


class TestSolverAgainstDenseReference:
    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_vector(self, case, seed):
        rng = random.Random(4000 + seed)
        m, n, diag, zr, zc = SOLVER_CASES[case]
        M = with_zero_lines(rng, matrix_with_invariants(rng, m, n, diag),
                            zr, zc)
        solver = LinearSolver((M, (0,) * M.rows))
        outcomes = set()
        for _ in range(12):
            x = [rng.randint(-3, 3) for _ in range(M.cols)]
            b = M.mul_vector(x)
            for rhs in (b, [bi + rng.randint(-1, 1) for bi in b],
                        [rng.randint(-5, 5) for _ in b]):
                got = solver.solve_vector(rhs)
                assert got == reference_solve(M, rhs)
                if got is not None:
                    assert M.mul_vector(got) == list(rhs)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
    def test_solve_vector_empty_shapes(self, m, n):
        M = IntMatrix.zeros(m, n)
        solver = LinearSolver((M, (0,) * m))
        assert solver.solve_vector([0] * m) == reference_solve(M, [0] * m) \
            == [0] * n
        if m:
            assert solver.solve_vector([1] * m) is None
            assert reference_solve(M, [1] * m) is None

    @pytest.mark.parametrize("mod", [0, 2])
    @pytest.mark.parametrize("seed", range(10))
    def test_reduce(self, mod, seed):
        rng = random.Random(5000 + 100 * mod + seed)
        d_in, d_out = random_chain_pair(rng, mod)
        check_against_reference(
            homology_at(d_in, d_out, mod=mod), d_out,
            (mod,) * d_out.rows, rng)


def random_module(rng):
    """A module mixing Z/2, Z/4 and free generators, with a random
    signed-permutation involution preserving the orders."""
    orders = [2] * rng.randint(0, 3) + [4] * rng.randint(0, 2)
    free = rng.randint(0, 3)
    module = FGAbelianGroup(free, orders)
    orders = module.orders
    n = module.ngens
    sigma = [[0] * n for _ in range(n)]
    for d in set(orders):
        block = [i for i in range(n) if orders[i] == d]
        rng.shuffle(block)
        while block:
            i = block.pop()
            sign = rng.choice((-1, 1))
            j = block.pop() if block and rng.random() < 0.6 else i
            sigma[i][j] = sigma[j][i] = sign
    return module, IntMatrix(n, n, sigma)


class TestGroupCohomologyReduce:
    # the only presentations whose relation columns skip rows (the free
    # generators), where z of d_out . x + R . z = 0 comes by division
    @pytest.mark.parametrize("seed", range(12))
    def test_reduce_matches_reference(self, seed):
        rng = random.Random(6000 + seed)
        module, sigma = random_module(rng)
        ident = IntMatrix.identity(module.ngens)
        for p in range(4):
            d_out = ident - sigma.scale(-1 if p % 2 else 1)
            check_against_reference(group_cohomology(module, sigma, p),
                                    d_out, module.orders, rng)


class TestOnePassReduce:
    """reduce tests the cycle and sums the generator coordinates in one
    pass over the nonzeros of a vector, through the cycle coordinates
    composed with the generator coordinates; it agrees with the dense
    reference on cycles and non-cycles of random Z, Z/2 and mixed-order
    presentations, and takes exact integers only."""

    @staticmethod
    def presentations(family, rng):
        """(group, d_out, target orders) of one random draw."""
        if family == "mixed":
            module, sigma = random_module(rng)
            ident = IntMatrix.identity(module.ngens)
            for p in range(4):
                yield (group_cohomology(module, sigma, p),
                       ident - sigma.scale(-1 if p % 2 else 1),
                       module.orders)
        else:
            mod = 2 if family == "Z/2" else 0
            d_in, d_out = random_chain_pair(rng, mod)
            yield homology_at(d_in, d_out, mod=mod), d_out, \
                (mod,) * d_out.rows

    @pytest.mark.parametrize("family", ["Z", "Z/2", "mixed"])
    def test_agrees_with_the_reference_on_cycles_and_non_cycles(self,
                                                                family):
        rng = random.Random(6500 + len(family))
        non_cycles = 0
        for _ in range(16):
            for grp, d_out, orders in self.presentations(family, rng):
                non_cycles += check_against_reference(grp, d_out, orders,
                                                      rng)
        assert non_cycles > 0

    @pytest.mark.parametrize("coeff", [COEFF_Z2, COEFF_Z], ids=["Z2", "Z"])
    @pytest.mark.parametrize("vec", [[0.5, 0.5], [True, True], [0.0, 0]],
                             ids=["halves", "bools", "float-zero"])
    def test_refuses_entries_that_are_not_exact_integers(self, coeff, vec):
        # (1, 1) is the cycle of H_1; lift and GroupHom.apply refuse such
        # coordinates as well
        grp = homology(builtin("circle-reflection"), coeff, 1)
        assert grp.reduce([1, 1]) == (1,)
        with pytest.raises(LinAlgError, match="exact integers"):
            grp.reduce(vec)


def square_circle(last=1):
    """H_1 of the square circle (edges 01, 12, 23, 03) over Z, the last
    edge scaled by last: for last = -1 an equal group that is another
    presentation object."""
    d1 = mat([
        [-1, 0, 0, -last],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, last],
    ])
    return homology_at(IntMatrix.zeros(4, 0), d1)


class TestMapsAreMemoEntries:
    """induced_hom gives one GroupHom per (columns, source object, target
    object); exact_at and group_cohomology are memoized by value; no memo
    keeps an exception."""

    def test_equal_columns_give_one_map(self):
        h1 = square_circle()
        hom = induced_hom(sparse(IntMatrix.identity(4)), h1, h1)
        assert induced_hom([[(j, 1)] for j in range(4)], h1, h1) is hom
        assert hom.matrix == IntMatrix.identity(1)
        twice = induced_hom(sparse(IntMatrix.identity(4).scale(2)), h1, h1)
        assert twice is not hom and twice.matrix == mat([[2]])

    def test_equal_types_never_share_a_map(self):
        a, b = square_circle(), square_circle(-1)
        assert a == b and a is not b
        columns = sparse(IntMatrix.identity(4))
        on_a = induced_hom(columns, a, a)
        misses = intlinalg._induced_hom.cache_info().misses
        on_b = induced_hom(columns, b, b)
        assert intlinalg._induced_hom.cache_info().misses == misses + 1
        assert on_a.source is a and on_a.target is a
        assert on_b.source is b and on_b.target is b
        assert on_a.matrix == on_b.matrix and on_a != on_b

    def test_a_map_that_is_no_homomorphism_raises_on_every_call(self):
        src = homology_at(mat([[2], [0]]), IntMatrix.zeros(0, 2))
        # the boundary 2.e_0 goes to 2.e_1, which is no boundary
        bad = sparse(mat([[0, 1], [1, 0]]))
        misses = intlinalg._induced_hom.cache_info().misses
        for _ in range(2):
            with pytest.raises(LinAlgError, match="not well defined"):
                induced_hom(bad, src, src)
        assert intlinalg._induced_hom.cache_info().misses == misses + 2

    def test_exact_at_by_value(self):
        ambient = IntMatrix.zeros(0, 1)
        z = homology_at(IntMatrix.zeros(1, 0), ambient)
        z2 = homology_at(IntMatrix.from_rows([[2]]), ambient)
        times2 = induced_hom(sparse(IntMatrix.from_rows([[2]])), z, z)
        proj = induced_hom(sparse(IntMatrix.identity(1)), z, z2)
        assert exact_at(times2, proj)
        hits = exact_at.cache_info().hits
        assert exact_at(GroupHom(z, z, equal_copy(times2.matrix)), proj)
        assert exact_at.cache_info().hits == hits + 1
        # no shared middle group: raises on every call
        for _ in range(2):
            with pytest.raises(LinAlgError, match="middle"):
                exact_at(proj, times2)

    def test_group_cohomology_by_value(self):
        module, sigma = random_module(random.Random(35))
        grp = group_cohomology(module, sigma, 1)
        hits = group_cohomology.cache_info().hits
        assert group_cohomology(FGAbelianGroup(module.free_rank,
                                               module.torsion),
                                equal_copy(sigma), 1) is grp
        assert group_cohomology.cache_info().hits == hits + 1
        # a memoized degree 1 does not let the bool True through
        z2 = FGAbelianGroup(0, (2,))
        assert group_cohomology(z2, IntMatrix.identity(1), 1) == z2
        with pytest.raises(LinAlgError, match="nonnegative integer"):
            group_cohomology(z2, IntMatrix.identity(1), True)
        misses = group_cohomology.cache_info().misses
        for _ in range(2):
            with pytest.raises(LinAlgError, match="not an involution"):
                group_cohomology(z2, mat([[2]]), 1)
        assert group_cohomology.cache_info().misses == misses + 2


def equal_copy(M):
    """An equal matrix that is a different object."""
    return IntMatrix(M.rows, M.cols, M.data)


# the exact kernel's memos, keyed by matrix value; group_cohomology
# returns _subquotient's objects, so the two are cleared together
KERNEL_MEMOS = (intlinalg._subquotient, intlinalg._solver, group_cohomology)


class TestTwoSmithForms:
    @pytest.fixture
    def snf_calls(self, monkeypatch):
        # a cold build: an earlier test may have built the same
        # presentation already
        for memo in KERNEL_MEMOS:
            memo.cache_clear()
        calls = []

        def counting(M):
            calls.append(M)
            return smith_normal_form(M)
        monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
        return calls

    def test_homology_at(self, snf_calls):
        # seed 31 draws no boundaries, which need no second Smith form
        for seed, forms in ((31, 1), (33, 2)):
            d_in, d_out = random_chain_pair(random.Random(seed), 0)
            del snf_calls[:]
            grp = homology_at(d_in, d_out)
            assert len(snf_calls) == forms
            assert not any(isinstance(getattr(grp, name), LinearSolver)
                           for name in type(grp).__slots__)
            # equal matrices: no Smith form, the same presentation object
            assert homology_at(equal_copy(d_in), equal_copy(d_out)) is grp
            assert len(snf_calls) == forms

    def test_group_cohomology(self, snf_calls):
        module, sigma = random_module(random.Random(32))
        grp = group_cohomology(module, sigma, 1)
        assert len(snf_calls) == 2
        assert group_cohomology(module, equal_copy(sigma), 1) is grp
        assert len(snf_calls) == 2

    def test_kernel_lattice(self, snf_calls):
        # a free source needs one Smith form: its kernel is the cycles of
        # the map; a source with torsion presents its relations by a second
        M = random_matrix(random.Random(34), 2, 4).scale(2)
        target = presented((2, 4))
        for orders, forms in (((0,) * 4, 1), ((2, 0, 0, 0), 2)):
            source = presented(orders)
            del snf_calls[:]
            kernel_lattice(GroupHom(source, target, M))
            assert len(snf_calls) == forms


class TestKernelMemoAgainstFreshBuilds:
    """A memo hit returns what a fresh build of an equal input gives."""

    @staticmethod
    def check_presentation(args, rng):
        memo = intlinalg._subquotient(*args)
        fresh = intlinalg._subquotient.__wrapped__(*args)
        d_out, d_in, ambient_orders, target_orders = args
        assert intlinalg._subquotient(
            equal_copy(d_out), equal_copy(d_in), tuple(list(ambient_orders)),
            tuple(list(target_orders))) is memo
        assert fresh is not memo
        assert (memo.free_rank, memo.torsion, memo.generators) \
            == (fresh.free_rank, fresh.torsion, fresh.generators)
        for cycle, noise in random_cycles(fresh, rng, 10):
            assert memo.reduce(cycle) == fresh.reduce(cycle)
            try:
                want = fresh.reduce(noise)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    memo.reduce(noise)
            else:
                assert memo.reduce(noise) == want

    @pytest.mark.parametrize("mod", [0, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_pairs(self, mod, seed):
        rng = random.Random(7000 + 100 * mod + seed)
        d_in, d_out = random_chain_pair(rng, mod)
        # a complex over Z is one over Z/2 too: the same matrices, keys
        # that differ only in the relations
        for m in (0, 2) if mod == 0 else (2,):
            self.check_presentation(
                (d_out, d_in, (m,) * d_out.cols, (m,) * d_out.rows), rng)

    @pytest.mark.parametrize("seed", range(8))
    def test_modules(self, seed):
        rng = random.Random(7500 + seed)
        module, sigma = random_module(rng)
        ident = IntMatrix.identity(module.ngens)
        rels = module.orders
        for sign in (1, -1):
            self.check_presentation(
                (ident - sigma.scale(sign), ident + sigma.scale(sign),
                 rels, rels), rng)

    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_lattice_and_solver(self, seed):
        rng = random.Random(7800 + seed)
        M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), bound=2)
        target = presented(random.Random(7850 + seed).choice((0, 2, 4))
                           for _ in range(M.rows))
        orders = target.orders
        lattice = (M, orders)
        copy = (equal_copy(M), tuple(list(orders)))
        # the kernel of a free source is the memoized presentation's
        free = elementary(M.cols, 0)
        fresh = intlinalg._subquotient.__wrapped__(
            M, IntMatrix.zeros(M.cols, 0), free.orders, orders)
        K = kernel_lattice(GroupHom(free, target, M))
        assert K == (IntMatrix.from_columns(M.cols, fresh.generators),
                     free.orders)
        hits = intlinalg._subquotient.cache_info().hits
        assert kernel_lattice(GroupHom(free, target, copy[0])) == K
        assert intlinalg._subquotient.cache_info().hits == hits + 1
        solver, fresh = intlinalg._solver(lattice), LinearSolver(lattice)
        assert intlinalg._solver(copy) is solver
        assert isinstance(solver, LinearSolver)
        for _ in range(6):
            b = [rng.randint(-3, 3) for _ in range(M.rows)]
            assert solver.solve_vector(b) == fresh.solve_vector(b)

    def test_bad_input_raises_on_every_call(self):
        # d_out . d_in = 1: not a complex; exceptions are not memoized
        one, none = IntMatrix.identity(1), (0,)
        misses = intlinalg._subquotient.cache_info().misses
        for _ in range(2):
            with pytest.raises(ChainConditionError):
                homology_at(one, one)
            with pytest.raises(ChainConditionError):
                intlinalg._subquotient(one, one, none, none)
        assert intlinalg._subquotient.cache_info().misses == misses + 4


class TestRelationsAreOrders:
    """A relation lattice enters the kernel only as its per-coordinate
    orders (0 for no relation): homology_at and group_cohomology key the
    presentation memo by orders tuples."""

    @pytest.mark.parametrize("mod", [0, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_homology_at(self, mod, seed):
        d_in, d_out = random_chain_pair(random.Random(7900 + seed), mod)
        g, h = d_out.cols, d_out.rows
        grp = homology_at(d_in, d_out, mod)
        assert grp is intlinalg._subquotient(d_out, d_in, (mod,) * g,
                                             (mod,) * h)
        assert grp.ambient_orders == (mod,) * g

    @pytest.mark.parametrize("seed", range(4))
    def test_group_cohomology(self, seed):
        module, sigma = random_module(random.Random(7950 + seed))
        n = module.ngens
        ident = IntMatrix.identity(n)
        for p in range(3):
            sign = -1 if p % 2 else 1
            d_in = ident + sigma.scale(sign) if p else IntMatrix.zeros(n, 0)
            assert group_cohomology(module, sigma, p) \
                is intlinalg._subquotient(ident - sigma.scale(sign), d_in,
                                          module.orders, module.orders)


def mixed_orders(rng, n, mix):
    """n relation orders: all 0, all 2, all 4, or drawn from 0, 2 and 4."""
    if mix == "mixed":
        return tuple(rng.choice((0, 2, 4)) for _ in range(n))
    return (mix,) * n


ORDER_MIXES = [0, 2, 4, "mixed"]


def presented(orders):
    """Z^n with relations over these coordinate orders, rearranged as
    PresentedGroup orders come (torsion first, ascending, then free), and
    presented with identity generators."""
    orders = tuple(sorted(orders, key=lambda d: (d == 0, d)))
    n = len(orders)
    grp = intlinalg._subquotient(IntMatrix.zeros(0, n), IntMatrix.zeros(n, 0),
                                 orders, ())
    assert grp.orders == orders
    return grp


def elementary_hom(rng, n, m):
    """A random map (Z/2)^n -> (Z/2)^m, the source presented as the mod-2
    homology of n cycles and no boundaries."""
    src = homology_at(IntMatrix.zeros(n, 0), IntMatrix.zeros(0, n), mod=2)
    return GroupHom(src, FGAbelianGroup(0, (2,) * m),
                    random_matrix(rng, m, n, bound=1).mod(2))


class TestLatticesCarryTheirOrders:
    """A lattice in a group's coordinates is (columns, orders): the kernel,
    the solver and the lattice tests take the relations d.e_i as orders,
    and agree with the dense reference on [M | R]."""

    @pytest.mark.parametrize("mix", ORDER_MIXES)
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_vector(self, mix, seed):
        rng = random.Random(8100 + seed)
        M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), bound=3)
        orders = mixed_orders(rng, M.rows, mix)
        solver = LinearSolver((M, orders))
        for _ in range(12):
            x = [rng.randint(-3, 3) for _ in range(M.cols)]
            b = [v + d * rng.randint(-2, 2)
                 for v, d in zip(M.mul_vector(x), orders)]
            noise = [rng.randint(-5, 5) for _ in b]
            assert solver.solve_vector(b) is not None
            for rhs in (b, noise):
                got = solver.solve_vector(rhs)
                want = stacked_solve(M, orders, rhs)
                if set(orders) <= {2}:
                    # solved over F2: some solution, when there is one
                    assert (got is None) == (want is None)
                else:
                    assert got == want
                if got is not None:
                    assert len(got) == M.cols
                    assert all((v - w) % d == 0 if d else v == w
                               for v, w, d in zip(M.mul_vector(got), rhs,
                                                  orders))

    @pytest.mark.parametrize("mix", ORDER_MIXES)
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_lattice_of_a_free_source(self, mix, seed):
        rng = random.Random(8200 + seed)
        M = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), bound=3)
        target = presented(mixed_orders(rng, M.rows, mix))
        orders = target.orders
        K, source = kernel_lattice(GroupHom(elementary(M.cols, 0), target, M))
        assert source == (0,) * M.cols
        assert K == stacked_kernel(M, orders)
        assert K.rows == M.cols
        for col in (M @ K).columns():
            assert all(v % d == 0 if d else v == 0
                       for v, d in zip(col, orders))

    @pytest.mark.parametrize("seed", range(8))
    def test_elementary_kernel_lattice_is_the_kernel_mod_2(self, seed):
        rng = random.Random(8300 + seed)
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        hom = elementary_hom(rng, n, m)
        basis, orders = kernel_lattice(hom)
        rank = sum(1 for d in smith_normal_form(hom.matrix).diag if d % 2)
        assert orders == (2,) * n
        # a basis of the kernel over F2, with no relation columns
        assert (basis.rows, basis.cols) == (n, n - rank)
        assert (hom.matrix @ basis).mod(2).is_zero()
        # with the relations 2e_i it spans the kernel lattice: its index
        # in Z^n is the size 2^rank of the image mod 2
        spanned = IntMatrix.hstack(basis, relation_matrix(orders))
        assert math.prod(d for d in smith_normal_form(spanned).diag if d) \
            == 2 ** rank
        assert smith_normal_form(spanned).rank == n

    def test_image_lattice_is_the_matrix(self):
        hom = elementary_hom(random.Random(8400), 3, 2)
        lattice = image_lattice(hom)
        assert lattice[0] is hom.matrix
        assert lattice[1] == (2, 2)

    def test_lattices_equal_modulo_relations(self):
        orders = (2, 0)
        e0 = (mat([[1], [0]]), orders)
        assert lattices_equal(e0, (mat([[3], [0]]), orders))
        assert not lattices_equal(e0, (mat([[1], [2]]), orders))

    @pytest.mark.parametrize("other", [
        (IntMatrix.identity(2), (0, 0)),
        (IntMatrix.identity(2), (2, 4)),
        (IntMatrix.identity(3), (2, 0, 0)),
    ])
    def test_different_orders_raise(self, other):
        lattice = (IntMatrix.identity(2), (2, 0))
        with pytest.raises(LinAlgError, match="different ambients"):
            LinearSolver(lattice).contains(other)
        with pytest.raises(LinAlgError, match="different ambients"):
            lattices_equal(lattice, other)
        with pytest.raises(LinAlgError, match="different ambients"):
            lattices_equal(other, lattice)

    @pytest.mark.parametrize("orders", [(), (2,), (2, 0, 0)])
    def test_orders_must_match_the_rows(self, orders):
        M = IntMatrix.identity(2)
        with pytest.raises(LinAlgError, match="relation orders"):
            elementary(2, 0).coordinate_kernel_lattice(M, presented(orders))
        with pytest.raises(LinAlgError, match="relation orders"):
            LinearSolver((M, orders))


def random_g_complex(rng):
    """A random regular G-complex on at most 8 vertices: up to three free
    pairs and some fixed points, random simplices closed under the
    involution, and one subdivision when validate reports a regularity
    violation.  Half the draws with a free pair put it inside a simplex,
    which is such a violation."""
    pairs = rng.randint(0, 3)
    n = 2 * pairs + rng.randint(0 if pairs else 2, 8 - 2 * pairs)
    labels = list(range(n))
    rng.shuffle(labels)
    inv = list(range(n))
    for k in range(pairs):
        a, b = labels[2 * k], labels[2 * k + 1]
        inv[a], inv[b] = b, a
    simplices = [[v] for v in range(n)]
    if pairs and rng.random() < 0.5:
        # subdivision multiplies the size, so keep these at dimension 2
        simplices.append(labels[:rng.randint(2, 3)])
        top = 3
    else:
        top = 4
    for _ in range(rng.randint(1, n)):
        s = rng.sample(range(n), rng.randint(min(n, 2), min(n, top)))
        if top == 4:
            # keep one vertex of each free pair: the simplex stays regular
            s = [v for v in s if inv[v] <= v or inv[v] not in s]
        simplices.append(s)
    simplices += [[inv[v] for v in s] for s in simplices]
    X = make_complex(n, simplices, inv)
    problem = validate(X)
    if problem is not None:
        assert "regularity violated" in problem
        X = barycentric_subdivide(X)
    assert validate(X) is None
    return X


def block_diagonal(blocks):
    out, rows, cols = [], 0, 0
    for block in blocks:
        out.append((rows, cols, block, 1))
        rows, cols = rows + block.rows, cols + block.cols
    return from_blocks(rows, cols, out)


def lift_matrix(X, degrees, cochains):
    """iota from the reduced chains to the simplicial ones (the transpose
    of pi on cochains), block-diagonal over blocks of these chain degrees,
    as a dense matrix."""
    red, levels = morse_reduction(X), simplices_by_dim(X)
    return block_diagonal(
        transpose(dense(red.projections[q], len(red.cells[q])))
        if cochains else dense(red.lifts[q], len(levels[q]))
        for q in degrees)


def projection_matrix(X, degrees, cochains):
    """pi from the simplicial chains to the reduced ones (the transpose
    of iota on cochains), laid out as lift_matrix."""
    red, levels = morse_reduction(X), simplices_by_dim(X)
    return block_diagonal(
        transpose(dense(red.lifts[q], len(levels[q])))
        if cochains else dense(red.projections[q], len(red.cells[q]))
        for q in degrees)


def morse_maps(X, degrees, cochains):
    """(iota, pi) over blocks of these chain degrees."""
    return (lift_matrix(X, degrees, cochains),
            projection_matrix(X, degrees, cochains))


def degrees(tc, p):
    """The chain degrees of the blocks of the staircase tc in degree p."""
    return [q for q, _, _ in tc.blocks(p)]


def ordinary(X, q):
    return [q] if 0 <= q <= dim(X) else []


def unreduced_differentials(X, coeff):
    """(group, d_in, d_out, reduced d_in, reduced d_out, iota, pi) for
    every presentation the package builds on X with these coefficients in
    degrees -2..dim+1 (ordinary ones in 0..dim), the differentials taken
    from simplicial and reduced staircases built here."""
    cc, rc = chain_complex(X, coeff.k), reduced_chain_complex(X, coeff.k)
    chains, cochains = TotalComplex(cc), TotalCochainComplex(cc)
    rchains, rcochains = TotalComplex(rc), TotalCochainComplex(rc)
    for p in range(-2, dim(X) + 2):
        yield (eq_homology(X, coeff, p), chains.diff(p + 1), chains.diff(p),
               rchains.diff(p + 1), rchains.diff(p),
               *morse_maps(X, degrees(chains, p), False))
        yield (eq_cohomology(X, coeff, p), cochains.diff(p - 1),
               cochains.diff(p), rcochains.diff(p - 1), rcochains.diff(p),
               *morse_maps(X, degrees(cochains, p), True))
    for q in range(dim(X) + 1):
        yield (homology(X, coeff, q), boundary(cc, q + 1), boundary(cc, q),
               boundary(rc, q + 1), boundary(rc, q),
               *morse_maps(X, [q], False))
        yield (cohomology(X, coeff, q), transpose(boundary(cc, q)),
               transpose(boundary(cc, q + 1)), transpose(boundary(rc, q)),
               transpose(boundary(rc, q + 1)), *morse_maps(X, [q], True))


def check_against_unreduced(grp, d_in, d_out, reduced, iota, pi, mod, rng,
                            rounds=3):
    """grp, computed on the Morse-reduced complex, against homology_at on
    the unreduced differentials: grp is homology_at on the reduced
    differentials (d_in, d_out), with the invariants of the reference;
    its boundaries and relations lift through iota to boundaries of the
    reference; A, whose columns are the reference coordinates of iota of
    grp's unit vectors, is invertible over the group (its inverse is
    built the other way round, through pi); every random cycle c has
    reference coordinates A times grp's coordinates of pi c.  Returns the
    reference."""
    ref = homology_at(d_in, d_out, mod)
    assert (grp.free_rank, grp.torsion) == (ref.free_rank, ref.torsion)
    want = homology_at(*reduced, mod)
    assert (grp.free_rank, grp.torsion, grp.ambient_rank, grp.generators,
            grp.d_in, grp.ambient_orders) == (
        want.free_rank, want.torsion, want.ambient_rank, want.generators,
        want.d_in, want.ambient_orders)
    for col in IntMatrix.hstack(
            grp.d_in, relation_matrix(grp.ambient_orders)).columns():
        assert not any(ref.reduce(iota.mul_vector(col)))
    n = grp.ngens
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    there = GroupHom(grp, ref, IntMatrix.from_columns(
        n, [ref.reduce(iota.mul_vector(grp.lift(e))) for e in units]))
    back = GroupHom(ref, grp, IntMatrix.from_columns(
        n, [grp.reduce(pi.mul_vector(ref.lift(e))) for e in units]))
    assert back.compose(there).matrix == IntMatrix.identity(n)
    assert there.compose(back).matrix == IntMatrix.identity(n)
    for cycle, noise in random_cycles(ref, rng, rounds):
        assert ref.reduce(cycle) == there.apply(
            grp.reduce(pi.mul_vector(cycle)))
        try:
            want = ref.reduce(noise)
        except LinAlgError:
            # non-cycles are checked against the dense reference
            continue
        assert want == there.apply(grp.reduce(pi.mul_vector(noise)))
    return ref


def check_reduction(X, rng, dense=False):
    for coeff in (COEFF_Z2, COEFF_Z, COEFF_Z1):
        for grp, d_in, d_out, r_in, r_out, iota, pi in \
                unreduced_differentials(X, coeff):
            ref = check_against_unreduced(grp, d_in, d_out, (r_in, r_out),
                                          iota, pi, coeff.mod, rng)
            if dense:
                check_against_reference(
                    ref, d_out, (coeff.mod,) * d_out.rows, rng, 3)


def oracle_complex(seed, max_simplices=80):
    """The random G-complex of the oracle with this seed."""
    rng = random.Random(7000 + seed)
    X = random_g_complex(rng)
    while simplex_count(X) > max_simplices:
        X = random_g_complex(rng)
    return X, rng


# source and target order pools of the kernels tested against the dense
# reference
KERNEL_MIXES = {
    "free": ((0,), (0,)),
    "all-2": ((2,), (2,)),
    "Z/2 with Z/4": ((2, 4), (2, 4)),
    "free source, Z/2 target": ((0,), (2,)),
}


def random_hom_matrix(rng, source, target, bound=3):
    """A random homomorphism between coordinates of these orders: entry
    (i, j) times source[j] lies in the relations target[i]."""
    def step(t, s):
        if not s:
            return 1
        return t // math.gcd(t, s) if t else 0
    return IntMatrix(len(target), len(source),
                     [[step(t, s) * rng.randint(-bound, bound)
                       for s in source] for t in target])


class TestKernelLatticeAgainstDenseReference:
    """kernel_lattice reads the generators of a presentation; with the
    source's relations they span {x : M x in R_target}, the integer kernel
    of [M | R_target] cut to the source's coordinates."""

    @pytest.mark.parametrize("mix", KERNEL_MIXES)
    @pytest.mark.parametrize("seed", range(12))
    def test_spans_the_kernel(self, mix, seed):
        rng = random.Random(8600 + seed)
        pools = KERNEL_MIXES[mix]
        source, target = (
            presented(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            for pool in pools)
        M = random_hom_matrix(rng, source.orders, target.orders)
        K, orders = kernel_lattice(GroupHom(source, target, M))
        assert orders == source.orders
        assert K.rows == source.ngens
        for col in (M @ K).columns():
            assert all(v % d == 0 if d else v == 0
                       for v, d in zip(col, target.orders))
        spanned = IntMatrix.hstack(K, relation_matrix(orders))
        want = stacked_kernel(M, target.orders)
        free = (0,) * source.ngens
        assert reference_contains((spanned, free), want)
        assert reference_contains((want, free), spanned)

    @pytest.mark.parametrize("source, target", [
        ((2,), (0,)),
        ((2,), (4,)),
        ((2, 0), (0,)),
    ])
    def test_a_map_that_is_no_homomorphism_raises(self, source, target):
        # the relation 2.e_0 is sent to 2, outside the target's relations
        M = IntMatrix.from_rows([[1] * len(source)])
        hom = GroupHom(presented(source), presented(target), M)
        with pytest.raises(ChainConditionError):
            kernel_lattice(hom)


class TestRandomGComplexOracle:
    """Every presentation computed on the Morse-reduced complex agrees with
    the one computed on the simplicial complex, up to an automorphism of
    the group; on random G-complexes the unreduced presentation is also
    checked against the dense reference."""

    @pytest.mark.parametrize("seed", range(24))
    def test_presentations(self, seed):
        X, rng = oracle_complex(seed)
        check_reduction(X, rng, dense=True)

    @pytest.mark.parametrize("sd", [0, 1])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, sd):
        X = builtin(name)
        for _ in range(sd):
            X = barycentric_subdivide(X)
        check_reduction(X, random.Random(name))

    @pytest.mark.parametrize("index", range(20))
    def test_fuzz_complexes(self, index):
        _, X = fuzz_complexes(20)[index]
        check_reduction(X, random.Random(index))


def elementary(n, mod=2):
    """(Z/2)^n, or Z^n for mod 0, presented with identity generators."""
    return homology_at(IntMatrix.zeros(n, 0), IntMatrix.zeros(0, n), mod=mod)


def reference_contains(lattice, B):
    """Whether the columns of B lie in the lattice (M, orders), by the
    dense integer reference on [M | R]."""
    M, orders = lattice
    return all(stacked_solve(M, orders, col) is not None
               for col in B.columns())


def check_f2_lattices(M, rng):
    """The lattice layer of M : (Z/2)^cols -> (Z/2)^rows, worked over F2,
    against the integer reference on [M | 2 I]: solve_vector finds a
    solution exactly when the reference does, and it is one; the kernel
    lattices, contains and lattices_equal agree.  A Z source with the
    same Z/2 target keeps the integral kernel, which holds every 2 e_i."""
    twos = (2,) * M.rows
    solver = LinearSolver((M, twos))
    for _ in range(6):
        x = [rng.randint(-3, 3) for _ in range(M.cols)]
        for b in (M.mul_vector(x), [rng.randint(-3, 3) for _ in twos]):
            got = solver.solve_vector(b)
            assert (got is None) == (stacked_solve(M, twos, b) is None)
            if got is not None:
                assert all((v - w) % 2 == 0
                           for v, w in zip(M.mul_vector(got), b))
    source = (2,) * M.cols
    K, orders = kernel_lattice(GroupHom(elementary(M.cols),
                                        elementary(M.rows), M))
    ref = stacked_kernel(M, twos)
    assert orders == source
    assert reference_contains((K, source), ref)
    assert reference_contains((ref, source), K)
    for B in (M @ random_matrix(rng, M.cols, rng.randint(0, 3), bound=2),
              random_matrix(rng, M.rows, rng.randint(0, 3), bound=2), M):
        there = reference_contains((M, twos), B)
        back = reference_contains((B, twos), M)
        assert LinearSolver((M, twos)).contains((B, twos)) == there
        assert LinearSolver((B, twos)).contains((M, twos)) == back
        assert lattices_equal((M, twos), (B, twos)) == (there and back)
    free = (0,) * M.cols
    K, orders = kernel_lattice(GroupHom(elementary(M.cols, 0),
                                        elementary(M.rows), M))
    assert orders == free
    assert K == ref
    for i in range(M.cols):
        assert stacked_solve(K, free, [2 * (j == i) for j in free]) \
            is not None


def check_f2_presentation(d_in, d_out, rng, rounds=3):
    """homology_at over Z/2 against the dense Smith reference."""
    check_against_reference(homology_at(d_in, d_out, mod=2), d_out,
                            (2,) * d_out.rows, rng, rounds)


def z2_differentials(X):
    """(d_in, d_out) of the Z/2 presentations the package builds on X: its
    reduced staircases, chains and cochains, unbounded and cut to the
    ordinary column, in degrees -2..dim+1."""
    for width in (None, 1):
        chains = reduced_total_complex_of(X, 0, width)
        cochains = reduced_total_cochain_complex_of(X, 0, width)
        for p in range(-2, dim(X) + 2):
            yield chains.diff(p + 1), chains.diff(p)
            yield cochains.diff(p - 1), cochains.diff(p)


def check_f2_on_complex(X, rng):
    for d_in, d_out in z2_differentials(X):
        check_f2_presentation(d_in, d_out, rng)
    for p in range(dim(X) + 1):
        for hom in (edge_morphism(X, COEFF_Z2, p),
                    homology_involution(X, COEFF_Z2, p)):
            check_f2_lattices(hom.matrix, rng)


class TestF2AgainstSmith:
    """Differential test of the F2 elimination behind every presentation
    and lattice test whose orders are all 2, against smith_normal_form
    over Z/2 (on [M | 2 I], through the dense references): equal group
    types, reduce equal through an invertible change of basis, and the
    same solvability, containments and kernel lattices."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_corpus(self, seed):
        # every shape up to 12 x 12, sparse matrices, [d | 2 I] stacks and
        # matrices without units; each matrix is a map for the lattice
        # layer and the outgoing differential of a presentation whose
        # boundaries are random cycles mod 2
        rng = random.Random(9000 + seed)
        for M in smith_corpus(500 + seed):
            check_f2_lattices(M, rng)
            cycles = stacked_kernel(M, (2,) * M.rows)
            d_in = cycles @ random_matrix(rng, cycles.cols,
                                          rng.randint(0, 4), bound=2)
            for boundaries in (d_in, IntMatrix.zeros(M.cols, 0)):
                check_f2_presentation(boundaries, M, rng)

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_pairs(self, seed):
        rng = random.Random(9100 + seed)
        check_f2_presentation(*random_chain_pair(rng, 2), rng, 10)

    @pytest.mark.parametrize("seed", range(24))
    def test_oracle_complexes(self, seed):
        check_f2_on_complex(*oracle_complex(seed))

    @pytest.mark.parametrize("sd", [0, 1])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, sd):
        X = builtin(name)
        for _ in range(sd):
            X = barycentric_subdivide(X)
        check_f2_on_complex(X, random.Random(name))


class TestF2MakesNoSmithForm:
    @pytest.fixture
    def snf_calls(self, monkeypatch):
        for memo in KERNEL_MEMOS:
            memo.cache_clear()
        calls = []

        def counting(M):
            calls.append(M)
            return smith_normal_form(M)
        monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_all_two_orders(self, snf_calls, seed):
        rng = random.Random(9200 + seed)
        d_in, d_out = random_chain_pair(rng, 2)
        grp = homology_at(d_in, d_out, mod=2)
        sigma = IntMatrix.identity(2).scale(-1)
        group_cohomology(FGAbelianGroup(0, (2, 2)), sigma, 1)
        _graded_group(grp.ngens + 1)
        M = random_matrix(rng, grp.ngens, grp.ngens, bound=1)
        hom = GroupHom(grp, grp, M)
        LinearSolver(image_lattice(hom)).solve_vector([1] * grp.ngens)
        lattices_equal(image_lattice(hom), kernel_lattice(hom))
        exact_at(hom, hom)
        assert snf_calls == []
        # a Z source with a Z/2 target keeps the integral kernel
        free, target = elementary(2, 0), elementary(1)
        del snf_calls[:]
        kernel_lattice(GroupHom(free, target, mat([[1, 1]])))
        assert len(snf_calls) == 1


def gmap_chain_matrices(f, coeff):
    """Per-degree dense chain matrices of a simplicial map with
    coefficients, reduced mod 2 over Z/2."""
    ranks = [len(level) for level in simplices_by_dim(f.target)]
    mats = (dense(cols, ranks[q] if q < len(ranks) else 0)
            for q, cols in enumerate(gmap_chain_columns(f)))
    return tuple(m.mod(coeff.mod) if coeff.mod else m for m in mats)


def simplicial_hom(chain_map, hom, d_in, mod, iota, pi):
    """The matrix of the map chain_map induces from hom.source to
    hom.target, computed on the simplicial chains: iota lifts the reduced
    chains of the source to simplicial ones and pi projects the simplicial
    chains of the target to reduced ones.  Every simplicial boundary and
    relation of the source goes to a boundary of the target, and the
    columns are the target coordinates of pi . chain_map . iota . gen over
    the generators of the source."""
    src, tgt = hom.source, hom.target
    rels = relation_matrix((mod,) * d_in.rows)
    for col in (chain_map @ IntMatrix.hstack(d_in, rels)).columns():
        assert not any(tgt.reduce(pi.mul_vector(col)))
    return IntMatrix.from_columns(
        tgt.ngens, [tgt.reduce(pi.mul_vector(chain_map.mul_vector(
            iota.mul_vector(g)))) for g in src.generators])


def simplicial_halved(d, hom, d_in, iota, pi):
    """The matrix of a Bockstein on the simplicial chains: each mod-2
    cycle of the source, lifted through iota, goes to half its integral
    boundary d, projected through pi and reduced in the target; the
    simplicial boundaries of the source must halve to boundaries."""
    def halved(vec):
        w = d.mul_vector(vec)
        assert not any(x % 2 for x in w)
        return pi.mul_vector([x // 2 for x in w])
    for col in d_in.columns():
        assert not any(hom.target.reduce(halved(col)))
    return IntMatrix.from_columns(
        hom.target.ngens, [hom.target.reduce(halved(iota.mul_vector(g)))
                           for g in hom.source.generators])


def simplicial_localizations(X, coeff, n):
    """The matrices of the localizations of H_n(X; G, coeff) and H^n,
    computed on the simplicial staircases: on homology by solving
    incl . y = shifted generator modulo im(diff) + 2 . ambient, on
    cohomology by restricting each generator to the fixed set.  The
    generators are lifted through iota, and each block of the fixed-set
    chains is projected through pi before it is reduced.  Column i holds
    the mod-2 coordinates of the image of generator i, degree by degree
    of the fixed set."""
    F = fixed_subcomplex(X)
    src, cosrc = eq_homology(X, coeff, n), eq_cohomology(X, coeff, n)
    if F.vertex_count == 0:
        return (IntMatrix.zeros(0, src.ngens),
                IntMatrix.zeros(0, cosrc.ngens))
    mats = gmap_chain_matrices(fixed_inclusion(X), COEFF_Z2)
    ccx, ccf = chain_complex(X, 0), chain_complex(F, 0)
    tcx, tcf = TotalComplex(ccx), TotalComplex(ccf)
    steps = dim(X) + 1
    p = n - steps
    incl = dense(_blockwise(tcf, tcx, p, [sparse(m) for m in mats]),
                 tcx.rank(p))
    stacked = IntMatrix.hstack(incl, tcx.diff(p + 1),
                               relation_matrix((2,) * incl.rows))
    solver = LinearSolver((stacked, (0,) * stacked.rows))
    shift = dense(_shift_matrix(tcx, n, steps), tcx.rank(n - steps))

    def graded(tc, degree, y, group, cochains):
        coords = {q: group(F, COEFF_Z2, q).reduce(
            projection_matrix(F, [q], cochains).mul_vector(
                y[off:off + tc.cc.rank(q)]))
            for q, _, off in tc.blocks(degree)}
        return [c for q in range(dim(F) + 1)
                for c in coords.get(q, (0,) * group(F, COEFF_Z2, q).ngens)]

    def columns(group, cols):
        rows = sum(group(F, COEFF_Z2, q).ngens for q in range(dim(F) + 1))
        return IntMatrix.from_columns(rows, cols)
    iota = lift_matrix(X, degrees(tcx, n), False)
    images = []
    for gen in src.generators:
        sol = solver.solve_vector(shift.mul_vector(iota.mul_vector(gen)))
        assert sol is not None
        images.append(graded(tcf, p, sol[:incl.cols], homology, False))
    cotcx, cotcf = TotalCochainComplex(ccx), TotalCochainComplex(ccf)
    restrict = dense(_blockwise(cotcx, cotcf, n,
                                [sparse(transpose(m)) for m in mats]),
                     cotcf.rank(n))
    iota = lift_matrix(X, degrees(cotcx, n), True)
    return columns(homology, images), columns(cohomology, [
        graded(cotcf, n, restrict.mul_vector(iota.mul_vector(gen)),
               cohomology, True)
        for gen in cosrc.generators])


def check_maps_against_simplicial(X):
    """Every map within X, along its fixed-set inclusion, identity,
    constant map and involution (which reverses orientations), and every
    localization, against the same computation on the simplicial
    chains."""
    n = dim(X)
    cc = {c: chain_complex(X, c.k) for c in (COEFF_Z2, COEFF_Z, COEFF_Z1)}
    for coeff, c in cc.items():
        ch, co, mod = TotalComplex(c), TotalCochainComplex(c), coeff.mod
        prev = TotalComplex(cc[coeff.shift()])
        for p in range(-2, n + 2):
            sigma = dense(c.sigma(p), c.rank(p))
            one_minus_sigma = IntMatrix.identity(c.rank(p)) - sigma
            connecting = from_blocks(
                prev.rank(p), c.rank(p),
                [(off, 0, one_minus_sigma, -1 if p % 2 else 1)
                 for _, j, off in prev.blocks(p) if j == 0])
            ident = IntMatrix.identity(ch.rank(p))
            iota, pi = morse_maps(X, degrees(ch, p), False)
            pi_ord = projection_matrix(X, ordinary(X, p), False)
            cases = [
                (edge_morphism(X, coeff, p),
                 dense(_column_projection(ch, p), c.rank(p)),
                 ch.diff(p + 1), iota, pi_ord),
                (edge_morphism_cohomology(X, coeff, p),
                 dense(_column_projection(co, p), c.rank(p)), co.diff(p - 1),
                 lift_matrix(X, degrees(co, p), True), projection_matrix(X, ordinary(X, p), True)),
                (eta_cap(X, coeff, p),
                 dense(_shift_matrix(TotalComplex(cc[COEFF_Z2]), p),
                       ch.rank(p - 1)),
                 ch.diff(p + 1), iota,
                 projection_matrix(X, degrees(ch, p - 1), False)),
                (_edge_connecting(X, coeff, p), connecting,
                 boundary(c, p + 1), lift_matrix(X, ordinary(X, p), False),
                 pi),
                (_times_two(X, coeff, p), ident.scale(2), ch.diff(p + 1),
                 iota, pi),
                (_mod2_reduction(X, coeff, p), ident, ch.diff(p + 1), iota,
                 pi)]
            if 0 <= p <= n:
                cases += [
                    (homology_involution(X, coeff, p), sigma,
                     boundary(c, p + 1), lift_matrix(X, [p], False),
                     pi_ord),
                    (cohomology_involution(X, coeff, p),
                     transpose(sigma), transpose(boundary(c, p)),
                     *morse_maps(X, [p], True))]
            for hom, chain_map, d_in, lift, proj in cases:
                assert hom.matrix == simplicial_hom(chain_map, hom, d_in,
                                                    mod, lift, proj)
            if not mod:
                hom = _coefficient_bockstein(X, coeff, p)
                assert hom.matrix == simplicial_halved(
                    ch.diff(p), hom, TotalComplex(cc[COEFF_Z2]).diff(p + 1),
                    iota, projection_matrix(X, degrees(ch, p - 1), False))
            matrices = localize_homology(X, coeff, p).matrix, \
                localize_cohomology(X, coeff, p).matrix
            assert matrices == simplicial_localizations(X, coeff, p)
    for q in range(n):
        hom = ordinary_bockstein(X, q)
        assert hom.matrix == simplicial_halved(
            boundary(cc[COEFF_Z], q + 1), hom, boundary(cc[COEFF_Z2], q + 2),
            lift_matrix(X, [q + 1], False), projection_matrix(X, [q], False))
    for f in (fixed_inclusion(X), identity_map(X), constant_map(X),
              make_gmap(X, X, X.involution)):
        S, T = f.source, f.target
        for coeff in cc:
            mats = gmap_chain_matrices(f, coeff)
            src = chain_complex(S, coeff.k)
            tgt = chain_complex(T, coeff.k)
            ch_src, ch_tgt = TotalComplex(src), TotalComplex(tgt)
            co_src, co_tgt = TotalCochainComplex(src), TotalCochainComplex(tgt)
            for p in range(-2, n + 2):
                hom = pushforward_hom(f, coeff, p)
                assert hom.matrix == simplicial_hom(
                    dense(_blockwise(ch_src, ch_tgt, p,
                                     [sparse(m) for m in mats]),
                          ch_tgt.rank(p)), hom,
                    ch_src.diff(p + 1), coeff.mod,
                    lift_matrix(S, degrees(ch_src, p), False),
                    projection_matrix(T, degrees(ch_tgt, p), False))
                hom = pullback_hom(f, coeff, p)
                assert hom.matrix == simplicial_hom(
                    dense(_blockwise(co_tgt, co_src, p,
                                     [sparse(transpose(m)) for m in mats]),
                          co_src.rank(p)),
                    hom, co_tgt.diff(p - 1), coeff.mod,
                    lift_matrix(T, degrees(co_tgt, p), True),
                    projection_matrix(S, degrees(co_src, p), True))
            for q in range(dim(S) + 1):
                hom = ordinary_pushforward_hom(f, coeff, q)
                assert hom.matrix == simplicial_hom(
                    mats[q], hom, boundary(src, q + 1), coeff.mod,
                    lift_matrix(S, [q], False),
                    projection_matrix(T, ordinary(T, q), False))


class TestMapsAgainstSimplicialReference:
    """Maps act on the reduced chains their groups are presented on; their
    matrices, and the localizations, equal those computed on the
    simplicial chains between iota and pi."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        check_maps_against_simplicial(builtin(name))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_g_complexes(self, seed):
        check_maps_against_simplicial(oracle_complex(seed)[0])

    @pytest.mark.parametrize("index", range(10))
    def test_fuzz_complexes(self, index):
        check_maps_against_simplicial(fuzz_complexes(20)[index][1])


def test_matrix_entries_must_be_integers():
    for bad in (1.0, Fraction(1, 2), "1", None):
        with pytest.raises(LinAlgError, match="exact integers"):
            IntMatrix(2, 2, [[1, 0], [0, bad]])
    # bool is an int subclass, and passes as it always did
    assert IntMatrix(1, 2, [[True, 2]]).data == ((True, 2),)


def test_shapes_and_scalars_are_checked_at_the_input_boundary():
    with pytest.raises(LinAlgError, match="entry count"):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(LinAlgError, match="exact integers"):
        IntMatrix.from_rows([[1, 2.0]])
    with pytest.raises(LinAlgError, match="entry count"):
        IntMatrix(2, 2, [[1, 0]])
    # computed entries are not checked again, so the scalar itself is;
    # an empty matrix has no entry that could show a bad one
    for M in (mat([[1, 2], [3, 4]]), IntMatrix.zeros(0, 0)):
        with pytest.raises(LinAlgError, match="scalar"):
            M.scale(0.5)
        with pytest.raises(LinAlgError, match="scalar"):
            M.mod(2.0)
    assert mat([[1, -3]]).scale(2) == mat([[2, -6]])
    assert mat([[1, -3]]).mod(2) == mat([[1, 1]])


class TestGroupBasics:
    def test_equality_by_invariants(self):
        assert FGAbelianGroup(1, (2, 4)) == FGAbelianGroup(1, (2, 4))
        assert FGAbelianGroup(1, (2,)) != FGAbelianGroup(0, (2,))
        assert FGAbelianGroup(0, (2, 2)) != FGAbelianGroup(0, (4,))

    def test_divisibility_enforced(self):
        with pytest.raises(LinAlgError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(LinAlgError):
            FGAbelianGroup(0, (1,))

    def test_str(self):
        assert str(FGAbelianGroup(0)) == "0"
        assert str(FGAbelianGroup(2)) == "Z^2"
        assert str(FGAbelianGroup(1, (2, 2, 4))) == "Z + (Z/2)^2 + Z/4"

    def test_json_roundtrip(self):
        g = FGAbelianGroup(3, (2, 6))
        assert FGAbelianGroup.from_json(g.to_json()) == g

    @pytest.mark.parametrize("free_rank,torsion", [
        (0, (2.5,)), (1.5, ()), (0, (2.0,)), (True, ()), (0, (True,)),
        (0, ("2",)), (None, ()), (0, (2, Fraction(4))),
    ])
    def test_rank_and_factors_must_be_integers(self, free_rank, torsion):
        with pytest.raises(LinAlgError, match="integers"):
            FGAbelianGroup(free_rank, torsion)


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(LinAlgError, match="different lengths"):
        IntMatrix.from_columns(2, [[1, 5], [2, 3, 4]])
    with pytest.raises(LinAlgError, match="different lengths"):
        IntMatrix.from_columns(2, [[1, 5, 6], [2, 3]])
    with pytest.raises(LinAlgError, match="2 entries"):
        IntMatrix.from_columns(2, [[1, 5, 6], [2, 3, 4]])
    assert IntMatrix.from_columns(2, [[1, 5], [2, 3]]) == mat([[1, 2], [5, 3]])
    assert IntMatrix.from_columns(0, [(), ()]) == IntMatrix.zeros(0, 2)


class TestComposeAcrossPresentations:
    def test_isomorphic_presentations_do_not_compose(self):
        g = eq_homology(builtin("torus-free"), COEFF_Z2, 0)
        edge = edge_morphism(builtin("torus-reflection"), COEFF_Z2, 0)
        # the two groups are both Z/2, on unrelated bases
        assert edge.target == g and edge.target is not g
        with pytest.raises(LinAlgError, match="endpoint"):
            GroupHom(g, g, IntMatrix.identity(g.ngens)).compose(edge)
        with pytest.raises(LinAlgError, match="endpoint"):
            edge.compose(GroupHom(g, g, IntMatrix.identity(g.ngens)))

    def test_one_presentation_composes(self):
        X = builtin("torus-reflection")
        edge = edge_morphism(X, COEFF_Z2, 0)
        sigma = homology_involution(X, COEFF_Z2, 0)
        assert sigma.compose(edge).matrix == edge.matrix

    def test_equal_layouts_compose_only_as_one_object(self):
        a, b = FGAbelianGroup(0, (2, 2)), FGAbelianGroup(0, (2, 2))
        swap = GroupHom(b, b, mat([[0, 1], [1, 0]]))
        into = GroupHom(a, a, IntMatrix.identity(2))
        assert swap.compose(swap).matrix == IntMatrix.identity(2)
        # equal isomorphism types are not one group
        with pytest.raises(LinAlgError, match="endpoint"):
            swap.compose(into)
        with pytest.raises(LinAlgError, match="endpoint"):
            swap.compose(GroupHom(a, FGAbelianGroup(0, (2,)),
                                  mat([[1, 0]])))
        # the graded mod-2 groups of the fixed sets are one object per
        # rank, so maps onto them compose whichever layout built them
        X = builtin("torus-reflection")
        F = fixed_subcomplex(X)
        n = fixed_offsets(F, homology)[-1]
        assert n == fixed_offsets(F, cohomology)[-1] == 4
        assert _graded_group(n) is graded_bockstein(F).source \
            is localize_cohomology(X, COEFF_Z, 1).target
        loc = localize_homology(X, COEFF_Z2, 0)
        assert parity_projection(F, homology, 0).compose(loc).target \
            is loc.target


    def test_maps_are_equal_only_on_one_pair_of_endpoints(self):
        # H_1 of both circles over Z/2 is Z/2 and sigma acts by 1 on each,
        # but the two presentations are different objects
        reflection = homology_involution(builtin("circle-reflection"),
                                         COEFF_Z2, 1)
        antipodal = homology_involution(builtin("circle-antipodal"),
                                        COEFF_Z2, 1)
        assert reflection.matrix == antipodal.matrix
        assert reflection.source == antipodal.source
        assert reflection.source is not antipodal.source
        with pytest.raises(LinAlgError, match="endpoint"):
            reflection.compose(antipodal)
        assert reflection != antipodal and not reflection == antipodal
        m = reflection.matrix
        copy = GroupHom(reflection.source, reflection.target,
                        IntMatrix(m.rows, m.cols, m.data))
        assert copy == reflection and hash(copy) == hash(reflection)
        assert copy.compose(reflection) == reflection.compose(copy)
        assert len({reflection, antipodal, copy}) == 2


class TestExactness:
    def test_short_exact_sequence(self):
        # 0 -> Z --x2--> Z --mod--> Z/2 -> 0 realized on chain level
        ambient = IntMatrix.zeros(0, 1)
        z = homology_at(IntMatrix.zeros(1, 0), ambient)
        z2 = homology_at(IntMatrix.from_rows([[2]]), ambient)
        times2 = induced_hom(sparse(IntMatrix.from_rows([[2]])), z, z)
        proj = induced_hom(sparse(IntMatrix.identity(1)), z, z2)
        assert exact_at(times2, proj)
        not_exact = induced_hom(sparse(IntMatrix.from_rows([[4]])), z, z)
        assert not exact_at(not_exact, proj)
        # a nonzero composite: the image is not even inside the kernel
        identity = induced_hom(sparse(IntMatrix.identity(1)), z, z)
        assert not exact_at(identity, proj)

    def test_lattices_equal(self):
        free = (0, 0)
        a = (IntMatrix.from_rows([[2, 0], [0, 3]]), free)
        b = (IntMatrix.from_rows([[2, 2], [3, 0]]), free)
        assert lattices_equal(a, b)
        c = (IntMatrix.from_rows([[2, 0], [0, 6]]), free)
        assert not lattices_equal(a, c)

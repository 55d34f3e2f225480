"""Multimatrix algebras: structure constants, involution, Wedderburn."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wka import (
    AlgElement,
    Functional,
    StarAlgebraData,
    SubalgebraBasis,
    block_trace,
    cartan_subalgebras,
    catalog,
    center,
    check_conditional_expectation,
    commutant,
    cube_family,
    dual,
    make_algebra,
    minimal_central_projections,
    regular_trace,
    wedderburn_realize,
)
from wka import algebra as algebra_module
from wka.algebra import _groupoid_matrix_units, _left_multiplications, monomial_rows, regular_trace_of
from wka.constructors import cyclic_groupoid, disjoint_union, pair_groupoid
from wka.errors import NotSemisimple, NotStarClosed, WkaError
from wka.haar import _ideal_blocks, _sandwiches, haar_conditional_expectations
from wka.tensorkit import Tolerance, _table, dagger, max_abs, subspace_distance
from wka.weakkac import _basis_products, _cartan_spans

from conftest import (
    SHAPES,
    assert_block_ideals_match_dense,
    assert_definiteness_matches_dense,
    assert_pair_bounds,
    basis_products,
    dense_bimodular,
    dense_commutant,
    dense_gram,
    densify,
    inner_automorphism,
    moved_along,
    mult_tensor,
    rmat,
    unit_coordinates,
)


@pytest.mark.parametrize("shape", SHAPES)
def test_associativity_all_basis_triples(shape):
    alg = make_algebra(shape)
    mult = mult_tensor(alg)
    lhs = np.einsum("abx,xcy->abcy", mult, mult)
    rhs = np.einsum("bcx,axy->abcy", mult, mult)
    assert max_abs(lhs - rhs) == 0.0


@pytest.mark.parametrize("shape", SHAPES)
def test_product_scatters_match_dense_structure_constants(shape):
    """lmat, rmat, the products of two stacks, the sparse basis products and
    the pairing gather equal the dense contractions with the structure
    constants exactly."""
    alg = make_algebra(shape)
    mult = mult_tensor(alg)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    c = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    assert np.array_equal(alg.lmat(x), np.einsum("a,acm->mc", x, mult))
    assert np.array_equal(rmat(alg, x), np.einsum("a,cam->mc", x, mult))
    assert np.array_equal(alg.lmat(c), np.einsum("ja,acm->jmc", c, mult))
    assert np.array_equal(Functional(alg, x).pairing(), np.einsum("abm,m->ab", mult, x))
    stacks = {
        (0, True): np.einsum("jkm,kb->jmb", mult, c),
        (0, False): np.einsum("kjm,kb->jmb", mult, c),
        (1, True): np.einsum("jkm,ak->jam", mult, c),
        (1, False): np.einsum("kjm,ak->jam", mult, c),
    }
    for (leg, left), dense in stacks.items():
        assert np.array_equal(densify(_basis_products(alg, _table(c), leg, left), alg.dim), dense), (leg, left)
        assert np.array_equal(basis_products(alg, c, leg, left), dense), (leg, left)
    # the products of two stacks of elements and the join C (1 (x) b_a) C
    # against the product of concrete N^2 x N^2 matrices; integer
    # coefficients make every sum exact in any order
    xs, ys = (rng.integers(-3, 4, (alg.dim, k)) + 1j * rng.integers(-3, 4, (alg.dim, k)) for k in (3, 2))
    assert np.array_equal(alg.product_stack(xs, ys), np.einsum("pi,qj,pqm->mij", xs, ys, mult))
    c = rng.integers(-3, 4, (alg.dim, alg.dim)) + 1j * rng.integers(-3, 4, (alg.dim, alg.dim))
    c[rng.random(c.shape) < 0.3] = 0
    c_one_x = basis_products(alg, c, leg=1, left=False)
    concrete = [alg.from_matrix2(alg.to_matrix2(c_one_x[a]) @ alg.to_matrix2(c)) for a in range(alg.dim)]
    assert np.array_equal(densify(_sandwiches(alg, c), alg.dim), np.stack(concrete))


def _sorted_rows(m):
    """The nonzero rows of m in lexicographic order of (real, imag) parts."""
    m = m[np.any(m != 0, axis=1)]
    return m[np.lexsort(np.concatenate([m.real, m.imag], axis=1).T[::-1])]


# block shapes not in ascending order, where block_order moves blocks
UNSORTED = [(2, 1), (2, 1, 3, 1)]


@pytest.mark.parametrize("shape", SHAPES + UNSORTED)
def test_ideal_rows_are_the_nonzero_rows_of_lmat_and_rmat(shape):
    # with its rows reordered, the d^2 x d stack of L_{x[a]} is the direct
    # sum of A_i (x) 1 over the blocks, and that of R_{x[a]} of 1 (x) A_i
    alg = make_algebra(shape)
    rng = np.random.default_rng(12)
    x = rng.integers(-3, 4, (alg.dim, alg.dim)) + 1j * rng.integers(-3, 4, (alg.dim, alg.dim))
    x[rng.random(x.shape) < 0.4] = 0
    for left, dense in ((True, alg.lmat(x)), (False, rmat(alg, x))):
        parts = []
        blocks = [a for stack in _ideal_blocks(alg, x, left) for a in stack]
        for i, a in zip(alg.block_order, blocks):
            n, o = alg.block_shape[i], alg.basis_offsets[i]
            part = np.zeros((a.shape[0] * n, alg.dim), dtype=complex)
            part[:, o : o + n * n] = np.kron(a, np.eye(n)) if left else np.kron(np.eye(n), a)
            parts.append(part)
        dense = dense.reshape(alg.dim * alg.dim, alg.dim)
        assert np.array_equal(_sorted_rows(np.vstack(parts)), _sorted_rows(dense)), left


def _ideal_input(alg, rng):
    """Rows x[a] = (1 - q) y_a (1 - q), q the sum of the units e^i_00, so
    that both ideals of the stacks of L_{x[a]} and R_{x[a]} are nonzero."""
    q = np.zeros(alg.dim, dtype=complex)
    q[[alg.matrix_unit_index(i, 0, 0) for i in range(alg.nblocks)]] = 1.0
    y = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    cut = alg.lmat(alg.unit - q) @ rmat(alg, alg.unit - q)
    return y @ cut.T


@pytest.mark.parametrize("shape", SHAPES + UNSORTED)
def test_block_ideals_match_the_dense_null_spaces(shape):
    alg = make_algebra(shape)
    rng = np.random.default_rng(shape)
    assert_block_ideals_match_dense(alg, _ideal_input(alg, rng), _ideal_input(alg, rng))


def assert_commutant_matches_dense(sub):
    """commutant(sub) against the dense null space of its k d x d stack:
    equal dimension, spans within 1e-12."""
    block, dense = commutant(sub).basis, dense_commutant(sub)
    assert block.shape == dense.shape
    assert subspace_distance(block, dense) < 1e-12


@pytest.mark.parametrize("shape", SHAPES + UNSORTED)
def test_block_commutant_matches_the_dense_null_space(shape):
    # the commutant of the diagonal is the diagonal, that of two random
    # elements the centre, and that of the centre everything
    alg = make_algebra(shape)
    rng = np.random.default_rng(shape)
    diag = np.eye(alg.dim)[:, alg.basis_row == alg.basis_col]
    pair = rng.standard_normal((alg.dim, 2)) + 1j * rng.standard_normal((alg.dim, 2))
    for vectors, dim in ((diag, diag.shape[1]), (pair, alg.nblocks), (center(alg).basis, alg.dim)):
        sub = SubalgebraBasis(alg, vectors)
        assert commutant(sub).dim == dim
        assert_commutant_matches_dense(sub)


@pytest.mark.parametrize("moved", [False, True], ids=["catalog", "moved"])
def test_block_ideals_and_definiteness_match_dense_on_catalog_members(moved):
    """The Haar ideals of eps_t and eps_s, the commutants of N_s and N_t,
    the Choi blocks of eps_t, eps_s and S and the Gram blocks of the regular
    trace, the counit and a block trace, on every catalog member of
    dimension <= 27, as given or moved along a seeded inner automorphism
    (every coproduct dense)."""
    rng = np.random.default_rng(0x1DEA)
    checked = 0
    for entry in catalog():
        w = entry.build()
        if w.dim > 27:
            continue
        if moved:
            w = moved_along(w, inner_automorphism(w.algebra, rng))
        alg, eye = w.algebra, np.eye(w.dim)
        assert_block_ideals_match_dense(alg, eye - w.eps_t_matrix.T, eye - w.eps_s_matrix.T)
        for sub in _cartan_spans(w, Tolerance())[:2]:
            assert_commutant_matches_dense(sub)
        weights = np.arange(alg.nblocks, dtype=float)
        functionals = [regular_trace(alg), Functional(alg, w.counit), block_trace(alg, weights)]
        assert_definiteness_matches_dense(alg, [w.eps_t_matrix, w.eps_s_matrix, w.antipode], functionals)
        checked += 1
    assert checked == 52


@pytest.mark.parametrize("shape", SHAPES + UNSORTED)
def test_block_definiteness_matches_the_dense_matrices(shape):
    alg = make_algebra(shape)
    rng = np.random.default_rng(shape)
    diag = np.flatnonzero(alg.basis_row == alg.basis_col)
    compression = np.zeros((alg.dim, alg.dim), dtype=complex)
    compression[diag, diag] = 1.0
    noise = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    emats = [np.eye(alg.dim), alg.star_matrix, compression, noise]
    vecs = [alg.unit, np.eye(alg.dim)[0], rng.standard_normal(alg.dim)]
    functionals = [regular_trace(alg), *(Functional(alg, v) for v in vecs)]
    assert_definiteness_matches_dense(alg, emats, functionals)


@pytest.mark.parametrize("shape", SHAPES)
def test_unit_and_star_involution(shape):
    alg = make_algebra(shape)
    for a in range(alg.dim):
        v = np.zeros(alg.dim, dtype=complex)
        v[a] = 1.0
        assert max_abs(alg.mul(alg.unit, v) - v) == 0.0
        assert max_abs(alg.mul(v, alg.unit) - v) == 0.0
        assert max_abs(alg.star(alg.star(v)) - v) == 0.0


@pytest.mark.parametrize("shape", SHAPES)
def test_star_columns_and_star_are_the_products_with_the_star_matrix(shape):
    alg = make_algebra(shape)
    x = np.random.default_rng(2).standard_normal((3, alg.dim, alg.dim, 2)) @ [1, 1j]
    assert np.array_equal(alg.star_columns(x), x @ alg.star_matrix)
    assert np.array_equal(alg.star_columns(x[0, 0]), x[0, 0] @ alg.star_matrix)
    assert np.array_equal(alg.star(x[0]), alg.star_matrix @ np.conj(x[0]))


def test_make_algebra_builds_each_block_shape_once_read_only():
    alg = make_algebra((2, 1))
    assert make_algebra([2, 1]) is alg and make_algebra(np.array([2, 1])) is alg
    assert make_algebra((1, 2)) is not alg
    for value in [*vars(alg).values(), *(a for _, *arrays in alg.size_classes for a in arrays)]:
        assert not isinstance(value, np.ndarray) or not value.flags.writeable
    with pytest.raises(ValueError):
        alg.unit[0] = 2.0


def test_split_realization_leaves_rank_one_pieces_unsplit(monkeypatch):
    """Realizing N_t of cube-family 4 (four 1 x 1 blocks, split route)
    compresses no hermitian part to a rank-one piece: a rank-one
    projection is minimal."""
    w = cube_family(4)
    nt = _cartan_spans(w, Tolerance())[1]
    shapes = []
    real = algebra_module.eigenspaces

    def counting(h, tol=None):
        shapes.append(h.shape)
        return real(h, tol)

    monkeypatch.setattr(algebra_module, "eigenspaces", counting)
    products, star, unit = nt.structure_constants()
    data = StarAlgebraData(products, star, unit, regular_trace_of(products, nt.dim))
    assert wedderburn_realize(data).algebra.block_shape == (1, 1, 1, 1)
    assert shapes and (1, 1) not in shapes


def test_star_antimultiplicative():
    alg = make_algebra((2, 3))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        assert max_abs(alg.star(alg.mul(x, y)) - alg.mul(alg.star(y), alg.star(x))) < 1e-12


def test_matrix_units_multiply_as_matrices():
    alg = make_algebra((3,))
    e = lambda i, j: np.eye(9)[alg.matrix_unit_index(0, i, j)]
    assert max_abs(alg.mul(e(0, 1), e(1, 2)) - e(0, 2)) == 0.0
    assert max_abs(alg.mul(e(0, 1), e(0, 1))) == 0.0
    assert max_abs(alg.star(e(0, 1)) - e(1, 0)) == 0.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_regular_trace_positive_faithful(seed):
    alg = make_algebra((1, 2))
    tau = regular_trace(alg)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    val = tau(alg.mul(alg.star(x), x))
    assert abs(val.imag) < 1e-10
    assert val.real > 0 or np.allclose(x, 0)


def test_regular_trace_values():
    # trace of the left regular representation: theta(P_i) = d_i^2
    alg = make_algebra((2, 1))
    tau = regular_trace(alg)
    assert tau(np.asarray(alg.unit)) == pytest.approx(5.0)
    assert tau(alg.block_identity(0)) == pytest.approx(4.0)
    assert tau(np.eye(alg.dim)[alg.matrix_unit_index(0, 0, 0)]) == pytest.approx(2.0)


def test_center_and_minimal_central_projections():
    alg = make_algebra((2, 1, 3))
    z = center(alg)
    assert z.dim == 3
    ps = minimal_central_projections(alg)
    assert len(ps) == 3
    total = sum(p.coeffs for p in ps)
    assert max_abs(total - alg.unit) == 0.0
    for p in ps:
        assert max_abs(alg.mul(p.coeffs, p.coeffs) - p.coeffs) == 0.0
        assert max_abs(alg.star(p.coeffs) - p.coeffs) == 0.0


def test_double_commutant():
    # relative double commutant inside a multimatrix algebra equals the
    # subalgebra generated together with the center; my span contains the
    # center here, so S'' = S
    alg = make_algebra((2, 2, 1))
    zs = [np.asarray(alg.block_identity(i), dtype=complex) for i in range(3)]
    span = SubalgebraBasis(alg, np.stack(zs, axis=1))
    dc = commutant(commutant(span))
    assert dc.dim == 3
    assert subspace_distance(dc.basis, span.basis) < 1e-9


def test_double_commutant_masa_in_factor():
    # the diagonal masa of M_3 is its own double commutant
    alg = make_algebra((3,))
    diag = SubalgebraBasis(
        alg,
        np.stack(
            [np.eye(9)[alg.matrix_unit_index(0, i, i)] for i in range(3)], axis=1
        ).astype(complex),
    )
    masa_comm = commutant(diag)
    assert masa_comm.dim == 3
    dc = commutant(masa_comm)
    assert dc.dim == 3
    assert subspace_distance(dc.basis, diag.basis) < 1e-9


def test_double_commutant_contains_generating_span():
    # without the center, S'' can only grow: S'' contains S
    alg = make_algebra((2, 2, 1))
    p0 = np.asarray(alg.block_identity(0), dtype=complex)
    span = SubalgebraBasis(alg, np.stack([alg.unit, p0], axis=1))
    dc = commutant(commutant(span))
    assert dc.contains(span.basis) < 1e-9
    assert dc.dim == 3  # the whole center, generated by {1, P0} and Z(M)


def test_commutant_of_center_is_whole_algebra():
    alg = make_algebra((2, 1))
    assert commutant(center(alg)).dim == alg.dim


def test_commutant_of_whole_algebra_is_center():
    alg = make_algebra((2, 2))
    whole = SubalgebraBasis(alg, np.eye(alg.dim, dtype=complex))
    com = commutant(whole)
    assert com.dim == 2
    assert subspace_distance(com.basis, center(alg).basis) < 1e-9


def _presentation(mult, star, unit, gns):
    """StarAlgebraData from dense structure constants b_a b_b = sum_c mult[a, b, c] b_c."""
    p, q, m = np.nonzero(mult)
    return StarAlgebraData((p, q, m, mult[p, q, m]), star, unit, gns)


def _scrambled_data(shape, seed):
    """Presentation of make_algebra(shape) in a random new basis, and its
    dense structure constants."""
    alg = make_algebra(shape)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal(
        (alg.dim, alg.dim)
    )
    # change of basis: new basis vectors b'_a = sum_m g[m, a] b_m
    ginv = np.linalg.inv(g)
    mult = np.einsum(
        "ma,nb,mnk,ck->abc", g, g, mult_tensor(alg), ginv, optimize=True
    )
    star = ginv @ alg.star_matrix @ np.conj(g)
    unit = ginv @ alg.unit
    trace = g.T @ regular_trace(alg).vec
    return _presentation(mult, star, unit, trace), mult


@pytest.mark.parametrize("shape", SHAPES)
def test_product_of_the_triples_is_the_dense_left_multiplication(shape):
    data, mult = _scrambled_data(shape, 4)
    lt = mult.transpose(0, 2, 1)  # lt[a] is the left multiplication by b_a
    # every triple given twice at half its value: repeated triples are summed
    p, q, m, v = (np.concatenate([x, x]) for x in data.products)
    halves = StarAlgebraData((p, q, m, v / 2), data.star, data.unit, data.gns)
    assert max_abs(_left_multiplications(halves) - lt) <= 1e-12 * max(1.0, max_abs(lt))


@pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 1, 1)])
def test_wedderburn_round_trip(shape, seed=3):
    data, mult = _scrambled_data(shape, seed)
    real = wedderburn_realize(data)
    assert tuple(real.algebra.block_shape) == tuple(sorted(shape))
    can = real.algebra
    w, v = real.to_canonical, real.from_canonical
    dim = data.dim
    assert max_abs(w @ v - np.eye(dim)) < 1e-8
    assert max_abs(w @ data.unit - can.unit) < 1e-8
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        prod_abs = np.einsum("abc,a,b->c", mult, x, y)
        assert max_abs(v @ can.mul(w @ x, w @ y) - prod_abs) < 1e-8
        star_abs = data.star @ np.conj(x)
        assert max_abs(v @ can.star(w @ x) - star_abs) < 1e-8


def test_wedderburn_rejects_nonsemisimple():
    # 2-dim algebra of dual numbers: 1, t with t^2 = 0 is not semisimple
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = 1.0
    star = np.eye(2, dtype=complex)
    unit = np.array([1.0, 0.0], dtype=complex)
    trace = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NotSemisimple):
        wedderburn_realize(_presentation(mult, star, unit, trace))


def _two_points():
    """C (+) C on the idempotents f_0, f_1 with the trace f_a -> 1."""
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[1, 1, 1] = 1.0
    return mult, np.eye(2, dtype=complex), np.ones(2, dtype=complex), np.ones(2, dtype=complex)


def test_wedderburn_realizes_two_points():
    real = wedderburn_realize(_presentation(*_two_points()))
    assert real.algebra.block_shape == (1, 1)
    assert real.residual < 1e-12


ROUTES = ("_presentation_join", "_presentation_dense")


@contextmanager
def _through(route):
    """Every presentation check of wedderburn_realize on one of ROUTES."""
    helper = getattr(algebra_module, route)
    with pytest.MonkeyPatch.context() as patch:
        for name in ROUTES:
            patch.setattr(algebra_module, name, helper)
        yield


def test_wedderburn_rejects_wrong_unit():
    mult, star, _, trace = _two_points()
    for route in ROUTES:
        with _through(route), pytest.raises(WkaError, match="unit fails"):
            wedderburn_realize(_presentation(mult, star, np.array([1.0, 0.0]), trace))


def test_wedderburn_rejects_non_involutive_star():
    # (x*)* = 4x for the star x -> 2 conj(x)
    mult, star, unit, trace = _two_points()
    for route in ROUTES:
        with _through(route), pytest.raises(NotStarClosed, match="involution fails"):
            wedderburn_realize(_presentation(mult, 2 * star, unit, trace))


def test_wedderburn_rejects_non_antimultiplicative_star():
    # the swap b_1 <-> b_2 is an involution, but on the triangular product
    # below (b_1 b_2 = b_1, b_2 b_1 = 0) it is not anti-multiplicative
    mult = np.zeros((3, 3, 3), dtype=complex)
    mult[0, :, :] = mult[:, 0, :] = np.eye(3)
    mult[1, 2, 1] = mult[2, 2, 2] = 1.0
    star = np.eye(3, dtype=complex)[[0, 2, 1]]
    for route in ROUTES:
        with _through(route), pytest.raises(NotStarClosed, match="involution fails"):
            wedderburn_realize(_presentation(mult, star, np.eye(3)[0], np.eye(3)[0]))


def test_wedderburn_rejects_non_associative_product():
    # unit 1, x x = y, x y = y x = 1, y y = 0: commutative with a real
    # involution, but (x x) y = 0 while x (x y) = x
    mult = np.zeros((3, 3, 3), dtype=complex)
    mult[0, :, :] = mult[:, 0, :] = np.eye(3)
    mult[1, 1, 2] = mult[1, 2, 0] = mult[2, 1, 0] = 1.0
    star = np.eye(3, dtype=complex)
    for route in ROUTES:
        with _through(route), pytest.raises(WkaError, match="associativity fails"):
            wedderburn_realize(_presentation(mult, star, np.eye(3)[0], np.eye(3)[0]))


def _groupoid_data(gpd):
    """Presentation of the groupoid algebra on its morphisms: g h is the
    composition or 0, g* = g^-1, and the regular trace as GNS functional."""
    n = gpd.size
    g, h = np.nonzero(gpd.compose >= 0)
    products = (g, h, gpd.compose[g, h], np.ones(g.size))
    star = np.zeros((n, n), dtype=complex)
    star[gpd.inverse, np.arange(n)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[gpd.units] = 1.0
    return StarAlgebraData(products, star, unit, regular_trace_of(products, n))


def test_groupoid_basis_is_realized_by_rescaling():
    # K_2 + K_1 + K_2: units 0, 3 | 4 | 5, 8; equal blocks go by smallest unit
    gpd = disjoint_union(pair_groupoid(2), disjoint_union(pair_groupoid(1), pair_groupoid(2)))
    real = wedderburn_realize(_groupoid_data(gpd))
    assert real.algebra.block_shape == (1, 2, 2)
    canon, scale = monomial_rows(real.from_canonical)
    assert canon.tolist() == [1, 2, 3, 4, 0, 5, 6, 7, 8]
    assert np.array_equal(scale, np.ones(9))
    assert real.residual == 0.0


def _with_extra_output(data):
    # b_0 b_0 = b_0 + b_1
    p, q, m, v = data.products
    products = (np.append(p, 0), np.append(q, 0), np.append(m, 1), np.append(v, 1.0))
    return StarAlgebraData(products, data.star, data.unit, data.gns)


def _with_mixing_star(data):
    # b_1* = b_2 + b_0 / 2
    star = data.star.copy()
    star[0, 1] = 0.5
    return StarAlgebraData(data.products, star, data.unit, data.gns)


@pytest.mark.parametrize(
    "data",
    [
        _groupoid_data(cyclic_groupoid(3)),  # isotropy: one unit, three morphisms
        _with_extra_output(_groupoid_data(pair_groupoid(2))),
        _with_mixing_star(_groupoid_data(pair_groupoid(2))),
    ],
    ids=["isotropy", "two-outputs", "non-monomial-star"],
)
def test_groupoid_detector_declines(data):
    assert _groupoid_matrix_units(_groupoid_data(pair_groupoid(2))) is not None
    assert _groupoid_matrix_units(data) is None


def _k2_with(products=None, star=None, gns=None):
    data = _groupoid_data(pair_groupoid(2))
    return StarAlgebraData(
        data.products if products is None else products,
        data.star if star is None else star,
        data.unit,
        data.gns if gns is None else gns,
    )


def test_groupoid_shaped_presentations_keep_their_rejections():
    data = _k2_with()
    # phi(b_x* b_x) = phi(b_source(x)) vanishes for the x with source (1, 1)
    with pytest.raises(NotSemisimple, match="GNS form degenerate"):
        wedderburn_realize(_k2_with(gns=np.eye(4)[0]))
    # (0,1)(1,0) = 2 (0,0) breaks associativity: ((0,1)(1,0))(0,1) = 2 (0,1)
    # while (0,1)((1,0)(0,1)) = (0,1)
    p, q, m, v = data.products
    v = np.where((p == 1) & (q == 2), 2.0, v)
    for route in ROUTES:
        with _through(route), pytest.raises(NotStarClosed, match="involution fails"):
            wedderburn_realize(_k2_with(star=2 * data.star))
        with _through(route), pytest.raises(WkaError, match="associativity fails"):
            wedderburn_realize(_k2_with(products=(p, q, m, v)))


def _received_presentations():
    """Every presentation that wedderburn_realize receives while the catalog
    members are built and their Cartan pairs found, then the dual
    presentation of cube_family(3) moved along an inner automorphism."""
    received, validate = [], algebra_module._validate_star_algebra

    def record(data, tol):
        received.append(data)
        return validate(data, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_module, "_validate_star_algebra", record)
        for entry in catalog():
            cartan_subalgebras(entry.build())
        w = cube_family(3)
        dual(moved_along(w, inner_automorphism(w.algebra, np.random.default_rng(0))))
    return received


def test_presentation_routes_agree():
    """The join over the product triples and the table of left
    multiplications give the same residuals on every realized presentation:
    the groupoid and split bases of the catalog, the small Cartan pairs and
    a dense dual; and on that dual with noise 1e-6 on its product, which
    both find neither associative nor anti-multiplicative."""
    received = _received_presentations()
    p, q, m, v = received[-1].products
    noisy = v * (1 + 1e-6 * np.random.default_rng(1).standard_normal(v.size))
    broken = StarAlgebraData((p, q, m, noisy), *(getattr(received[-1], f) for f in ("star", "unit", "gns")))
    for data in [*received, broken]:
        join, dense = algebra_module._presentation_join(data), algebra_module._presentation_dense(data)
        assert max(abs(j - d) for j, d in zip(join, dense)) <= 1e-12, (data.dim, join, dense)
    assert min(join) > 1e-8


@pytest.mark.parametrize(
    "gpd", [pair_groupoid(2), cyclic_groupoid(3)], ids=["rescaled", "split"]
)
def test_realization_cutoffs_follow_the_tolerance(gpd):
    """The star scaled by 1 + eps fails the involution by 2 eps (its square
    is (1 + eps)^2) and the round trip by eps: by 2e-8 and 1e-8 at
    eps = 1e-8, by 6e-6 and 3e-6 at eps = 3e-6.  The involution passes at
    1e3 * abs_tol, the round trip at 100 * abs_tol."""
    data = _groupoid_data(gpd)

    def scaled(eps):
        return StarAlgebraData(data.products, (1 + eps) * data.star, data.unit, data.gns)

    assert wedderburn_realize(scaled(1e-8)).residual == pytest.approx(1e-8, rel=1e-3)
    with pytest.raises(NotStarClosed, match="involution fails"):
        wedderburn_realize(scaled(1e-8), Tolerance(abs_tol=1e-13))
    with pytest.raises(NotStarClosed, match="involution fails"):
        wedderburn_realize(scaled(3e-6))
    assert wedderburn_realize(scaled(3e-6), Tolerance(abs_tol=1e-7)).residual == pytest.approx(3e-6, rel=1e-3)
    if gpd.size == 4:
        # between the two cutoffs: the involution passes, the round trip not
        with pytest.raises(WkaError, match="round-trip residual"):
            wedderburn_realize(scaled(1e-8), Tolerance(abs_tol=7e-11))


def test_block_trace_weights():
    alg = make_algebra((2, 1))
    tau = block_trace(alg, weights=[0.25, 3.0])
    assert tau(np.asarray(alg.block_identity(0))) == pytest.approx(0.5)
    assert tau(np.asarray(alg.block_identity(1))) == pytest.approx(3.0)


def test_functional_gram_and_faithfulness():
    alg = make_algebra((2,))
    tau = regular_trace(alg)
    g = dense_gram(tau)
    assert max_abs(g - dagger(g)) < 1e-12
    assert np.linalg.eigvalsh(g)[0] > 0.5
    assert tau.is_faithful_positive()
    rank_deficient = Functional(alg, np.zeros(alg.dim))
    assert not rank_deficient.is_faithful_positive()


def test_check_conditional_expectation_compression():
    alg = make_algebra((2,))
    # E = compression to the diagonal subalgebra of M_2
    target = SubalgebraBasis(
        alg,
        np.stack(
            [np.eye(4)[alg.matrix_unit_index(0, i, i)] for i in range(2)], axis=1
        ).astype(complex),
    )
    emat = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        k = alg.matrix_unit_index(0, i, i)
        emat[k, k] = 1.0
    rep = check_conditional_expectation(emat, target, regular_trace(alg))
    assert rep.passed


def test_complete_positivity_is_exact_on_the_transpose():
    # the transpose of M_2 is positive, so sampled x* x probes all pass,
    # but not completely positive: its Choi matrix is the swap, spectrum +-1
    alg = make_algebra((2,))
    transpose = alg.star_matrix.astype(complex)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        image = alg.to_matrix(transpose @ alg.mul(alg.star(x), x))
        assert np.linalg.eigvalsh((image + dagger(image)) / 2)[0] > -1e-12
    rep = check_conditional_expectation(transpose, SubalgebraBasis(alg, np.eye(4)))
    assert not rep["completely_positive"].passed
    assert rep["completely_positive"].residual == pytest.approx(1.0)
    assert rep["completely_positive"].note == "min eig -1.00e+00"


def test_complete_positivity_fails_on_a_transpose_of_one_block():
    # on M_1 + M_2 + M_2, the transpose of the last block (the identity
    # elsewhere) is positive but not completely positive: among the Choi
    # blocks, the one of that block with itself is the swap, spectrum +-1
    alg = make_algebra((1, 2, 2))
    emat = np.eye(alg.dim, dtype=complex)
    last = np.flatnonzero(alg.basis_block == 2)
    emat[np.ix_(last, last)] = alg.star_matrix[np.ix_(last, last)]
    rep = check_conditional_expectation(emat, SubalgebraBasis(alg, np.eye(alg.dim)))
    assert not rep["completely_positive"].passed
    assert rep["completely_positive"].residual == pytest.approx(1.0)
    for name in ("unital", "star_preserving", "faithful"):
        assert rep[name].passed, name


def test_faithful_fails_alone_on_a_rank_deficient_state():
    # E(x) = phi(x) 1 for the vector state phi(x) = x_00 of M_2 is a
    # conditional expectation onto C 1, completely positive, but the Gram
    # matrix of tau o E = 2 phi is singular
    alg = make_algebra((2,))
    phi = np.zeros(alg.dim, dtype=complex)
    phi[alg.matrix_unit_index(0, 0, 0)] = 1.0
    rep = check_conditional_expectation(np.outer(alg.unit, phi), SubalgebraBasis(alg, alg.unit))
    assert [c.name for c in rep.checks if not c.passed] == ["faithful"]
    assert not Functional(alg, phi).is_faithful_positive()


def test_complete_positivity_passes_a_compression_of_two_blocks():
    # E = compression to the diagonal of each block of M_1 + M_2 is a
    # conditional expectation; its Choi matrices are positive semidefinite
    alg = make_algebra((1, 2))
    diag = np.flatnonzero(alg.basis_row == alg.basis_col)
    emat = np.zeros((alg.dim, alg.dim), dtype=complex)
    emat[diag, diag] = 1.0
    rep = check_conditional_expectation(emat, SubalgebraBasis(alg, np.eye(alg.dim)[:, diag]))
    assert rep.passed, rep.as_text()
    assert rep["completely_positive"].residual == 0.0


def test_check_conditional_expectation_detects_non_bimodule_map():
    alg = make_algebra((2,))
    target = SubalgebraBasis(
        alg,
        np.stack(
            [np.eye(4)[alg.matrix_unit_index(0, i, i)] for i in range(2)], axis=1
        ).astype(complex),
    )
    emat = np.zeros((4, 4), dtype=complex)
    k0 = alg.matrix_unit_index(0, 0, 0)
    emat[k0, :] = 1.0  # sends everything to e_00: not even unital onto target
    rep = check_conditional_expectation(emat, target, regular_trace(alg))
    assert not rep.passed


def test_check_conditional_expectation_bimodular_can_fail_alone():
    # E(x) = diag(x) + (x_01 + x_10)(e_00 - e_11) on M_2 is unital,
    # idempotent, the identity on the diagonal and *-preserving, but
    # E(e_00 e_01 e_11) = e_00 - e_11 while e_00 E(e_01) e_11 = 0
    alg = make_algebra((2,))
    e00, e01, e10, e11 = (alg.matrix_unit_index(0, i, j) for i in range(2) for j in range(2))
    target = SubalgebraBasis(alg, np.eye(4, dtype=complex)[:, [e00, e11]])
    emat = np.zeros((4, 4), dtype=complex)
    emat[e00, e00] = emat[e11, e11] = 1.0
    emat[e00, [e01, e10]] = 1.0
    emat[e11, [e01, e10]] = -1.0
    rep = check_conditional_expectation(emat, target)
    for name in ("unital", "range_in_target", "identity_on_target", "star_preserving"):
        assert rep[name].passed, name
    assert not rep["bimodular"].passed
    assert rep["bimodular"].residual == pytest.approx(1.0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_bimodular_fails_a_one_sided_module_map(side):
    # with u = 1 + e_01 and D the diagonal part on M_2, E(x) = D(x u) is
    # unital, the identity on the diagonal and left-modular, but
    # E(e_10 e_00) = e_11 while E(e_10) e_00 = 0; E(x) = D(u x) is the mirror
    alg = make_algebra((2,))
    e00, e01, e10, e11 = (alg.matrix_unit_index(0, i, j) for i in range(2) for j in range(2))
    target = SubalgebraBasis(alg, np.eye(4, dtype=complex)[:, [e00, e11]])
    u = alg.unit.copy()
    u[e01] = 1.0
    emat = target.basis @ target.basis.T @ (rmat(alg, u) if side == "left" else alg.lmat(u))
    rep = check_conditional_expectation(emat, target)
    for name in ("unital", "range_in_target", "identity_on_target"):
        assert rep[name].passed, name
    assert not rep["bimodular"].passed
    assert rep["bimodular"].residual == pytest.approx(1.0)


def test_bimodular_matches_the_pair_loop():
    # a random map against the 9-dimensional commutant of N_t in
    # cube_family(3): the one-sided residual lies within the bounds of the
    # pair loop (on this map the two maxima happen to be equal)
    w = cube_family(3)
    alg = w.algebra
    target = commutant(cartan_subalgebras(w).target)
    rng = np.random.default_rng(3)
    emat = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    assert target.dim > 4
    residual = check_conditional_expectation(emat, target)["bimodular"].residual
    assert_pair_bounds(
        residual,
        dense_bimodular(emat, target),
        alg.lmat(target.basis.T),
        rmat(alg, target.basis.T),
        unit_coordinates(alg, target.basis),
    )


def _expectations(w):
    """The three Haar conditional expectations of w with their targets."""
    tol = Tolerance()
    e_t, e_s, eo_t, _ = haar_conditional_expectations(w, tol=tol)
    ns, nt, _, _ = _cartan_spans(w, tol)
    return [(e_t, nt), (e_s, ns), (eo_t, commutant(nt, tol))]


def test_bimodular_verdicts_match_the_pair_loop_on_the_catalog():
    """On the three expectations of every catalog member, and on each moved
    by a fixed map at 1e-13 and at 1e-3, the one-sided check passes exactly
    when the pair loop stays within the report's limit, abs_tol."""
    limit = Tolerance().abs_tol
    rng = np.random.default_rng(0)
    verdicts = set()
    for entry in catalog():
        for emat, target in _expectations(entry.build()):
            move = rng.standard_normal(emat.shape)
            for size in (0.0, 1e-13, 1e-3):
                moved = emat + size * move
                passed = check_conditional_expectation(moved, target)["bimodular"].passed
                assert passed == (dense_bimodular(moved, target) <= limit), (entry.name, size)
                verdicts.add(passed)
    assert verdicts == {True, False}


def test_bimodular_holds_no_stack_of_target_operators():
    """The check on the relative expectation of cube_family(5), onto the
    commutant of N_t (k = 25, d = 125), keeps its traced peak below one
    stack of k d x d complex matrices (6.25 MB)."""
    w = cube_family(5)
    emat, target = _expectations(w)[2]
    assert (target.dim, w.dim) == (25, 125)
    tracemalloc.start()
    try:
        check_conditional_expectation(emat, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < target.dim * w.dim ** 2 * 16, peak

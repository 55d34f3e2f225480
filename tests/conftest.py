"""Shared fixtures: cached example algebras reused across test modules."""

from functools import lru_cache

import numpy as np
import pytest

from wka import (
    WeakKac,
    crossed_product,
    cube_family,
    cyclic_groupoid,
    cyclic_shift_action,
    disjoint_union,
    dual_elementary,
    elementary,
    elementary_twist,
    groupoid_algebra,
    groupoid_function_algebra,
    pair_groupoid,
    random_cocycle,
)
from wka.haar import _ideal_blocks
from wka.tensorkit import (
    Tolerance,
    _join,
    _row_starts,
    block_nullspace,
    block_positive_definite,
    dagger,
    difference_max_abs,
    intersect_subspaces,
    max_abs,
    nullspace,
    numerical_rank,
    positive_definite,
    subspace_distance,
)


# block shapes of the multimatrix algebras that the algebra-level tests run on
SHAPES = [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 3)]


@lru_cache(maxsize=None)
def get_example(name):
    """Build one of the named example algebras (cached per session)."""
    builders = {
        "group_z2": lambda: groupoid_algebra(cyclic_groupoid(2)),
        "group_z3": lambda: groupoid_algebra(cyclic_groupoid(3)),
        "group_k2": lambda: groupoid_algebra(pair_groupoid(2)),
        "group_k3": lambda: groupoid_algebra(pair_groupoid(3)),
        "fun_z2": lambda: groupoid_function_algebra(cyclic_groupoid(2)),
        "fun_k2": lambda: groupoid_function_algebra(pair_groupoid(2)),
        "fun_k3": lambda: groupoid_function_algebra(pair_groupoid(3)),
        "fun_disc": lambda: groupoid_function_algebra(
            disjoint_union(cyclic_groupoid(2), cyclic_groupoid(1))
        ),
        "elem_12": lambda: elementary((1, 2)),
        "elem_11": lambda: elementary((1, 1)),
        "dualelem_12": lambda: dual_elementary((1, 2)),
        "cube2": lambda: cube_family(2),
        "cube3": lambda: cube_family(3),
        "crossed2": lambda: crossed_product(*cyclic_shift_action(2)),
        "twist_11": lambda: elementary_twist(elementary((1, 1)), random_cocycle(2, seed=7)),
        "twist_12": lambda: elementary_twist(elementary((1, 2)), random_cocycle(2, seed=3)),
    }
    return builders[name]()


def dense_coproduct(w):
    """The coproduct of w as a dense (d, d, d) array: (id (x) id) Delta."""
    return w.pair_leg(np.eye(w.dim), 1)


def mu(w, coeff_matrix):
    """Multiply out mu(sum C[a,b] b_a (x) b_b) = sum C[a,b] b_a b_b; axes
    of C after the first two are carried along."""
    c = np.asarray(coeff_matrix, dtype=complex)
    p, q, m = w.algebra.products
    out = np.zeros((w.dim, *c.shape[2:]), dtype=complex)
    np.add.at(out, m, c[p, q])
    return out


def rmat(alg, x):
    """Dense matrix of right multiplication by x on coefficient vectors; for
    a stack of elements x[..., :] the stack of their matrices."""
    x = np.asarray(x, dtype=complex)
    p, q, m = alg.products
    out = np.zeros((*x.shape[:-1], alg.dim, alg.dim), dtype=complex)
    out[..., m, p] = x[..., q]
    return out


def mult_tensor(alg):
    """Dense structure constants mult[a, b, c] with b_a b_b = sum_c mult[a, b, c] b_c."""
    p, q, m = alg.products
    mult = np.zeros((alg.dim,) * 3)
    mult[p, q, m] = 1.0
    return mult


def basis_products(alg, c, leg, left):
    """Dense stack over the basis of an element C of M (x) M, given as its
    coefficient matrix, with one leg multiplied by b_j: out[j] is
    (b_j (x) 1) C, C (b_j (x) 1), (1 (x) b_j) C or C (1 (x) b_j) for
    (leg, left) = (0, True), (0, False), (1, True) or (1, False)."""
    c = np.asarray(c, dtype=complex)
    p, q, m = alg.products
    j, k = (p, q) if left else (q, p)
    out = np.zeros((alg.dim,) * 3, dtype=complex)
    if leg == 0:
        out[j, m, :] = c[k, :]
    else:
        out[j, :, m] = c[:, k].T
    return out


def dense_haar_trace_identity(w, pairing):
    """Oracle of `haar_trace_identity`: (id (x) phi(b_b .)) Delta(b_a) against
    S (id (x) phi(. b_a)) Delta(b_b) at [a, m, b], as dense d^3 arrays."""
    lhs = w.pair_leg(pairing.T, 1)
    rhs = (w.antipode @ w.pair_leg(pairing, 1)).transpose(2, 1, 0)
    return np.abs(lhs - rhs).max()


def dense_regular_trace_identity(w, theta):
    """Oracle of `regular_trace_identity`, through the dense stack e (b_a (x) 1)."""
    e_x_one = basis_products(w.algebra, w.e_matrix, leg=0, left=False)
    return np.abs(w.pair_leg(theta, 0) - (theta @ e_x_one) @ w.antipode.T).max()


def dense_absorption(alg, et):
    """Oracle of `absorbs_right_factor`: the d^3 stacks over a of the
    matrices of y -> eps_t(b_a y) and y -> eps_t(b_a eps_t(y))."""
    p, q, m = alg.products
    lhs = np.zeros((alg.dim,) * 3, dtype=complex)
    lhs[p, :, q] = et[:, m].T
    return np.abs(lhs - et @ basis_products(alg, et, leg=0, left=True)).max()


def dense_target_bimodule_map(w, nt):
    """Oracle of `target_bimodule_map`: eps_t(n S(n') x) against n eps_t(x) n'
    over the pairs of basis elements n, n' of N_t, as one k^2 d^2 stack."""
    alg, et = w.algebra, w.eps_t_matrix
    ln, rn, lsn = alg.lmat(nt.T), rmat(alg, nt.T), alg.lmat((w.antipode @ nt).T)
    return np.abs(et @ ln[:, None] @ lsn[None] - ln[:, None] @ rn[None] @ et).max()


def dense_cartan_operators(w, ns, nt):
    """Oracles of `cartans_commute` and `e_exchanges_target_factors` for the
    bases ns, nt of N_s, N_t: the k d x d stacks of L_v and R_v."""
    alg, e = w.algebra, w.e_matrix
    ls, rs, lt, rt = alg.lmat(ns.T), rmat(alg, ns.T), alg.lmat(nt.T), rmat(alg, nt.T)
    st = (w.antipode @ nt).T
    exchange = max(
        np.abs(rmat(alg, st) @ e - e @ rt.transpose(0, 2, 1)).max(),
        np.abs(alg.lmat(st) @ e - e @ lt.transpose(0, 2, 1)).max(),
    )
    return np.abs((ls - rs) @ nt).max(), exchange


def dense_right_antipode_absorption(w, nt):
    """Oracle of `right_antipode_absorption`: eps_t R_n against eps_t R_S(n)
    over the basis n of N_t, one dense d x d pair at a time."""
    alg, et = w.algebra, w.eps_t_matrix
    return max(
        np.abs(et @ rmat(alg, n) - et @ rmat(alg, sn)).max()
        for n, sn in zip(nt.T, (w.antipode @ nt).T)
    )


def dense_projection_absorption(w, p):
    """Oracles of `right_absorption` and `left_absorption`: R_p = R_p eps_t
    and L_p = L_p eps_s as dense d x d matrices."""
    rp, lp = rmat(w.algebra, p), w.algebra.lmat(p)
    return np.abs(rp - rp @ w.eps_t_matrix).max(), np.abs(lp - lp @ w.eps_s_matrix).max()


def flip_identity_blocks(w, v, chunk=1 << 21):
    """Oracle of the flip identity: every term of both sides forms its k x k
    block c v[:, a] (x) v[:, b], summed per key (x, y, z), for one range of
    x at a time holding about `chunk` block entries."""
    alg, d, vt = w.algebra, w.dim, v.T
    rows, cols, units, size = alg.basis_row, alg.basis_col, alg.unit_index, alg.matrix_size
    i, m, n, t = w.coproduct
    by_row = _row_starts(rows, size)
    f, y = _join(cols[m], by_row)
    g, z = _join(cols[n[f]], by_row)
    f, y = f[g], y[g]
    a, b = units[rows[m[f]], cols[y]], units[rows[n[f]], cols[z]]
    left = (i[f], (i[f] * d + y) * d + z, t[f], a, b)
    c, y = np.nonzero(w.antipode)
    order = np.argsort(cols[c], kind="stable")
    f, r = _join(rows[m], _row_starts(cols[c[order]], size))
    by_col = np.argsort(cols, kind="stable")
    g, x = _join(rows[n[f]], _row_starts(cols[by_col], size))
    f, c, y, x = f[g], c[order[r[g]]], y[order[r[g]]], by_col[x]
    a, b = units[rows[x], cols[n[f]]], units[rows[c], cols[m[f]]]
    right = (x, (x * d + y) * d + i[f], t[f] * w.antipode[c, y], a, b)

    def blocks(side, lo, hi):
        lead, keys, coeff, a, b = side
        s = (lo <= lead) & (lead < hi)
        return keys[s], coeff[s, None, None] * vt[a[s], :, None] * vt[b[s], None, :]

    upto = np.cumsum(np.bincount(left[0], minlength=d) + np.bincount(right[0], minlength=d))
    upto *= vt.shape[1] ** 2
    cuts = np.searchsorted(upto, np.arange(chunk, upto[-1], chunk), side="right")
    bounds = sorted({0, *cuts.tolist(), d})
    return max(
        difference_max_abs(blocks(left, lo, hi), blocks(right, lo, hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )


def dense_bimodular(emat, target):
    """Oracle of `bimodular`: E(a x b) against a E(x) b over the pairs of
    target basis elements a, b, one pair at a time."""
    alg = target.parent
    worst = 0.0
    for a in target.basis.T:
        for b in target.basis.T:
            la, rb = alg.lmat(a), rmat(alg, b)
            worst = max(worst, np.abs(emat @ la @ rb - la @ rb @ emat).max())
    return worst


def assert_pair_bounds(one_sided, pair, lefts, rights, unit_coords):
    """The bounds between a two-sided residual, the max over pairs (a, b) of
    |X_a B_b + A_a Y_b| (for bimodularity, [E, L_a R_b] with X_a = [E, L_a],
    Y_b = [E, R_b]), and the one-sided residual max(|X_a|, |Y_b|):
        pair <= one_sided (max_a ||A_a||_inf + max_b ||B_b||_1),
        one_sided <= ||c||_1 pair,
    the second because 1 = sum_b c_b n_b in the target turns the sum over
    b (or a) of c_b times the pair terms into X_a (or Y_b), and is skipped
    when unit_coords is None.  Up to rounding.
    """
    spread = max(np.linalg.norm(a, np.inf) for a in lefts) + max(
        np.linalg.norm(b, 1) for b in rights
    )
    assert pair <= one_sided * spread * (1 + 1e-12) + 1e-14, (pair, one_sided, spread)
    if unit_coords is not None:
        c1 = np.abs(unit_coords).sum()
        assert one_sided <= c1 * pair * (1 + 1e-12) + 1e-14, (one_sided, pair, c1)


def unit_coordinates(alg, basis):
    """The coordinates c of 1 in the columns of basis, 1 = basis @ c, or
    None when 1 is not in their span."""
    c = np.linalg.lstsq(basis, alg.unit, rcond=None)[0]
    return c if np.abs(basis @ c - alg.unit).max() < 1e-12 else None


def dense_pairing_identities(w, dw):
    """Oracles of `coproduct_pairs_with_product` and
    `product_pairs_with_coproduct`: the pairing tensors as dense d^3 arrays."""
    f = dw.meta["from_canonical"]
    lhs = f @ dw.pair_leg(f.T, 1)
    p, q, m = w.algebra.products
    rhs = np.zeros((w.dim,) * 3, dtype=complex)
    rhs[:, p, q] = f[m].T
    coproduct_pairs = np.abs(lhs - rhs).max()
    p, q, m = dw.algebra.products
    lhs = np.zeros((w.dim,) * 3, dtype=complex)
    lhs[p, q] = f[:, m].T
    rhs = (f.T @ w.pair_leg(f, 1)).transpose(1, 2, 0)
    return coproduct_pairs, np.abs(lhs - rhs).max()


def dense_convolution_unit_system(w, phim):
    """Oracle of the convolution unit system: both halves stacked densely
    over all 2 d^2 rows (j, a), with the right side Phi[a, j]."""
    left, right = (w.pair_leg(phim, leg).transpose(2, 0, 1).reshape(-1, w.dim) for leg in (1, 0))
    rhs = phim.T.reshape(-1)
    return [(left, rhs), (right, rhs)]


def dense_block_ranks(w, c, tol):
    """Oracle of `coproduct_block_ranks`: the rank of each (i, j) block of
    Delta(p), sliced out of its concrete N^2 x N^2 matrix."""
    alg = w.algebra
    mat2, n = alg.to_matrix2(c), alg.matrix_size
    ranks = {}
    for i in range(alg.nblocks):
        rows_i = alg.row_offsets[i] + np.arange(alg.block_shape[i])
        for j in range(alg.nblocks):
            rows_j = alg.row_offsets[j] + np.arange(alg.block_shape[j])
            idx = (rows_i[:, None] * n + rows_j[None, :]).reshape(-1)
            ranks[i, j] = numerical_rank(mat2[np.ix_(idx, idx)], tol)
    return ranks


def dense_ideal(alg, x, left, tol=None):
    """Oracle of an ideal solve: the null space of the d^2 x d stack over
    the rows x[a] of x of L_{x[a]} (left) or R_{x[a]}, at its own shape."""
    ops = alg.lmat(x) if left else rmat(alg, x)
    return nullspace(ops.reshape(alg.dim * alg.dim, alg.dim), tol)


def dense_commutant(sub, tol=None):
    """Oracle of `commutant`: the null space of the k d x d stack of
    L_b - R_b over the basis b of sub, at its own shape."""
    alg, b = sub.parent, sub.basis
    return nullspace((alg.lmat(b.T) - rmat(alg, b.T)).reshape(-1, alg.dim), tol)


def dense_gram(phi):
    """Oracle of the Gram matrix G[a, b] = phi(b_a* b_b), dense d x d."""
    return phi.pairing()[phi.parent.star_index]


def dense_choi_matrices(alg, emat):
    """Oracle of the Choi blocks: the dense Choi matrix sum_kl e_kl (x) E(e_kl)
    of the map emat for each block of alg, of size n_b N, N the size of the
    concrete realization."""
    n = alg.matrix_size
    out = []
    for b, d in enumerate(alg.block_shape):
        images = emat[:, alg.basis_offsets[b] + np.arange(d * d)]  # E(e_kl), column k d + l
        mats = np.zeros((d * d, n, n), dtype=complex)
        mats[:, alg.basis_row, alg.basis_col] = images.T
        out.append(mats.reshape(d, d, n, n).transpose(0, 2, 1, 3).reshape(d * n, d * n))
    return out


def inner_automorphism(alg, rng):
    """Coefficient matrix of x -> U x U* for a random block-unitary U."""
    u = np.zeros((alg.matrix_size, alg.matrix_size), dtype=complex)
    for start, d in zip(alg.row_offsets, alg.block_shape):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u[start : start + d, start : start + d] = np.linalg.qr(z)[0]
    images = [u @ alg.to_matrix(b) @ u.conj().T for b in np.eye(alg.dim)]
    return np.stack([alg.from_matrix(x) for x in images], axis=1)


def moved_along(w, a):
    """w carried along the automorphism a (unitary on coefficients):
    Delta' = (a (x) a) Delta a^-1, S' = a S a^-1, eps' = eps a^-1."""
    ainv = a.conj().T
    t = np.einsum("gi,gab,pa,qb->ipq", ainv, dense_coproduct(w), a, a, optimize=True)
    return WeakKac(w.algebra, t, a @ w.antipode @ ainv, w.counit @ ainv)


def dense_multiplicative(alg, pis):
    """Oracle of the counital representation's `multiplicative`: the dense
    d^2 k^2 arrays of pi(b_a b_b) and pi(b_a) pi(b_b)."""
    p, q, m = alg.products
    prod = np.zeros((alg.dim, alg.dim, *pis.shape[1:]), dtype=complex)
    prod[p, q] = pis[m]
    return np.abs(prod - np.einsum("arm,bms->abrs", pis, pis)).max()


def densify(coo, d):
    """The (d, d, d) array of a sparse 3-tensor (i, j, k, values), repeated
    triples summed."""
    out = np.zeros((d,) * 3, dtype=complex)
    np.add.at(out, tuple(coo[:3]), coo[3])
    return out


def moved_entry(w):
    """w with one coproduct entry moved to a zero position of its row."""
    t = dense_coproduct(w)
    i = np.flatnonzero((t == 0).any(axis=(1, 2)))[0]
    (j, k), (j2, k2) = np.argwhere(t[i] != 0)[0], np.argwhere(t[i] == 0)[0]
    t[i, j2, k2], t[i, j, k] = t[i, j, k], 0
    return WeakKac(w.algebra, t, w.antipode, w.counit)


def e_without_block(leg):
    """Mutation: e = Delta(1) without its terms whose leg `leg` lies in
    block 0, so y -> e(1 (x) y) (leg 1) or e(y (x) 1) (leg 0) kills block 0."""

    def mutate(w):
        t, in_block = dense_coproduct(w), w.algebra.basis_block == 0
        for u in np.flatnonzero(w.algebra.unit):
            t[u][(slice(None), in_block) if leg else in_block] = 0
        return WeakKac(w.algebra, t, w.antipode, w.counit)

    return mutate


def with_noise(w, density=0.0, seed=5):
    """w with 1e-3 complex noise on the nonzeros of its coproduct and on a
    random share `density` of its zeros."""
    rng = np.random.default_rng(seed)
    t = dense_coproduct(w)
    noise = 1e-3 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
    noise[(t == 0) & (rng.random(t.shape) >= density)] = 0
    return WeakKac(w.algebra, t + noise, w.antipode, w.counit)


def assert_block_ideals_match_dense(alg, xt, xs, tol=None):
    """The block kernels of the target (left, rows xt) and source (right,
    rows xs) ideals and of their intersection against the dense null spaces
    of the d^2 x d stacks: equal dimensions, spans within 1e-12."""
    kernels = []
    for x, left in ((xt, True), (xs, False)):
        blocks = _ideal_blocks(alg, x, left)
        kernels.append(block_nullspace(blocks, tol))
    kt, ks = kernels
    eyes = [np.eye(alg.block_shape[i]) for i in alg.block_order]
    i_t = alg.block_columns([np.kron(k, e) for k, e in zip(kt, eyes)])
    i_s = alg.block_columns([np.kron(e, k) for k, e in zip(ks, eyes)])
    both = alg.block_columns([np.kron(a, b) for a, b in zip(kt, ks)])
    dense_t, dense_s = dense_ideal(alg, xt, True, tol), dense_ideal(alg, xs, False, tol)
    dense_both = intersect_subspaces([dense_s, dense_t], tol)
    for block, dense in ((i_t, dense_t), (i_s, dense_s), (both, dense_both)):
        assert block.shape == dense.shape
        assert subspace_distance(block, dense) < 1e-12


def assert_definiteness_matches_dense(alg, emats, functionals, tol=None):
    """Complete positivity of each map of emats from its Choi blocks, and
    definiteness and faithfulness of each functional from its Gram blocks,
    against the dense Choi and Gram matrices: equal verdicts, smallest
    eigenvalues within 1e-12 of the largest magnitude."""
    for emat in emats:
        dense = [np.linalg.eigvalsh((c + dagger(c)) / 2) for c in dense_choi_matrices(alg, emat)]
        low, scale = min(w[0] for w in dense), max(np.abs(w).max() for w in dense)
        _, min_eig = block_positive_definite([s for *_, s in alg.tensor_blocks(emat.T)], tol)
        assert abs(min_eig - low) <= 1e-12 * max(scale, 1.0)
    for phi in functionals:
        g = dense_gram(phi)
        ok, low = positive_definite(g, tol)
        block_ok, min_eig = phi.positive_definite(tol)
        assert block_ok == ok
        assert abs(min_eig - low) <= 1e-12 * max(np.abs(g).max(), 1.0)
        hermitian = max_abs(g - dagger(g)) <= 100 * (tol or Tolerance()).abs_tol
        assert phi.is_faithful_positive(tol) == (hermitian and ok)


@pytest.fixture
def example():
    return get_example

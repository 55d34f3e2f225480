"""Haar structure of a weak Kac algebra.

Haar projection (two independent solvers), invariant traces and the cone
they span, the conditional expectations onto the Cartan subalgebras, and
the predicate that a faithful trace makes the bialgebra a generalized
Kac algebra.  Everything is computed in coefficient space over the
matrix-unit basis.

Each structure is solved once per algebra and tolerance: the target
ideal that the Haar projection equations are solved in, and the null
space of the Haar trace conditions that the normalized trace, its check
and the trace cone all read.  A trace on M = (+) M_{n_i} is sum c_i Tr_i,
so the trace conditions are solved in the nblocks coordinates of the
block traces.  The extreme rays of the trace cone are the normalized
Haar trace cut to each hyper-central class of blocks, along which w
splits as a direct sum.

The ideals, their comparisons with M p, p M and p M p, and the
definiteness tests factor block-diagonal operators: on matrix units left
multiplication is (+) X_i (x) 1 and right multiplication (+) 1 (x) X_i^T.
They are decided on the n_i x n_i blocks, and so is the injectivity of
y -> e(1 (x) y) and e(y (x) 1).
No check draws a random input: the flip identity is trilinear and is
evaluated on every basis triple, as a join over the coproduct's nonzeros
whose cost follows nnz(Delta) times the square of the block size, not
dim^3.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgElement,
    Functional,
    check_conditional_expectation,
    commutant,
    regular_trace,
)
from .errors import NonUnique, NoSolution, NotFaithful, NotTracial
from .fusion import block_characters
from .report import VerificationReport
from .tensorkit import (
    AffineSpace,
    Inconsistent,
    Tolerance,
    _bincount,
    _contract,
    _join,
    _residual,
    _row_starts,
    _table,
    as_tol,
    block_nullspace,
    block_range,
    dagger,
    difference_max_abs,
    max_abs,
    nullspace,
    numerical_rank,
    orthonormal_columns,
    solve_affine_space,
    subspace_distance,
)
from .weakkac import WeakKac, _add_counit_free_checks, _cartan_spans, _hyper_central_classes, _pair, _rows_times

__all__ = [
    "haar_projection",
    "counit_support_projection",
    "check_haar_projection",
    "normalized_haar_trace",
    "check_normalized_haar_trace",
    "haar_trace_cone",
    "haar_conditional_expectations",
    "check_generalized_kac",
]


def _as_weak_kac(data) -> WeakKac:
    """Accept a WeakKac or an (algebra, coproduct, antipode) triple."""
    if isinstance(data, WeakKac):
        return data
    algebra, coproduct, antipode = data
    return WeakKac(algebra, coproduct, antipode, counit=None)


def _target_ideal(w: WeakKac, tol: Tolerance) -> list:
    """I_t = {y : x y = eps_t(x) y for every basis x}, the null space of
    the stack L_{b_a} - L_{eps_t(b_a)}, as its kernels K_i, one per block in
    block_order (see _ideal_blocks), solved once per algebra and tolerance:
    I_t = (+) K_i (x) C^{n_i}."""

    def solve():
        blocks = _ideal_blocks(w.algebra, np.eye(w.dim) - w.eps_t_matrix.T, left=True)
        return block_nullspace(blocks, tol)

    return w.memo(("target_ideal", tol), solve)


def _ideal_blocks(alg, x: np.ndarray, left: bool) -> list:
    """The diagonal blocks A_i of the d^2 x d stack over a of L_{x[a]}
    (left) or of R_{x[a]}, one stack per block size, blocks in block_order:
    A_i is the stack over a of the blocks X_ai of x[a] (or of their
    transposes).  On matrix units L_x = (+) X_i (x) 1 and
    R_x = (+) 1 (x) X_i^T, so with its rows reordered the stack is
    (+) A_i (x) 1 (or (+) 1 (x) A_i), whose null space is (+) K_i (x) C^{n_i}
    (or (+) C^{n_i} (x) K_i) for K_i the null space of A_i."""
    return [
        (xs if left else xs.swapaxes(2, 3)).reshape(xs.shape[0], -1, xs.shape[3])
        for xs in alg.block_stacks(x)
    ]


def _haar_projection_space(w: WeakKac, tol: Tolerance):
    """Affine solution set of the Haar projection equations, solved once per
    algebra and tolerance.

    x p = eps_t(x) p for every basis x puts p in the target ideal I_t;
    S(p) = p and eps_t(p) = 1 are solved in its coordinates.
    """

    def solve():
        alg = w.algebra
        # the columns K_i (x) e_c of the target ideal, block by block
        parts = []
        for k, n in zip(_target_ideal(w, tol), np.asarray(alg.block_shape)[alg.block_order]):
            parts.append((k[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(n * n, -1))
        ideal = alg.block_columns(parts)
        if ideal.shape[1] == 0:
            raise Inconsistent("the target ideal is zero")
        constraints = [
            ((w.antipode - np.eye(w.dim)) @ ideal, np.zeros(w.dim)),
            (w.eps_t_matrix @ ideal, w.algebra.unit),
        ]
        coords = solve_affine_space(constraints, tol)
        return AffineSpace(ideal @ coords.particular, ideal @ coords.null, coords.residual)

    return w.memo(("haar_projection_space", tol), solve)


def haar_projection(w: WeakKac, tol=None) -> AlgElement:
    """Unique projection p with x p = eps_t(x) p, S(p) = p, eps_t(p) = 1."""
    tol = as_tol(tol)
    try:
        space = _haar_projection_space(w, tol)
    except Inconsistent as exc:
        raise NoSolution(f"Haar projection equations: {exc}") from exc
    if not space.unique:
        raise NonUnique(
            f"Haar projection space has dimension {space.null.shape[1] + 1}"
        )
    return AlgElement(w.algebra, space.particular)


def counit_support_projection(w: WeakKac, tol=None) -> AlgElement:
    """Support projection of the counit, via its density matrix.

    The density matrix rho with Tr(rho B) = eps(from_matrix(B)) is the
    transpose of to_matrix(eps) on a matrix-unit basis; eps positive
    makes rho positive semidefinite and the support is its range.
    """
    if w.counit is None:
        raise NoSolution("no counit supplied")
    tol = as_tol(tol)
    alg = w.algebra
    rho = alg.to_matrix(w.counit).T
    if max_abs(rho - dagger(rho)) > 100 * tol.abs_tol:
        raise NoSolution("counit density matrix is not hermitian")
    keep = orthonormal_columns((rho + dagger(rho)) / 2, tol)
    return AlgElement(alg, alg.from_matrix(keep @ dagger(keep)))


def check_haar_projection(w: WeakKac, tol=None):
    """Haar projection plus a report on its defining properties.

    Cross-checks the affine solution against the support of the counit,
    verifies the absorption rules on both sides, the ideal descriptions
    of M p and p M, the coproduct evaluation formula
    Delta(p) = sum_i (1/d_i) sum_kl e^i_kl (x) S(e^i_lk), its flip
    symmetry, and the block ranks of Delta(p).  The solver's equations are
    `right_absorption`, `antipode_fixed` and `eps_t_normalized`.  When they
    leave a family of solutions, `unique` fails and the least-norm solution
    is the one checked and returned.
    """
    tol = as_tol(tol)
    alg = w.algebra
    dim = alg.dim
    rep = VerificationReport("Haar projection", tol)

    space = _haar_projection_space(w, tol)
    rep.add_flag(
        "unique", space.unique, f"null space dimension {space.null.shape[1]}"
    )
    p = AlgElement(alg, space.particular)
    rep.add("idempotent", max_abs(alg.mul(p.coeffs, p.coeffs) - p.coeffs))
    rep.add("self_adjoint", max_abs(alg.star(p.coeffs) - p.coeffs))
    rep.add("antipode_fixed", max_abs(w.antipode @ p.coeffs - p.coeffs))

    # R_p = R_p eps_t and L_p = L_p eps_s: x p = eps_t(x) p and
    # p x = p eps_s(x) over the basis x, as joins over the product triples
    et, es = w.eps_t_matrix, w.eps_s_matrix
    eye, pc = np.eye(dim), p.coeffs[:, None]
    rep.add("right_absorption", _residual(alg.product_terms(eye, pc), alg.product_terms(et, pc), dim))
    rep.add("left_absorption", _residual(alg.product_terms(pc, eye), alg.product_terms(pc, es), dim))
    rep.add("eps_t_normalized", max_abs(et @ p.coeffs - alg.unit))

    if w.counit is not None:
        q = counit_support_projection(w, tol)
        rep.add("support_oracle_agrees", max_abs(p.coeffs - q.coeffs))
        # eps(x p) = eps(x) = eps(p x) over the basis x, summed over the
        # terms of p in turn: row q of eps_mult^T is x -> eps(x b_q)
        eps = w.counit
        rep.add("counit_right_invariant", max_abs(p.coeffs @ np.ascontiguousarray(w.eps_mult.T) - eps))
        rep.add("counit_left_invariant", max_abs(p.coeffs @ w.eps_mult - eps))

    # p = (+) P_i, so on matrix units L_p = (+) P_i (x) 1, R_p = (+) 1 (x) P_i^T
    # and L_p R_p = (+) P_i (x) P_i^T: their ranges are ranked from these
    # blocks, in block_order
    ps = alg.block_stacks(p.coeffs)
    pts = [s.swapaxes(1, 2) for s in ps]
    pm = block_range(ps, tol)
    mp = block_range(pts, tol)
    krons = [(s[:, :, None, :, None] * t[:, None, :, None, :]) for s, t in zip(ps, pts)]
    pmp = block_range([k.reshape(len(k), k.shape[1] ** 2, -1) for k in krons], tol)

    ns, nt, _, _ = _cartan_spans(w, tol)
    sizes = np.asarray(alg.block_shape)[alg.block_order]
    rank_mp = int(sum(n * u.shape[1] for n, u in zip(sizes, mp)))
    rep.add_flag(
        "right_ideal_dim_matches_target",
        rank_mp == nt.dim,
        f"dim(M p) = {rank_mp}, dim N_t = {nt.dim}",
    )

    # ideals by their defining relations: I_s = {y : y x = y eps_s(x)},
    # I_t = {y : x y = eps_t(x) y}; they must equal M p and p M, and
    # intersect in p M p.  Per block, I_s = 1 (x) K^s_i, I_t = K^t_i (x) 1
    # and their intersection is K^t_i (x) K^s_i; a projector difference
    # A (x) 1 has the max-abs of A.
    sblocks = _ideal_blocks(alg, np.eye(dim) - es.T, left=False)
    i_s = block_nullspace(sblocks, tol)
    i_t = _target_ideal(w, tol)
    rep.add("source_ideal_is_mp", max(map(_projector_distance, i_s, mp)))
    rep.add("target_ideal_is_pm", max(map(_projector_distance, i_t, pm)))
    rep.add(
        "ideal_intersection_is_pmp",
        max(_projector_distance(np.kron(kt, ks), u) for kt, ks, u in zip(i_t, i_s, pmp)),
    )

    # coproduct of p: evaluation formula over matrix units, flip symmetry,
    # and one rank-one kron block per antipode-paired pair of blocks.
    c, formula, flip = _haar_projection_coproduct(w, p.coeffs)
    rep.add("coproduct_evaluation_formula", formula)
    rep.add("coproduct_flip_symmetric", flip)

    # sigma[i]: the block that S carries the unit e^i_00 into
    units = [alg.matrix_unit_index(i, 0, 0) for i in range(alg.nblocks)]
    sigma = alg.basis_block[np.argmax(np.abs(w.antipode[:, units]), axis=0)]
    # ranks[i, j]: the rank of the (i, j) part of Delta(p) as a matrix of
    # M_{n_i} (x) M_{n_j}, one stacked SVD per pair of block sizes
    ranks = np.zeros((alg.nblocks, alg.nblocks), dtype=int)
    for bi, bj, stack in alg.tensor_blocks(c):
        ranks[np.ix_(bi, bj)] = numerical_rank(stack, tol)
    want = np.arange(alg.nblocks)[None, :] == sigma[:, None]
    detail = [
        f"block ({i},{j}) rank {ranks[i, j]} want {int(want[i, j])}"
        for i, j in np.argwhere(ranks != want)
    ]
    rep.add_flag("coproduct_block_ranks", not detail, "; ".join(detail))
    return p, rep


def _projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs difference of the projectors onto the spans of the
    orthonormal columns a and b (subspace_distance without ranking them
    again)."""
    return max_abs(a @ dagger(a) - b @ dagger(b))


def _haar_projection_coproduct(w: WeakKac, p: np.ndarray):
    """Delta(p) with the residuals of its evaluation formula
    Delta(p) = sum_i (1/d_i) sum_kl e^i_kl (x) S(e^i_lk) and of its flip
    symmetry."""
    alg = w.algebra
    c = w.delta(p)
    dims = np.asarray(alg.block_shape, dtype=float)[alg.basis_block]
    formula = (w.antipode[:, alg.star_index] / dims[None, :]).T
    return c, max_abs(c - formula), max_abs(c - c.T)


def _haar_trace_rows(w: WeakKac, phis: np.ndarray) -> np.ndarray:
    """The homogeneous Haar trace conditions on the traces in the columns
    of phis: (id (x) phi) Delta = (eps_t (x) phi) Delta and phi o S = phi.
    The first, rows (a, x) of (1 - eps_t) on leg 1 of Delta(b_a), are a
    join over the coproduct's nonzeros that leaves out the zero rows, each
    term meeting the row of phis at its second leg."""
    dim = w.dim
    a, x, k, v = _contract(w.coproduct, _table(np.eye(dim) - w.eps_t_matrix), 1)
    invariance = _rows_times(a * dim + x, k, v, phis)
    return np.vstack([invariance, (w.antipode.T - np.eye(dim)) @ phis])


def _haar_trace_space(w: WeakKac, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the unnormalized Haar traces, solved once per
    algebra and tolerance: the trace conditions on the orthonormal block
    traces Tr_i / sqrt(n_i)."""

    def solve():
        chi = block_characters(w.algebra)
        traces = chi / np.sqrt(chi.sum(axis=0))
        return traces @ nullspace(_haar_trace_rows(w, traces), tol)

    return w.memo(("haar_trace_space", tol), solve)


def _normalized_haar_trace_space(w: WeakKac, tol: Tolerance) -> AffineSpace:
    """Haar traces phi with (id (x) phi)(e) = 1: the least-norm one and the
    directions left free, solved in the coordinates of the trace space."""

    def solve():
        basis = _haar_trace_space(w, tol)
        if not basis.shape[1]:
            raise NoSolution("Haar trace equations: the trace conditions have only the zero solution")
        try:
            coords = solve_affine_space([(w.e_matrix @ basis, w.algebra.unit)], tol)
        except Inconsistent as exc:
            raise NoSolution(f"Haar trace equations: {exc}") from exc
        return AffineSpace(basis @ coords.particular, basis @ coords.null, coords.residual)

    return w.memo(("normalized_haar_trace_space", tol), solve)


def normalized_haar_trace(w: WeakKac, tol=None) -> Functional:
    """Unique tracial S-invariant functional with (id (x) phi)(e) = 1, a
    combination of the block traces, so exactly constant on the diagonal
    of each block and 0 off it."""
    space = _normalized_haar_trace_space(w, as_tol(tol))
    if not space.unique:
        raise NonUnique(
            f"normalized Haar trace space has dimension {space.null.shape[1] + 1}"
        )
    return Functional(w.algebra, space.particular)


def check_normalized_haar_trace(w: WeakKac, tol=None):
    """Normalized Haar trace plus a report on its defining properties.

    Includes the cross-check against the Haar projection of the dual
    algebra carried back through the canonical pairing.  When the trace
    conditions leave a family of solutions, `unique` fails, the least-norm
    solution is checked and returned, and the report ends before the
    cross-check, since `dual` raises on such inputs.
    """
    tol = as_tol(tol)
    alg = w.algebra
    rep = VerificationReport("normalized Haar trace", tol)
    space = _normalized_haar_trace_space(w, tol)
    phi = Functional(alg, space.particular)
    rep.add_flag(
        "unique",
        space.unique,
        "affine solution space is a point" if space.unique
        else f"null space dimension {space.null.shape[1]}",
    )

    rep.add("antipode_invariant", max_abs(w.antipode.T @ phi.vec - phi.vec))
    rep.add("normalized", max_abs(w.e_matrix @ phi.vec - alg.unit))
    t_phi = w.pair_leg(phi.vec, 1)  # row a: (id (x) phi) Delta(b_a)
    rep.add("invariance", max_abs(t_phi - t_phi @ w.eps_t_matrix.T))
    rep.add_flag("faithful_positive", phi.is_faithful_positive(tol))
    if not space.unique:
        return phi, rep

    from .duality import dual  # deferred: duality builds on this module

    dw = dual(w, tol)
    p_hat = haar_projection(dw, tol)
    carried = dw.meta["from_canonical"] @ p_hat.coeffs
    rep.add("matches_dual_haar_projection", max_abs(carried - phi.vec))
    return phi, rep


def haar_trace_cone(w: WeakKac, tol=None):
    """Extreme rays of the cone of (unnormalized) Haar traces.

    w is the direct sum of its restrictions to the hyper-central classes
    of blocks, and each summand has a Haar trace unique up to scale, so the
    rays are the normalized Haar trace phi cut to each class, phi 1_C;
    they sum to phi with coefficients exactly one.  The report compares
    them with the null space of the trace conditions: their number with
    its dimension, the conditions on the rays, their span, and their
    positivity.  Returns (rays, report), computed once per algebra and
    tolerance and shared by every caller.
    """
    tol = as_tol(tol)
    return w.memo(("haar_trace_cone", tol), lambda: _haar_trace_cone(w, tol))


def _haar_trace_cone(w: WeakKac, tol: Tolerance):
    alg = w.algebra
    rep = VerificationReport("Haar trace cone", tol)
    phi = normalized_haar_trace(w, tol)
    classes = _hyper_central_classes(w, tol)
    rays = [
        Functional(alg, np.where(classes[alg.basis_block] == c, phi.vec, 0.0))
        for c in range(classes.max() + 1)
    ]
    solution = _haar_trace_space(w, tol)
    rep.add_flag(
        "ray_count_matches_solution_space",
        len(rays) == solution.shape[1],
        f"{len(rays)} hyper-central classes, solution space dimension {solution.shape[1]}",
    )
    stack = np.stack([r.vec for r in rays], axis=1)
    rep.add("rays_satisfy_trace_conditions", max_abs(_haar_trace_rows(w, stack)))
    rep.add("rays_span_solution_space", subspace_distance(stack, solution, tol))
    for k, r in enumerate(rays):
        _, min_eig = r.positive_definite(tol)
        rep.add(f"ray_{k}_positive", max(0.0, -min_eig))
    return rays, rep


def haar_conditional_expectations(w: WeakKac, phi: Functional | None = None, tol=None):
    """Conditional expectations onto N_t, N_s, and the N_t-commutant.

    E_t = (id (x) phi) Delta, E_s = (phi (x) id) Delta, and
    Eo_t = mu (S (x) id) ((1 (x) y) e).  Returns (e_t, e_s, eo_t, report)
    with the maps as matrices acting on coefficient vectors.  The flip
    identity is trilinear and is checked on every basis triple, as one
    join over the coproduct's nonzeros; Eo_t is tested against the
    extreme rays of the Haar trace cone.
    """
    tol = as_tol(tol)
    alg = w.algebra
    dim = alg.dim
    rep = VerificationReport("Haar conditional expectations", tol)
    if phi is None:
        phi = normalized_haar_trace(w, tol)

    t, e, smat = w.coproduct, w.e_matrix, w.antipode

    # the sparse stacks over the basis b_a: (1 (x) b_a) e and e (1 (x) b_a)
    one_x_e, e_one_x = w.e_products(1, left=True), w.e_products(1, left=False)

    e_t = w.pair_leg(phi.vec, 1).T
    e_s = w.pair_leg(phi.vec, 0).T
    # E_t(b_a) = S (id (x) phi)((1 (x) b_a) e)
    rep.add("target_formulas_agree", max_abs(e_t - smat @ _pair(one_x_e, phi.vec, 1).T))

    ns, nt, _, _ = _cartan_spans(w, tol)
    rep.extend(
        check_conditional_expectation(e_t, nt, trace=phi, tol=tol),
        prefix="target.",
    )
    rep.extend(
        check_conditional_expectation(e_s, ns, trace=phi, tol=tol),
        prefix="source.",
    )

    # (id (x) E_t) Delta = Delta E_t and (E_s (x) id) Delta = Delta E_s, as joins
    for name, leg, mat in (("target", 2, e_t), ("source", 1, e_s)):
        residual = _residual(_contract(t, _table(mat), leg), _contract(t, _table(mat.T), 0), dim)
        rep.add(f"{name}_intertwines_coproduct", residual)
    rep.add("antipode_exchange", max_abs(e_t @ smat - smat @ e_s))
    # in the coordinates of the range of E_t: N_t for a Haar trace, but a
    # trace that is not one moves E_t off N_t, and only its own range
    # keeps E_t = B v exact
    span = orthonormal_columns(e_t, tol)
    rep.add("flip_identity", _flip_identity_residual(w, dagger(span) @ e_t))

    eo_t = _relative_expectation(alg, one_x_e, smat)
    nt_comm = commutant(nt, tol)
    rep.extend(
        check_conditional_expectation(eo_t, nt_comm, tol=tol),
        prefix="relative.",
    )
    # e (1 (x) b_a) e = e (1 (x) z_a) = (1 (x) z_a) e with z_a = Eo_t(b_a)
    sandwiches = _sandwiches(alg, e)
    for name, stack in (("right", e_one_x), ("left", one_x_e)):
        residual = _residual(sandwiches, _contract(stack, _table(eo_t.T), 0), dim)
        rep.add(f"relative_{name}_sandwich", residual)

    cone, _ = haar_trace_cone(w, tol)
    worst_cone = max(
        (max_abs(r.vec @ eo_t - r.vec) for r in cone), default=0.0
    )
    rep.add("relative_preserves_cone_traces", worst_cone)

    # injectivity of y -> e(1 (x) y) and y -> e(y (x) 1), the d^2 x d stacks
    # over x of L_u for u the rows (or columns) of e: ranked block by block,
    # as sum_i n_i rank(A_i) (see _ideal_blocks)
    sizes = np.asarray(alg.block_shape)[alg.block_order]
    for name, rows in (("right_leg_injective", e), ("left_leg_injective", e.T)):
        kernels = block_nullspace(_ideal_blocks(alg, rows, left=True), tol)
        rank = dim - int(sizes @ [k.shape[1] for k in kernels])
        rep.add_flag(name, rank == dim, f"rank {rank} of {dim}")
    return e_t, e_s, eo_t, rep


# Products, both sides together, that one chunk of the flip identity forms
# at once (32 MB of complex values), and the share of the k^2 entries of
# the blocks of its terms up to which the terms are expanded over v.
_FLIP_CHUNK = 1 << 21
_FLIP_EXPAND = 0.5


def _flip_identity_residual(w: WeakKac, v: np.ndarray) -> float:
    """Max over basis triples (x, y, z) of the flip identity
    (E_t (x) E_t)(Delta(x)(y (x) z)) = flip (E_t (x) E_t)((S(y) (x) x) Delta(z)),
    with E_t = B v for B orthonormal columns, in the coordinates of B.

    One join over the coproduct's nonzeros per side, keyed by (x, y, z):
    on the left each t[x,m,n] meets the units y, z with row(y) = col(m) and
    row(z) = col(n) and adds t[x,m,n] v[:, b_m b_y] (x) v[:, b_n b_z]; on
    the right each t[z,m,n] meets the nonzeros S[c,y] with col(c) = row(m)
    and the units x with col(x) = row(n) and adds t[z,m,n] S[c,y]
    v[:, b_x b_n] (x) v[:, b_c b_m].  A term c v[:, a] (x) v[:, b] is
    expanded over the nonzeros of rows a and b of v^T, one product per
    pair keyed by (x, y, z, alpha, beta), when over all terms these
    products number at most _FLIP_EXPAND of their k^2 block entries;
    otherwise, as on a dense v, each term forms its k x k block.  Both
    keys lead with x, so the products are formed and compared for one
    range of x at a time, each range holding about _FLIP_CHUNK of them.
    """
    alg, d, vt = w.algebra, w.dim, v.T
    rows, cols, units, size = alg.basis_row, alg.basis_col, alg.unit_index, alg.matrix_size
    i, m, n, t = w.coproduct
    by_row = _row_starts(rows, size)  # the basis is sorted by row
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

    k = vt.shape[1]
    nz_rows, nz_cols = np.nonzero(vt)
    starts = _row_starts(nz_rows, d)
    counts = np.diff(starts)
    sizes = [counts[a] * counts[b] for *_, a, b in (left, right)]
    expand = sum(s.sum() for s in sizes) <= _FLIP_EXPAND * k * k * (left[0].size + right[0].size)
    if not expand:
        sizes = [np.full(side[0].size, k * k) for side in (left, right)]

    def products(side, lo, hi):  # keys and products of the terms with lo <= x < hi
        s = (lo <= side[0]) & (side[0] < hi)
        _, keys, coeff, a, b = (part[s] for part in side)
        if not expand:
            return keys, coeff[:, None, None] * vt[a, :, None] * vt[b, None, :]
        f, g = _join(a, starts)
        h, e = _join(b[f], starts)
        f, g = f[h], g[h]
        keys = (keys[f] * k + nz_cols[g]) * k + nz_cols[e]
        return keys, coeff[f] * vt[a[f], nz_cols[g]] * vt[b[f], nz_cols[e]]

    # products up to each x, cut into ranges of about _FLIP_CHUNK
    upto = np.cumsum(sum(np.bincount(side[0], size, minlength=d) for side, size in zip((left, right), sizes)))
    cuts = np.searchsorted(upto, np.arange(_FLIP_CHUNK, upto[-1], _FLIP_CHUNK), side="right")
    bounds = sorted({0, *cuts.tolist(), d})
    return max(
        difference_max_abs(products(left, lo, hi), products(right, lo, hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )


def _relative_expectation(alg, one_x_e, smat: np.ndarray) -> np.ndarray:
    """Eo_t = mu (S (x) id) ((1 (x) y) e) on the basis, from the sparse stack
    one_x_e over a of (1 (x) b_a) e: each term v b_x (x) b_y of it meets the
    nonzeros S[c, x], and b_c b_y, when nonzero, adds v S[c, x] at row
    b_c b_y, column a."""
    a, x, y, v = _contract(one_x_e, _table(smat), 1)
    m, d = alg.prod_table[x, y], alg.dim
    return _bincount(m[m >= 0] * d + a[m >= 0], v[m >= 0], d * d).reshape(d, d)


def _sandwiches(alg, c):
    """Stack over the basis of C (1 (x) b_a) C for an element C of M (x) M,
    given as its coefficient matrix, as a sparse 3-tensor (a, x, y, value)
    with repeated triples, by one join over the nonzeros of C.

    Terms v b_i (x) b_j and v' b_k (x) b_l of C meet where col(b_i) =
    row(b_k); then b_j b_a b_l is nonzero for the one matrix unit b_a from
    col(b_j) to row(b_l), if those lie in one block.
    """
    n = alg.matrix_size
    rows, cols, units = alg.basis_row, alg.basis_col, alg.unit_index
    i, j = np.nonzero(c)
    order = np.argsort(rows[i], kind="stable")
    f, s = _join(cols[i], _row_starts(rows[i][order], n))
    s = order[s]
    a = units[cols[j[f]], rows[j[s]]]
    f, s, a = f[a >= 0], s[a >= 0], a[a >= 0]
    x, y = units[rows[i[f]], cols[i[s]]], units[rows[j[f]], cols[j[s]]]
    return a, x, y, c[i[f], j[f]] * c[i[s], j[s]]


def check_generalized_kac(data, phi: Functional, tol=None) -> VerificationReport:
    """Verify that (M, Delta, S) is a generalized Kac algebra with the
    faithful trace phi as its Haar trace.

    Accepts a WeakKac or an (algebra, coproduct, antipode) triple.  Raises
    NotTracial / NotFaithful when phi fails the preconditions; all other
    conditions are reported as residuals: the axioms of (M, Delta, S), as
    check_kac_bimodule reports them, the regular-trace identities and the
    coproduct evaluation formula for the Haar projection.
    """
    tol = as_tol(tol)
    w = _as_weak_kac(data)
    alg = w.algebra

    pairing = phi.pairing()
    asym = max_abs(pairing - pairing.T)
    if asym > 100 * tol.abs_tol:
        raise NotTracial(f"phi(xy) - phi(yx) reaches {asym:.3e}")
    if not phi.is_faithful_positive(tol):
        raise NotFaithful(f"Gram matrix spectrum starts at {phi.positive_definite(tol)[1]:.3e}")

    rep = VerificationReport("generalized Kac algebra", tol)
    _add_counit_free_checks(rep, w)
    rep.add("tracial", asym)
    rep.add("antipode_invariant", max_abs(w.antipode.T @ phi.vec - phi.vec))

    # (id (x) phi(b_b .)) Delta(b_a) = S (id (x) phi(. b_a)) Delta(b_b) at [a, m, b]
    lhs = _contract(w.coproduct, _table(pairing), 2)
    b, m, a, v = _contract(_contract(w.coproduct, _table(pairing.T), 2), w.antipode_table, 1)
    rep.add("haar_trace_identity", _residual(lhs, (a, m, b, v), alg.dim))

    theta = regular_trace(alg)
    e_x_one = w.e_products(0, left=False)  # e (b_a (x) 1)
    worst = max_abs(w.pair_leg(theta.vec, 0) - _pair(e_x_one, theta.vec, 0) @ w.antipode.T)
    rep.add("regular_trace_identity", worst)

    p = haar_projection(w, tol)
    c, formula, flip = _haar_projection_coproduct(w, p.coeffs)
    rep.add("regular_trace_left_unit", max_abs(c.T @ theta.vec - alg.unit))
    rep.add("regular_trace_right_unit", max_abs(c @ theta.vec - alg.unit))
    rep.add("haar_projection_coproduct", formula)
    rep.add("haar_projection_flip", flip)
    return rep

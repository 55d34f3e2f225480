"""Haar projections, Haar traces, the trace cone, conditional expectations."""

import numpy as np
import pytest

from wka import (
    catalog,
    cube_family,
    cyclic_groupoid,
    direct_sum,
    disjoint_union,
    elementary,
    groupoid_function_algebra,
    haar_projection,
    haar_trace_cone,
    normalized_haar_trace,
    verify_weak_kac,
)
from wka import haar, weakkac
from wka.algebra import Functional, block_trace, make_algebra, regular_trace
from wka.errors import NonUnique, NotFaithful, NotTracial
from wka.haar import (
    check_generalized_kac,
    check_haar_projection,
    check_normalized_haar_trace,
    counit_support_projection,
    haar_conditional_expectations,
)
from wka.tensorkit import (
    Tolerance,
    dagger,
    difference_max_abs,
    max_abs,
    numerical_rank,
    orthonormal_columns,
)
from wka.weakkac import WeakKac, cartan_subalgebras

from conftest import (
    assert_block_ideals_match_dense,
    assert_definiteness_matches_dense,
    basis_products,
    dense_coproduct,
    dense_gram,
    e_without_block,
    flip_identity_blocks,
    get_example,
    inner_automorphism,
    moved_along,
    moved_entry,
    mu,
    mult_tensor,
    rmat,
    with_noise,
)

EXAMPLES = ["group_z3", "fun_k2", "elem_12", "dualelem_12", "cube2", "twist_12"]


# ---------------------------------------------------------------------------
# Haar projection
# ---------------------------------------------------------------------------


def test_haar_projection_of_group_z2_is_average():
    # (1 + g) / 2 in the group basis
    w = get_example("group_z2")
    p = haar_projection(w).coeffs
    carry = w.meta["from_canonical"]
    assert np.abs(carry @ p - np.array([0.5, 0.5])).max() < 1e-12


@pytest.mark.parametrize("name", EXAMPLES)
def test_haar_projection_checks(name):
    w = get_example(name)
    p, rep = check_haar_projection(w)
    assert rep.passed, rep.as_text()
    assert rep.max_residual <= 1e-8
    # solved by equations and by the support oracle independently
    assert rep["unique"].passed
    assert rep["support_oracle_agrees"].passed
    assert rep["coproduct_evaluation_formula"].passed
    assert rep["coproduct_flip_symmetric"].passed
    assert rep["coproduct_block_ranks"].passed


def test_haar_projection_unique_flag_fails_on_a_solution_family():
    # a 0/1 coproduct on M_2 with S = id and counit (1, 1, 1, 1), found by a
    # seeded search over such tensors: the Haar projection equations are
    # consistent but leave a line of solutions
    t = np.zeros((4, 4, 4))
    for i, j, k in [
        (0, 0, 0), (0, 0, 2), (0, 2, 2), (1, 1, 0), (1, 1, 3), (1, 2, 0),
        (2, 0, 2), (2, 3, 1), (3, 1, 0), (3, 1, 2), (3, 2, 1),
    ]:
        t[i, j, k] = 1.0
    w = WeakKac(make_algebra((2,)), t, np.eye(4), np.ones(4))
    p, rep = check_haar_projection(w)
    assert not rep["unique"].passed
    # the solver's equations S(p) = p and eps_t(p) = 1 hold
    assert rep["antipode_fixed"].passed and rep["eps_t_normalized"].passed
    with pytest.raises(NonUnique):
        haar_projection(w)


def test_target_ideal_is_solved_once(monkeypatch):
    # x p = eps_t(x) p is decomposed once per algebra and tolerance, as the
    # block kernels of the target ideal that the Haar projection is solved
    # in and that its check compares with p M; its relations never reach a
    # dense null space or an affine solve, whole or as their nonzero rows
    w = cube_family(2)
    d = w.dim
    target = haar._ideal_blocks(w.algebra, np.eye(d) - w.eps_t_matrix.T, left=True)
    relations = w.algebra.lmat(np.eye(d) - w.eps_t_matrix.T).reshape(d * d, d)

    def rows(a):
        a = np.round(np.asarray(a, dtype=complex), 12) + 0.0
        return {r.tobytes() for r in a[np.any(a != 0, axis=1)]}

    def holds_relations(a):
        return np.ndim(a) == 2 and np.shape(a)[1] == d and rows(relations) <= rows(a)

    assert holds_relations(relations) and holds_relations(relations[np.any(relations != 0, axis=1)])
    real_block_null, real_null, real_affine = haar.block_nullspace, haar.nullspace, haar.solve_affine_space
    solves, dense = [], []

    def counting_block_null(blocks, *args, **kwargs):
        if len(blocks) == len(target) and all(map(np.array_equal, blocks, target)):
            solves.append(kwargs.get("tol", args[0] if args else None))
        return real_block_null(blocks, *args, **kwargs)

    def watched_null(a, *args, **kwargs):
        dense.append(holds_relations(a))
        return real_null(a, *args, **kwargs)

    def watched_affine(constraints, *args, **kwargs):
        constraints = list(constraints)
        stacked = np.vstack([np.reshape(a, (-1, np.shape(a)[-1])) for a, _ in constraints])
        dense.append(holds_relations(stacked))
        return real_affine(constraints, *args, **kwargs)

    monkeypatch.setattr(haar, "block_nullspace", counting_block_null)
    monkeypatch.setattr(haar, "nullspace", watched_null)
    monkeypatch.setattr(haar, "solve_affine_space", watched_affine)
    haar_projection(w)
    _, rep = check_haar_projection(w)
    check_haar_projection(w)
    assert rep.passed, rep.as_text()
    assert len(solves) == 1
    loose = Tolerance(abs_tol=1e-8)
    haar_projection(w, loose)
    check_haar_projection(w, loose)
    assert solves == [Tolerance(), loose]
    assert dense and not any(dense)


@pytest.mark.parametrize("name", ["cube2", "elem_12", "twist_12", "dualelem_12"])
@pytest.mark.parametrize("side", ["target", "source"])
def test_ideal_checks_fail_under_a_perturbed_counital_map(name, side):
    # eps_t (or eps_s) scaled by 1 + 1e-3 after p is solved: the target (or
    # source) ideal of its relations is no longer p M (or M p), and neither
    # is their intersection p M p; the other ideal is untouched
    w = get_example(name)
    w = WeakKac(w.algebra, w.coproduct, w.antipode, w.counit)  # a fresh cache
    haar_projection(w)
    key = "eps_t_matrix" if side == "target" else "eps_s_matrix"
    # the cached counital maps are read from the instance dict
    w.__dict__[key] = (1 + 1e-3) * getattr(w, key)
    w._memo.pop(("target_ideal", Tolerance()))
    _, rep = check_haar_projection(w)
    moved, kept = ("target_ideal_is_pm", "source_ideal_is_mp")[:: 1 if side == "target" else -1]
    assert not rep[moved].passed
    assert not rep["ideal_intersection_is_pmp"].passed
    assert rep[kept].passed
    assert rep["unique"].passed and rep["coproduct_block_ranks"].passed


def test_faithful_positive_fails_on_a_rank_deficient_trace(monkeypatch):
    # a tracial functional that vanishes on block 1: its Gram blocks are
    # singular there, so the definiteness flag fails
    w = get_example("cube2")
    tau = block_trace(w.algebra, [1.0, 0.0])
    space = haar.AffineSpace(tau.vec, np.zeros((w.dim, 0)), 0.0)
    monkeypatch.setattr(haar, "_normalized_haar_trace_space", lambda w, tol: space)
    _, rep = check_normalized_haar_trace(w)
    assert not rep["faithful_positive"].passed


@pytest.mark.parametrize(
    "parts", [("cube2", "group_z2"), ("elem_12", "fun_k2"), ("twist_12", "group_z3")]
)
def test_block_forms_hold_on_blocks_out_of_size_order(parts):
    # direct sums whose block sizes do not ascend, so block_order moves
    # blocks: the Haar checks pass, and the block ideals and definiteness
    # match their dense oracles
    w = direct_sum(*map(get_example, parts))
    alg, eye = w.algebra, np.eye(w.dim)
    assert list(alg.block_order) != list(range(alg.nblocks))
    _, rep = check_haar_projection(w)
    assert rep.passed, rep.as_text()
    assert_block_ideals_match_dense(alg, eye - w.eps_t_matrix.T, eye - w.eps_s_matrix.T)
    *_, rep = haar_conditional_expectations(w)
    assert rep.passed, rep.as_text()
    functionals = [normalized_haar_trace(w), Functional(alg, w.counit), regular_trace(alg)]
    assert_definiteness_matches_dense(alg, [w.eps_t_matrix, w.eps_s_matrix, w.antipode], functionals)


def test_support_oracle_equals_equation_solution():
    w = get_example("cube2")
    assert (
        np.abs(counit_support_projection(w).coeffs - haar_projection(w).coeffs).max()
        < 1e-12
    )


def test_cube2_haar_projection_vector():
    p = haar_projection(get_example("cube2")).coeffs
    assert np.abs(p - np.array([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0])).max() < 1e-12


# ---------------------------------------------------------------------------
# normalized Haar trace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
def test_normalized_haar_trace_checks(name):
    w = get_example(name)
    phi, rep = check_normalized_haar_trace(w)
    assert rep.passed, rep.as_text()
    assert rep["unique"].passed
    assert rep["matches_dual_haar_projection"].passed
    assert np.abs(phi.vec - normalized_haar_trace(w).vec).max() < 1e-12


def test_normalized_trace_unique_flag_fails_on_a_trace_family():
    # C^2 with Delta(b_a) = b_a (x) 1, S = id and counit (1, 1): every
    # functional with phi(1) = 1 is a normalized trace
    t = np.zeros((2, 2, 2))
    t[0, 0, :] = t[1, 1, :] = 1.0
    w = WeakKac(make_algebra((1, 1)), t, np.eye(2), np.ones(2))
    phi, rep = check_normalized_haar_trace(w)
    assert not rep["unique"].passed
    assert "matches_dual_haar_projection" not in [c.name for c in rep.checks]
    assert np.abs(phi.vec - 0.5).max() < 1e-12  # the least-norm solution
    with pytest.raises(NonUnique, match="dimension 2"):
        normalized_haar_trace(w)


@pytest.mark.parametrize("n", [2, 3])
def test_cube_haar_trace_is_canonical_block_trace(n):
    # phi(f^k_{ij}) = delta_{ij} / n: the normalized trace of each block
    w = cube_family(n)
    phi = normalized_haar_trace(w)
    expected = np.zeros(n ** 3)
    for k in range(n):
        for i in range(n):
            expected[k * n * n + i * n + i] = 1.0 / n
    assert np.abs(phi.vec - expected).max() < 1e-10


def test_haar_trace_normalization_counts_units():
    # phi(1) equals the number of Cartan dimensions: (id x phi) e = 1
    for name in EXAMPLES:
        w = get_example(name)
        phi = normalized_haar_trace(w)
        pair = cartan_subalgebras(w)
        assert abs(phi.vec @ w.algebra.unit - pair.target.dim) < 1e-8


# ---------------------------------------------------------------------------
# the cone of Haar traces
# ---------------------------------------------------------------------------


def test_haar_trace_cone_ray_counts():
    cases = [
        (get_example("elem_12"), 1),
        (get_example("cube2"), 1),
        (get_example("fun_z2"), 1),
        (
            groupoid_function_algebra(
                disjoint_union(cyclic_groupoid(2), cyclic_groupoid(1))
            ),
            2,
        ),
        (direct_sum(get_example("group_z2"), get_example("fun_k2")), 2),
        (
            direct_sum(
                direct_sum(get_example("fun_z2"), get_example("group_z3")),
                get_example("elem_11"),
            ),
            3,
        ),
    ]
    for w, expected in cases:
        rays, rep = haar_trace_cone(w)
        assert rep.passed, rep.as_text()
        assert len(rays) == expected


def test_normalized_trace_is_sum_of_rays():
    # the ray normalization makes phi_eps = sum of the extreme rays with
    # coefficients exactly one
    for name in EXAMPLES:
        w = get_example(name)
        rays, _ = haar_trace_cone(w)
        total = sum(r.vec for r in rays)
        assert np.abs(total - normalized_haar_trace(w).vec).max() < 1e-10


def test_normalized_trace_off_the_ray_span_fails_the_cone(monkeypatch):
    # a skewed block trace in place of phi: its ray, cut to the one
    # hyper-central class, is no Haar trace
    w = cube_family(2)  # a fresh algebra: the cone is memoized per algebra
    skew = block_trace(w.algebra, [0.5, -0.5]).vec
    off = Functional(w.algebra, normalized_haar_trace(w).vec + skew)
    monkeypatch.setattr(haar, "normalized_haar_trace", lambda w, tol=None: off)
    _, rep = haar_trace_cone(w)
    assert not rep["rays_satisfy_trace_conditions"].passed
    assert rep["rays_satisfy_trace_conditions"].residual > 0.1
    assert rep["ray_count_matches_solution_space"].passed


def test_rays_are_antipode_invariant_traces():
    w = direct_sum(get_example("group_z2"), get_example("fun_k2"))
    rays, _ = haar_trace_cone(w)
    for r in rays:
        assert np.abs(r.vec @ w.antipode - r.vec).max() < 1e-9
        gram = dense_gram(r)
        assert np.abs(gram - np.conj(gram.T)).max() < 1e-9


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fun_k2", "elem_12", "cube2", "twist_11"])
def test_conditional_expectations(name):
    w = get_example(name)
    e_t, e_s, eo_t, rep = haar_conditional_expectations(w)
    assert rep.passed, rep.as_text()
    pair = cartan_subalgebras(w)
    for mat, sub in ((e_t, pair.target), (e_s, pair.source)):
        assert np.abs(mat @ mat - mat).max() < 1e-8
        assert np.abs(mat @ w.algebra.unit - w.algebra.unit).max() < 1e-9
        assert sub.contains(mat) < 1e-8
    # Eo_t lands in the commutant of N_t and fixes N_t-commutant elements
    assert np.abs(eo_t @ eo_t - eo_t).max() < 1e-8


def test_skewed_trace_fails_expectations():
    w = get_example("cube2")
    tau = block_trace(w.algebra, [0.3, 0.7])
    *_, rep = haar_conditional_expectations(w, phi=tau)
    assert not rep.passed
    assert rep.max_residual > 0.1
    assert rep["flip_identity"].residual > 0.1


def _dense_leg_stack(w, leg):
    """Oracle: the d^2 x d matrix of y -> e(1 (x) y) (leg 1) or e(y (x) 1)
    (leg 0) from the dense stack of basis products."""
    return basis_products(w.algebra, w.e_matrix, leg, False).reshape(w.dim, -1).T


@pytest.mark.parametrize("name", ["group_z3", "fun_k2", "elem_12", "dualelem_12", "cube2", "twist_12"])
def test_expectation_joins_match_the_dense_stacks(name):
    w = get_example(name)
    alg, d, e, s = w.algebra, w.dim, w.e_matrix, w.antipode
    # Eo_t = mu (S (x) id) ((1 (x) y) e), the same terms summed in another order
    dense = mu(w, (s @ basis_products(alg, e, 1, True)).transpose(1, 2, 0))
    joined = haar._relative_expectation(alg, weakkac._basis_products(alg, w.e_table, 1, True), s)
    assert max_abs(joined - dense) <= 1e-12
    *_, rep = haar_conditional_expectations(w)
    assert rep.passed, rep.as_text()
    for check, leg in (("right_leg_injective", 1), ("left_leg_injective", 0)):
        assert rep[check].note == f"rank {numerical_rank(_dense_leg_stack(w, leg))} of {d}"


def _scaled_e(w):
    """Mutation: e = Delta(1) perturbed by scaling Delta of one diagonal unit."""
    t = dense_coproduct(w)
    t[np.flatnonzero(w.algebra.unit)[0]] *= 1.5
    return WeakKac(w.algebra, t, w.antipode, w.counit)


SANDWICH_CHECKS = ["target_formulas_agree", "relative_left_sandwich", "relative_right_sandwich"]
EXPECTATION_MUTATIONS = {
    "moved_entry": (moved_entry, SANDWICH_CHECKS),
    "scaled_e": (_scaled_e, SANDWICH_CHECKS),
    "e_off_block_on_leg_1": (e_without_block(1), ["right_leg_injective"]),
    "e_off_block_on_leg_0": (e_without_block(0), ["left_leg_injective"]),
}


@pytest.mark.parametrize("mutation", EXPECTATION_MUTATIONS)
@pytest.mark.parametrize("name", ["cube2", "fun_k2", "dualelem_12"])
def test_mutations_fail_the_joined_expectation_checks(name, mutation, monkeypatch):
    # the Haar trace of the member, on the mutated member; its trace cone
    # would need a dual that the mutated member does not have
    w = get_example(name)
    phi = normalized_haar_trace(w)
    monkeypatch.setattr(haar, "haar_trace_cone", lambda w, tol=None: ([], None))
    mutate, fails = EXPECTATION_MUTATIONS[mutation]
    bad = mutate(w)
    *_, rep = haar_conditional_expectations(bad, phi=phi)
    assert [c for c in fails if rep[c].passed] == [], rep.as_text()
    for check, leg in (("right_leg_injective", 1), ("left_leg_injective", 0)):
        assert rep[check].note == f"rank {numerical_rank(_dense_leg_stack(bad, leg))} of {bad.dim}"


def _flip_identity_by_triples(w, v):
    """Oracle: the flip identity in the coordinates v of E_t, one basis
    triple at a time."""
    alg, t, s = w.algebra, dense_coproduct(w), w.antipode
    eye = np.eye(w.dim)
    right, left, left_s = rmat(alg, eye), alg.lmat(eye), alg.lmat(s.T)
    worst = 0.0
    for x in range(w.dim):
        for y in range(w.dim):
            for z in range(w.dim):
                lhs = v @ right[y] @ t[x] @ right[z].T @ v.T
                rhs = (v @ left_s[y] @ t[z] @ left[x].T @ v.T).T
                worst = max(worst, max_abs(lhs - rhs))
    return worst


@pytest.mark.parametrize(
    "name,weights,moved",
    [
        ("cube2", None, False),
        ("cube2", [0.3, 0.7], False),
        ("cube2", None, True),
        ("group_z3", None, False),  # split route: a non-monomial antipode
        ("elem_12", None, False),
        ("twist_11", None, False),
    ],
    ids=["None", "weights1", "moved", "group_z3", "elem_12", "twist_11"],
)
def test_flip_identity_matches_the_triple_loop(name, weights, moved):
    w = get_example(name)
    tau = normalized_haar_trace(w) if weights is None else block_trace(w.algebra, weights)
    if moved:
        w = moved_entry(w)
    if name == "group_z3":
        assert np.count_nonzero(w.antipode) > w.dim
    e_t = (dense_coproduct(w) @ tau.vec).T
    v = dagger(orthonormal_columns(e_t)) @ e_t
    exact = haar._flip_identity_residual(w, v)
    assert abs(exact - _flip_identity_by_triples(w, v)) <= 1e-12
    assert (exact > 0.1) == (weights is not None or moved)


def test_flip_identity_runs_in_chunks_of_x(monkeypatch):
    """cube_family(4) under a skewed block trace: its terms, expanded over
    the nonzeros of v, form as many products as their k x k blocks have
    nonzero entries, in one chunk; with an eighth of that as the chunk size
    they form at least eight chunks, none larger than the chunk size and
    the products of one x, and the residual keeps its value."""
    w = cube_family(4)
    weights = np.arange(1.0, w.algebra.nblocks + 1)
    e_t = w.pair_leg(block_trace(w.algebra, weights / weights.sum()).vec, 1).T
    v = dagger(orthonormal_columns(e_t)) @ e_t
    chunks = []

    def record(left, right):
        chunks.append((left, right))
        return difference_max_abs(left, right)

    monkeypatch.setattr(haar, "difference_max_abs", record)
    with monkeypatch.context() as forced:
        forced.setattr(haar, "_FLIP_EXPAND", 0.0)  # the k x k blocks
        blocks = haar._flip_identity_residual(w, v)
    [(left, right)] = chunks
    entries = left[1].size + right[1].size
    nonzero = np.count_nonzero(left[1]) + np.count_nonzero(right[1])
    chunks.clear()
    whole = haar._flip_identity_residual(w, v)
    [(left, right)] = chunks
    total = left[1].size + right[1].size
    assert whole > 0.1 and whole == pytest.approx(blocks, rel=1e-12)
    assert total == nonzero < entries / 2
    # the products of each x, from the leading digit of the expanded keys
    per_x = np.bincount(np.concatenate([left[0], right[0]]) // (w.dim * v.shape[0]) ** 2)
    chunks.clear()
    monkeypatch.setattr(haar, "_FLIP_CHUNK", total // 8)
    assert haar._flip_identity_residual(w, v) == pytest.approx(whole, rel=1e-12)
    sizes = [left[1].size + right[1].size for left, right in chunks]
    assert len(sizes) >= 8 and sum(sizes) == total
    assert max(sizes) <= total // 8 + per_x.max()


@pytest.mark.parametrize("moved", [False, True], ids=["catalog", "moved"])
def test_flip_identity_routes_match_the_block_oracle(moved, monkeypatch):
    """Both routes of the flip identity, the products expanded over the
    nonzeros of v and the k x k blocks, give the residual of the block
    oracle within 1e-12, for E_t of the Haar trace and of a skewed block
    trace, on every catalog member, or on those of dimension <= 12 moved
    along a seeded inner automorphism (the moved members of dimension 16 to
    27 take about 50 s per evaluation)."""
    rng = np.random.default_rng(0xF11)
    checked = 0
    for entry in catalog():
        w = entry.build()
        if moved and w.dim > 12:
            continue
        if moved:
            w = moved_along(w, inner_automorphism(w.algebra, rng))
        skewed = block_trace(w.algebra, np.arange(1.0, w.algebra.nblocks + 1))
        for tau in (normalized_haar_trace(w), skewed):
            e_t = w.pair_leg(tau.vec, 1).T
            v = dagger(orthonormal_columns(e_t)) @ e_t
            oracle = flip_identity_blocks(w, v)
            for share in (0.0, np.inf):
                monkeypatch.setattr(haar, "_FLIP_EXPAND", share)
                assert abs(haar._flip_identity_residual(w, v) - oracle) <= 1e-12, (entry.name, share)
        checked += 1
    assert checked == (39 if moved else 55)


# ---------------------------------------------------------------------------
# generalized structures: trace in place of counit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["group_z3", "fun_k2", "cube2", "elem_12"])
def test_generalized_kac_with_both_traces(name):
    w = get_example(name)
    data = (w.algebra, w.coproduct, w.antipode)
    assert check_generalized_kac(data, normalized_haar_trace(w)).passed
    assert check_generalized_kac(data, regular_trace(w.algebra)).passed


def test_generalized_kac_skewed_trace_fails_report():
    w = get_example("cube2")
    rep = check_generalized_kac(w, block_trace(w.algebra, [0.3, 0.7]))
    assert not rep.passed


def test_generalized_kac_rejects_non_tracial():
    w = get_example("cube2")
    v = np.zeros(w.dim)
    v[1] = 1.0
    with pytest.raises(NotTracial):
        check_generalized_kac(w, Functional(w.algebra, v))


def test_generalized_kac_rejects_non_faithful():
    w = get_example("cube2")
    with pytest.raises(NotFaithful):
        check_generalized_kac(w, block_trace(w.algebra, [1.0, 0.0]))


# ---------------------------------------------------------------------------
# regular-representation identities, as the axioms they restate
# ---------------------------------------------------------------------------


def _dual_target_by_functionals(w):
    """R*_{eps_t^T delta_j} = L_{e delta_j} on every basis functional delta_j,
    with R*_f y = (id (x) f) Delta(y), by the dense structure constants."""
    rstar = np.einsum("bmn,jn->jmb", dense_coproduct(w), w.eps_t_matrix, optimize=True)
    return max_abs(rstar - w.algebra.lmat(w.e_matrix.T))


@pytest.mark.parametrize("name", ["fun_k2", "cube2", "elem_12", "dualelem_12", "twist_12"])
def test_dual_target_identity_is_axiom_a3_doubleprime(name):
    """Read through the basis functionals delta_j, the regular-representation
    identity R*_{target part of f} = L_{(id (x) f) e} is axiom A3'',
    (id (x) eps_t) Delta(y) = e (y (x) 1): its residual is that of
    axiomA3_doubleprime, which passes on the catalog member and fails on
    a moved coproduct entry."""
    w = get_example(name)
    moved, noisy = moved_entry(w), with_noise(w)
    for v in (w, moved, noisy):
        a3 = verify_weak_kac(v)["axiomA3_doubleprime"].residual
        assert abs(_dual_target_by_functionals(v) - a3) <= 1e-12 * max(1.0, a3)
    assert verify_weak_kac(w)["axiomA3_doubleprime"].passed
    assert not verify_weak_kac(moved)["axiomA3_doubleprime"].passed


@pytest.mark.parametrize("name", ["fun_k2", "cube2", "elem_12", "twist_12"])
def test_operator_identities(name):
    """R*_{target part of f} = L_{(id (x) f) e} holds on every basis
    functional of the catalog member, and axiomA3_doubleprime passes."""
    w = get_example(name)
    rep = verify_weak_kac(w)
    assert rep["axiomA3_doubleprime"].passed, rep.as_text()
    assert _dual_target_by_functionals(w) <= 1e-9


@pytest.mark.parametrize("name", ["cube2", "elem_12", "dualelem_12"])
def test_moved_coproduct_entry_fails_operator_identities(name):
    """A moved coproduct entry breaks the dual-target identity, and
    axiomA3_doubleprime reports it."""
    moved = moved_entry(get_example(name))
    assert not verify_weak_kac(moved)["axiomA3_doubleprime"].passed
    assert _dual_target_by_functionals(moved) > 1e-6


def _product_exchange_by_pairs(w):
    """The exchange identity R*_f L_x = sum f_(1)(x_(2)) L_{x_(1)} R*_{f_(2)}
    on every basis element x and basis functional f (batched over f), the
    right side through the pairing of f and the dense structure constants."""
    alg, t, d = w.algebra, dense_coproduct(w), w.dim
    eye = np.eye(d)
    conv = np.stack([Functional(alg, f).pairing() for f in eye])  # [f, n, d]
    rstar = np.einsum("bmn,fn->fmb", t, eye)  # R*_f as [f, m, b]
    mult = mult_tensor(alg).reshape(d * d, d).T  # [o, (m, r)]
    worst = 0.0
    for x in eye:
        lhs = rstar @ alg.lmat(x)
        terms = np.tensordot(w.delta(x) @ conv, t, (2, 2))  # [f, m, b, r]
        rhs = mult @ terms.transpose(1, 3, 0, 2).reshape(d * d, d * d)
        worst = max(worst, max_abs(lhs - rhs.reshape(d, d, d).transpose(1, 0, 2)))
    return worst


@pytest.mark.parametrize(
    "name", ["cube2", "elem_12", "dualelem_12", "fun_k2", "twist_12", "crossed2"]
)
def test_product_exchange_is_the_multiplicativity_defect(name):
    """On basis elements the exchange identity reads the multiplicativity
    defect of Delta through id (x) delta_j, so its residual is that of
    delta_multiplicative, on and off the axioms."""
    w = get_example(name)
    noisy = with_noise(w)
    assert weakkac._delta_mult_join(noisy) > 1e-5
    for v in (w, moved_entry(w), noisy):
        assert abs(_product_exchange_by_pairs(v) - weakkac._delta_mult_join(v)) <= 1e-12


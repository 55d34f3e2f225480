"""Identities in M (x) M outside the axiom suite, as joins over the nonzeros:
the generalized Kac identities, the counital absorption, the pairing with
the dual, the convolution unit system, the block ranks of Delta(p), the
multiplicativity of the counital representation and the checks that take
multiplication operators L_a and R_a, each against its dense oracle in
conftest, and mutations that each of the joined checks fails."""

from functools import reduce

import numpy as np
import pytest

from wka import (
    WeakKac,
    cartan_subalgebras,
    catalog,
    check_pairing,
    convolution_unit,
    counit_from_haar,
    disjoint_union,
    dual,
    groupoid_algebra,
    haar_projection,
    normalized_haar_trace,
    pair_groupoid,
    regular_trace,
)
from wka import haar
from wka.algebra import block_trace
from wka.errors import NoUnit
from wka.fusion import counital_representation
from wka.haar import check_generalized_kac, check_haar_projection
from wka.tensorkit import Inconsistent, Tolerance, solve_affine_space
from wka.weakkac import _cartan_spans, counital_maps

from conftest import (
    SHAPES,
    assert_pair_bounds,
    dense_absorption,
    dense_block_ranks,
    dense_cartan_operators,
    dense_convolution_unit_system,
    dense_haar_trace_identity,
    dense_multiplicative,
    dense_pairing_identities,
    dense_projection_absorption,
    dense_regular_trace_identity,
    dense_right_antipode_absorption,
    dense_target_bimodule_map,
    get_example,
    inner_automorphism,
    moved_along,
    moved_entry,
    rmat,
    unit_coordinates,
)
from test_mutations import DERIVED_ROWS

MEMBERS = ["cube2", "group_z3", "fun_k2", "elem_12", "dualelem_12", "twist_12"]
INPUTS = [f"shape{''.join(map(str, s))}" for s in SHAPES] + MEMBERS


def _build(name):
    """A catalog member, or the algebra of pair groupoids whose block shape
    is the named entry of SHAPES."""
    if not name.startswith("shape"):
        return get_example(name)
    shape = next(s for s in SHAPES if name == f"shape{''.join(map(str, s))}")
    return groupoid_algebra(reduce(disjoint_union, [pair_groupoid(n) for n in shape]))


def _agree(joined, dense):
    assert abs(joined - dense) <= 1e-12 * max(1.0, dense), (joined, dense)


@pytest.mark.parametrize("moved", [False, True], ids=["exact", "moved"])
@pytest.mark.parametrize("name", INPUTS)
def test_tensor_square_checks_match_their_dense_oracles(name, moved, monkeypatch):
    """haar_trace_identity, regular_trace_identity and absorbs_right_factor
    equal their oracles, and target_bimodule_map lies within the bounds of
    its pair loop, on each member and on the member with one coproduct
    entry moved; the moved member keeps the trace and the Haar projection
    of the member."""
    w = _build(name)
    if moved and w.coproduct.nnz == w.dim ** 3:
        pytest.skip("the coproduct has no zero entry to move to")
    phi, p = normalized_haar_trace(w), haar_projection(w)
    if moved:
        w = moved_entry(w)
        monkeypatch.setattr(haar, "haar_projection", lambda w, tol=None: p)
    theta = regular_trace(w.algebra)
    for trace in (phi, theta):
        rep = check_generalized_kac(w, trace)
        _agree(rep["haar_trace_identity"].residual, dense_haar_trace_identity(w, trace.pairing()))
        _agree(rep["regular_trace_identity"].residual, dense_regular_trace_identity(w, theta.vec))
    rep = counital_maps(w)
    _agree(rep["absorbs_right_factor"].residual, dense_absorption(w.algebra, w.eps_t_matrix))
    # the one-sided residual against the pair loop, through the bounds
    # between them
    nt, alg = _cartan_spans(w, Tolerance())[1].basis, w.algebra
    assert_pair_bounds(
        rep["target_bimodule_map"].residual,
        dense_target_bimodule_map(w, nt),
        alg.lmat(nt.T),
        alg.lmat((w.antipode @ nt).T),
        unit_coordinates(alg, nt),
    )


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["cube2", "elem_12", "twist_12"])
def test_target_bimodule_map_fails_each_half_alone(name, side):
    """For v outside the commutant of N_t, L_v eps_t keeps the half
    eps_t L_S(n) = R_n eps_t of the bimodule property and breaks
    eps_t L_n = L_n eps_t, and R_v eps_t the other way round: the check
    fails, within the bounds of its pair loop, both of which hold here."""
    w = _build(name)
    w = WeakKac(w.algebra, w.coproduct, w.antipode, w.counit)  # a fresh cache
    alg = w.algebra
    nt = _cartan_spans(w, Tolerance())[1].basis
    v = next(
        u for u in np.eye(w.dim) if np.abs(alg.lmat(u) @ nt - rmat(alg, u) @ nt).max() > 0.5
    )
    # the cached eps_t_matrix is read from the instance dict
    w.__dict__["eps_t_matrix"] = (alg.lmat(v) if side == "left" else rmat(alg, v)) @ w.eps_t_matrix
    rep = counital_maps(w)
    assert not rep["target_bimodule_map"].passed
    assert_pair_bounds(
        rep["target_bimodule_map"].residual,
        dense_target_bimodule_map(w, nt),
        alg.lmat(nt.T),
        alg.lmat((w.antipode @ nt).T),
        unit_coordinates(alg, nt),
    )


@pytest.mark.parametrize("name", INPUTS)
def test_pairing_unit_and_representation_match_their_dense_oracles(name):
    w = _build(name)
    rep = check_pairing(w, dual(w))
    for check, dense in zip(
        ("coproduct_pairs_with_product", "product_pairs_with_coproduct"),
        dense_pairing_identities(w, dual(w)),
    ):
        _agree(rep[check].residual, dense)
    # the counit solved from the counit equations is the unit of the dual
    # convolution algebra: it solves the paper's unit conditions, stacked
    # densely in the coordinates of phi, and u = Phi^-1 v represents it
    phi = normalized_haar_trace(w)
    v = counit_from_haar(w, phi).vec
    for a, b in dense_convolution_unit_system(w, phi.pairing()):
        assert np.abs(a @ v - b).max() <= Tolerance().abs_tol
    u = convolution_unit(w, phi).coeffs
    assert np.abs(phi.pairing() @ u - v).max() <= 1e-12
    data, rep = counital_representation(w)
    _agree(rep["multiplicative"].residual, dense_multiplicative(w.algebra, data.matrices))


@pytest.mark.parametrize("name", INPUTS)
def test_multiplicative_fails_with_its_oracle(name):
    """Under the mutation row that adds noise 1e-6 to eps_t, pi_eps is no
    longer multiplicative: the residual on the generators and the dense
    oracle over all basis pairs both exceed abs_tol."""
    w = DERIVED_ROWS["noise 1e-6 on eps_t"](_build(name))
    data, rep = counital_representation(w)
    abs_tol = Tolerance().abs_tol
    assert rep["multiplicative"].residual > abs_tol
    assert dense_multiplicative(w.algebra, data.matrices) > abs_tol


@pytest.mark.parametrize("name", INPUTS)
def test_block_ranks_match_the_dense_oracle(name, monkeypatch):
    """coproduct_block_ranks on Delta(p), and on a random integer element of
    M (x) M in its place whose blocks have ranks above 1: the failing
    blocks and their ranks are those of the concrete N^2 x N^2 matrix."""
    w, tol = _build(name), Tolerance()
    alg = w.algebra
    units = [alg.matrix_unit_index(i, 0, 0) for i in range(alg.nblocks)]
    sigma = alg.basis_block[np.argmax(np.abs(w.antipode[:, units]), axis=0)]
    rng = np.random.default_rng(3)
    c = rng.integers(-2, 3, (w.dim, w.dim)) * (rng.random((w.dim, w.dim)) < 0.4)
    real = haar._haar_projection_coproduct
    for fake in (False, True):
        if fake:
            monkeypatch.setattr(haar, "_haar_projection_coproduct", lambda w, p: (c, 0.0, 0.0))
        _, rep = check_haar_projection(w)
        delta_p = c if fake else real(w, haar_projection(w).coeffs)[0]
        want = [
            f"block ({i},{j}) rank {r} want {int(j == sigma[i])}"
            for (i, j), r in dense_block_ranks(w, delta_p, tol).items()
            if r != int(j == sigma[i])
        ]
        assert rep["coproduct_block_ranks"].note == "; ".join(want)
        assert rep["coproduct_block_ranks"].passed == (not want)


def _skewed_trace(monkeypatch):
    """check_generalized_kac with a faithful trace that is not a Haar trace."""
    w = get_example("cube2")
    return check_generalized_kac(w, block_trace(w.algebra, [0.3, 0.7]))


def _moved_generalized(name):
    """check_generalized_kac on the member with one coproduct entry moved,
    with the regular trace and the member's Haar projection."""

    def run(monkeypatch):
        w = get_example(name)
        p = haar_projection(w)
        monkeypatch.setattr(haar, "haar_projection", lambda w, tol=None: p)
        return check_generalized_kac(moved_entry(w), regular_trace(w.algebra))

    return run


def _moved_counital(name):
    return lambda monkeypatch: counital_maps(moved_entry(get_example(name)))


def _mismatched_dual(primal, other):
    return lambda monkeypatch: check_pairing(get_example(primal), dual(get_example(other)))


MUTATIONS = {
    "skewed_trace": (_skewed_trace, {"haar_trace_identity"}),
    "moved_cube2": (_moved_generalized("cube2"), {"haar_trace_identity", "regular_trace_identity"}),
    "moved_elem_12": (
        _moved_generalized("elem_12"),
        {"haar_trace_identity", "regular_trace_identity"},
    ),
    "counital_moved_cube2": (_moved_counital("cube2"), {"absorbs_right_factor"}),
    "counital_moved_fun_k2": (_moved_counital("fun_k2"), {"absorbs_right_factor"}),
    # the dual of the matrix algebra M_2 against the functions on K_2, both
    # of dimension 4: neither the product nor the coproduct pairs
    "dual_of_group_k2": (
        _mismatched_dual("fun_k2", "group_k2"),
        {"coproduct_pairs_with_product", "product_pairs_with_coproduct"},
    ),
    # a twist keeps the algebra and changes the coproduct: only the dual
    # product, the transposed coproduct of the twist, fails to pair
    "dual_of_twist": (_mismatched_dual("elem_11", "twist_11"), {"product_pairs_with_coproduct"}),
}
CHECKS = [
    "haar_trace_identity",
    "regular_trace_identity",
    "absorbs_right_factor",
    "coproduct_pairs_with_product",
    "product_pairs_with_coproduct",
]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutations_fail_the_tensor_square_checks(mutation, monkeypatch):
    build, fails = MUTATIONS[mutation]
    rep = build(monkeypatch)
    failed = {c.name for c in rep.checks if c.name in CHECKS and not c.passed}
    assert failed == fails, rep.as_text()
    for name in fails:
        assert rep[name].residual > 1e-3


def test_unit_system_keeps_the_rows_with_only_a_right_side():
    """With Delta(b_i) = 0 the rows (j, i) of the unit system are zero and
    their right side Phi[i, j] is not: the system is inconsistent, densely
    and joined."""
    w = get_example("cube2")
    phi = normalized_haar_trace(w)
    i, j, k, v = w.coproduct
    keep = i != i[0]
    cut = WeakKac(w.algebra, (i[keep], j[keep], k[keep], v[keep]), w.antipode, None)
    with pytest.raises(Inconsistent):
        solve_affine_space(dense_convolution_unit_system(cut, phi.pairing()))
    with pytest.raises(NoUnit, match="no unit"):
        convolution_unit(cut, phi)


def test_a_trace_that_is_not_faithful_has_no_unit():
    """A block trace with weight 0 on a block leaves Phi singular, so no
    element of M represents the unit through it."""
    w = get_example("cube2")
    with pytest.raises(NoUnit, match="not faithful"):
        convolution_unit(w, block_trace(w.algebra, [0.0, 1.0]))


def test_counit_equations_ranked_below_the_cutoff_are_underdetermined():
    """A solution v of both halves of the counit equations is unique: for x
    in the null space of the left half, x = (x (x) v) Delta = 0.  So the
    underdetermined cause is a numerical one, reached here by a tolerance
    so coarse that every singular value of the equations lies below the
    cutoff of their shape, while the regular trace of the commutative
    fun_k2, with its Gram blocks 1, stays faithful at it."""
    w = get_example("fun_k2")
    with pytest.raises(NoUnit, match=f"underdetermined \\({w.dim} free directions\\)"):
        convolution_unit(w, regular_trace(w.algebra), Tolerance(0.2))


def test_a_unit_that_is_not_self_adjoint_is_refused():
    """Under a faithful trace with the weight i on one block, u = Phi^-1 eps
    carries the factor 1/i there: the counit equations are solved, but u
    is not *-fixed."""
    w = get_example("cube2")
    with pytest.raises(NoUnit, match="not S- and \\*-fixed"):
        convolution_unit(w, block_trace(w.algebra, [1j, 1.0]))


# ---------------------------------------------------------------------------
# multiplication operators: products joined over the product triples
# ---------------------------------------------------------------------------


def _cartan_operators(w, tol):
    """cartans_commute and e_exchanges_target_factors with their oracles."""
    ns, nt, _, _ = _cartan_spans(w, tol)
    rep = cartan_subalgebras(w, tol).report
    dense = dense_cartan_operators(w, ns.basis, nt.basis)
    return {name: (rep[name], v) for name, v in zip(("cartans_commute", "e_exchanges_target_factors"), dense)}


def _counital_operators(w, tol):
    """right_antipode_absorption with its oracle."""
    check = counital_maps(w, tol)["right_antipode_absorption"]
    return {check.name: (check, dense_right_antipode_absorption(w, _cartan_spans(w, tol)[1].basis))}


def _projection_operators(w, tol):
    """right_absorption and left_absorption with their oracles."""
    p, rep = check_haar_projection(w, tol)
    dense = dense_projection_absorption(w, p.coeffs)
    return {name: (rep[name], v) for name, v in zip(("right_absorption", "left_absorption"), dense)}


def test_operator_checks_match_their_dense_oracles():
    """On every catalog member, and on those of dimension <= 27 moved along
    a seeded inner automorphism (every coproduct dense), the joined
    residuals equal the dense stacks up to rounding."""
    rng = np.random.default_rng(0x0BE)
    checked = 0
    for entry in catalog():
        w = entry.build()
        for v in [w, *([moved_along(w, inner_automorphism(w.algebra, rng))] if w.dim <= 27 else [])]:
            found = {}
            for checks in (_cartan_operators, _counital_operators, _projection_operators):
                found.update(checks(v, Tolerance()))
            for name, (check, dense) in found.items():
                assert check.passed, (entry.name, name)
                _agree(check.residual, dense)
            checked += 1
    assert checked == 107


def _identity_antipode(w):
    # S = 1 keeps N_s, N_t and e, and breaks R_S(v) e = e R_v^T
    return WeakKac(w.algebra, w.coproduct, np.eye(w.dim), w.counit), Tolerance()


def _source_span_swapped(w):
    # N_s read as N_t: a noncommutative N_t then fails to commute with N_s;
    # the relations fail too, so the tolerance is loosened past their raise
    tol = Tolerance(1e-3)
    w = WeakKac(w.algebra, w.coproduct, w.antipode, w.counit)
    _, nt, xs, ys = _cartan_spans(w, tol)
    w._memo[("cartan_spans", tol)] = (nt, nt, xs, ys)
    return w, tol


def _star_antipode(w):
    # S composed with the star: eps_t R_n no longer equals eps_t R_S(n)
    return WeakKac(w.algebra, w.coproduct, w.antipode @ w.algebra.star_matrix, w.counit), Tolerance()


def _counital_maps_reversed(w):
    # the Haar projection of the member against eps_t and eps_s with their
    # columns reversed: x p = eps_t(x) p and p x = p eps_s(x) break
    w = WeakKac(w.algebra, w.coproduct, w.antipode, w.counit)
    haar._haar_projection_space(w, Tolerance())
    for name in ("eps_t_matrix", "eps_s_matrix"):
        w.__dict__[name] = getattr(w, name)[:, ::-1]
    return w, Tolerance()


OPERATOR_MUTATIONS = {
    "identity_antipode": ("cube2", _identity_antipode, _cartan_operators, ["e_exchanges_target_factors"]),
    "source_span_swapped": ("elem_12", _source_span_swapped, _cartan_operators, ["cartans_commute"]),
    "star_antipode": ("elem_12", _star_antipode, _counital_operators, ["right_antipode_absorption"]),
    "counital_maps_reversed": (
        "cube2", _counital_maps_reversed, _projection_operators, ["right_absorption", "left_absorption"]
    ),
}


@pytest.mark.parametrize("mutation", OPERATOR_MUTATIONS)
def test_mutations_fail_the_operator_checks(mutation):
    """Each mutation fails its checks, whose joined residuals still equal
    the dense stacks."""
    name, mutate, checks, fails = OPERATOR_MUTATIONS[mutation]
    found = checks(*mutate(get_example(name)))
    assert [c for c in fails if found[c][0].passed] == []
    for check, dense in found.values():
        _agree(check.residual, dense)

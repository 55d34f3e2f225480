"""Axiom verification, Cartan subalgebras, counital maps, morphisms."""

import tracemalloc

import numpy as np
import pytest

from wka import (
    GroupAction,
    WeakKac,
    cartan_subalgebras,
    catalog,
    check_generalized_kac,
    check_kac_bimodule,
    cube_family,
    check_morphism,
    check_pairing,
    counital_maps,
    counital_quotient,
    counital_representation,
    cyclic_shift_action,
    decompose_if_split,
    direct_sum,
    dual,
    hyper_center,
    normalized_haar_trace,
    restrict_to_blocks,
    verify_weak_kac,
)
from wka import tensorkit, weakkac
from wka.constructors import validate_action
from wka.storage import load_wka, save_wka
from wka.errors import CartanMismatch, InvalidAction
from wka.report import VerificationReport
from wka.algebra import Functional
from wka.tensorkit import Tolerance, _join, _row_starts, max_abs, nullspace, subspace_distance

from conftest import (
    basis_products,
    dense_coproduct,
    e_without_block,
    get_example,
    inner_automorphism,
    moved_along,
    moved_entry,
    mu,
    with_noise,
)

EXAMPLES = [
    "group_z3",
    "fun_k2",
    "group_k3",
    "elem_12",
    "dualelem_12",
    "cube2",
    "crossed2",
    "twist_11",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_axiom_suite_passes(name):
    rep = verify_weak_kac(get_example(name))
    assert rep.passed, rep.as_text()
    assert rep.max_residual <= 1e-8


def test_axiom_suite_names_every_axiom():
    rep = verify_weak_kac(get_example("fun_k2"))
    names = {c.name for c in rep.checks}
    for expected in (
        "delta_coassociative",
        "delta_multiplicative",
        "delta_star_compatible",
        "antipode_antimultiplicative",
        "antipode_involutive",
        "antipode_flips_coproduct",
        "counit_left",
        "counit_right",
        "axiom2",
        "axiom3",
        "axiomA2",
        "axiomA3",
        "axiomA4",
    ):
        assert expected in names, f"missing {expected}"


@pytest.mark.parametrize("position", [0, 1, 2])
def test_nan_residual_fails_and_is_reported(position):
    rep = VerificationReport("nan")
    residuals = [1e-12, 1e-13, 2e-12]
    residuals[position] = float("nan")
    for i, r in enumerate(residuals):
        rep.add(f"check{i}", r)
    assert not rep.passed
    assert [c.name for c in rep.failures()] == [f"check{position}"]
    assert np.isnan(rep.max_residual)
    assert rep.as_text().endswith("verdict: FAIL (max residual nan)")


@pytest.mark.parametrize("tensor", ["coproduct", "antipode", "counit"])
def test_non_finite_structure_arrays_are_rejected(tensor):
    w = get_example("fun_k2")
    arrays = {k: np.array(getattr(w, k)) for k in ("antipode", "counit")}
    arrays["coproduct"] = dense_coproduct(w)
    arrays[tensor].flat[-1] = np.inf if tensor == "counit" else np.nan
    with pytest.raises(ValueError, match=f"{tensor} has non-finite entries"):
        WeakKac(w.algebra, **arrays)


def test_scaled_coproduct_fails_counit_and_weak_unit_axioms():
    w = get_example("cube2")
    bad = WeakKac(w.algebra, 0.5 * dense_coproduct(w), w.antipode, w.counit, {})
    rep = verify_weak_kac(bad)
    assert not rep.passed
    failed = {c.name for c in rep.failures()}
    assert "counit_left" in failed or "counit_right" in failed


def test_zeroed_counit_fails_named_counit_checks():
    w = get_example("fun_k2")
    bad = WeakKac(w.algebra, w.coproduct, w.antipode, np.zeros(w.dim), {})
    rep = verify_weak_kac(bad)
    failed = {c.name for c in rep.failures()}
    assert {"counit_left", "counit_right"} <= failed


def test_mangled_antipode_fails():
    w = get_example("group_z3")
    bad = WeakKac(w.algebra, w.coproduct, np.eye(w.dim), w.counit, {})
    rep = verify_weak_kac(bad)
    assert not rep.passed


@pytest.mark.parametrize(
    "perturbed, failing",
    [
        ("counit", {"axiomA2", "axiomA2_prime", "axiomA3", "axiomA3_prime", "axiom1_s_invariance"}),
        (
            "coproduct",
            {"axiom3", "axiomA3_doubleprime", "delta_star_compatible", "antipode_flips_coproduct"},
        ),
        ("antipode", {"axiom3", "axiomA3_doubleprime"}),
        ("counit_imaginary", {"axiom1_star", "axiomA3_star", "axiomA4_prime"}),
        ("coproduct_row", {"counit_left"}),
    ],
)
def test_counit_axioms_evaluated_by_scatters_can_fail(perturbed, failing):
    """On cube_family(2): 1e-6 noise on the counit or the coproduct, S = id,
    an imaginary 1e-6 shift of the counit or a zero row of the coproduct
    (Delta(b_0) = 0, which (eps (x) id) Delta cannot map back to b_0)
    fails each named axiom evaluated over the nonzeros or by d x d products."""
    w = get_example("cube2")
    arrays = {"coproduct": dense_coproduct(w), "antipode": w.antipode, "counit": w.counit}
    if perturbed == "antipode":
        arrays["antipode"] = np.eye(w.dim)
    elif perturbed == "counit_imaginary":
        arrays["counit"] = w.counit + 1e-6j
    elif perturbed == "coproduct_row":
        arrays["coproduct"][0] = 0
    else:
        rng = np.random.default_rng(7)
        shape = arrays[perturbed].shape
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        arrays[perturbed] = arrays[perturbed] + 1e-6 * noise
    rep = verify_weak_kac(WeakKac(w.algebra, **arrays))
    assert failing <= {c.name for c in rep.failures()}


# ---------------------------------------------------------------------------
# residuals over the coproduct's nonzeros and their dense oracles: the
# contractions the joins replaced, kept here as reference implementations
# ---------------------------------------------------------------------------


def _multiplicativity_dense(src, dst, f, anti=False):
    """Max over basis pairs of |f(b_a b_b) - f(b_a) f(b_b)| (or f(b_b) f(b_a)
    when anti is set), the products in dst taken as concrete matrices."""
    mats = np.stack([dst.to_matrix(f[:, a]) for a in range(src.dim)])
    spec = "bij,ajk->abik" if anti else "aij,bjk->abik"
    rhs = np.einsum(spec, mats, mats, optimize=True)[:, :, dst.basis_row, dst.basis_col]
    lhs = np.zeros_like(rhs)
    p, q, m = src.products
    lhs[p, q, :] = f[:, m].T
    return max_abs(lhs - rhs)


def _intertwining_dense(w1, w2, f, flip=False):
    """Residual of (f (x) f) Delta_1 = Delta_2 f, or = flip Delta_2 f."""
    lhs = np.einsum("ma,iab,nb->imn", f, dense_coproduct(w1), f, optimize=True)
    rhs = np.einsum("mi,mab->iab", f, dense_coproduct(w2), optimize=True)
    return max_abs(lhs - (rhs.transpose(0, 2, 1) if flip else rhs))


def _residuals_dense(w):
    """Every residual of verify_weak_kac evaluated over the nonzeros, on
    the support of e and eps_mult or by permuting with the star, other than
    coassociativity and multiplicativity, by dense contractions and full
    d x d products."""
    alg, t, s = w.algebra, dense_coproduct(w), w.antipode
    dim = alg.dim
    star, eps = alg.star_matrix, w.counit
    em, e = w.eps_mult, w.e_matrix
    es, et = w.eps_s_matrix, w.eps_t_matrix
    eye = np.eye(dim)
    p, q, m = alg.products
    one_x_e = basis_products(alg, e, leg=1, left=True)
    lhs_a2 = np.zeros((dim, dim, dim), dtype=complex)
    lhs_a2[:, q, m] = (em @ e)[:, p]
    return {
        "antipode_star": max_abs(s @ star - star @ np.conj(s)),
        "axiom1_star": max_abs(eps @ star - np.conj(eps)),
        "axiom2": max_abs(em @ e @ em - em),
        "axiomA3_star": max_abs(e @ em @ e - e),
        "axiomA4": max_abs(es - e @ em.T),
        "axiomA4_prime": max_abs(et - e.T @ em),
        "delta_star_compatible": max_abs(
            np.einsum("mj,mab->jab", star, t)
            - np.einsum("ma,jab,nb->jmn", star, np.conj(t), np.conj(star), optimize=True)
        ),
        "antipode_antimultiplicative": _multiplicativity_dense(alg, alg, s, anti=True),
        "antipode_flips_coproduct": _intertwining_dense(w, w, s, flip=True),
        "counit_left": max_abs(np.einsum("iab,a->bi", t, eps) - eye),
        "counit_right": max_abs(np.einsum("iab,b->ai", t, eps) - eye),
        "axiom3": max_abs(np.einsum("ma,jab->jmb", es, t) - one_x_e),
        "axiomA2": max_abs(lhs_a2 - np.einsum("ac,bcn->abn", em, t)),
        "axiomA3": max_abs(
            np.einsum("ac,jcn->jan", e @ em, t) - basis_products(alg, e, leg=1, left=False)
        ),
        "axiomA2_prime": max_abs(
            basis_products(alg, em.T @ e, leg=1, left=True) - np.einsum("cb,acn->abn", em, t)
        ),
        "axiomA3_prime": max_abs(np.einsum("ac,jcd->jad", e @ em.T, t) - one_x_e),
        "axiomA3_doubleprime": max_abs(
            np.einsum("jab,mb->jam", t, et) - basis_products(alg, e, leg=0, left=False)
        ),
    }


def _perturbed_identity(dim, seed=3):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.eye(dim) + 1e-3 * noise


def _both_paths(w):
    """{check: (join, dense oracle)} for every residual evaluated over the
    coproduct's nonzeros, multiplicativity exhaustive over basis pairs on
    both sides, and check_morphism's on the identity and a perturbed map."""
    rep = verify_weak_kac(w)
    paths = {name: (rep[name].residual, dense) for name, dense in _residuals_dense(w).items()}
    paths["delta_coassociative"] = (
        weakkac._coassociativity_join(w.coproduct, w.dim), weakkac._coassociativity_dense(dense_coproduct(w))
    )
    paths["delta_multiplicative"] = (
        weakkac._delta_mult_join(w), weakkac._delta_mult_dense(w, np.eye(w.dim))
    )
    for label, f in (("identity", np.eye(w.dim)), ("perturbed", _perturbed_identity(w.dim))):
        mrep = check_morphism(w, w, f)
        paths[f"multiplicative[{label}]"] = (
            mrep["multiplicative"].residual, _multiplicativity_dense(w.algebra, w.algebra, f)
        )
        paths[f"intertwines_coproduct[{label}]"] = (
            mrep["intertwines_coproduct"].residual, _intertwining_dense(w, w, f)
        )
    return paths


def test_join_residuals_match_dense_oracles_on_catalog():
    checked = 0
    for entry in catalog():
        w = entry.build()
        # the exhaustive dense oracle costs d * N^6, a join on a dense
        # coproduct up to d^5 products: keep both to unit-test size
        if w.dim > 27 or w.coproduct.nnz > 5000:
            continue
        for name, (join, dense) in _both_paths(w).items():
            assert abs(join - dense) <= 1e-12, (entry.name, name, join, dense)
        checked += 1
    assert checked == 52


# residuals that read the coproduct and move off the axioms with its noise
_READ_THE_COPRODUCT = [
    "delta_coassociative", "delta_multiplicative", "delta_star_compatible",
    "antipode_flips_coproduct", "counit_left", "counit_right", "axiom3", "axiomA2",
    "axiomA3", "axiomA2_prime", "axiomA3_prime", "axiomA3_doubleprime",
    "intertwines_coproduct[perturbed]",
]


@pytest.mark.parametrize("name, density", [("cube3", 0.05), ("crossed2", 1.0)])
def test_join_residuals_match_dense_oracles_off_the_axioms(name, density):
    w = with_noise(get_example(name), density)
    paths = _both_paths(w)
    for check, (join, dense) in paths.items():
        assert abs(join - dense) <= 1e-12, (check, join, dense)
    for check in _READ_THE_COPRODUCT:
        assert 1e-5 < paths[check][1] < 1e-1, check


def test_phase_on_a_column_of_the_antipode_fails_antipode_star():
    """S(b_c) times e^{0.3i} for a non-self-adjoint b_c of cube_family(2):
    S no longer commutes with the star, and the residual read from the
    permuted columns is the dense |S P - P conj(S)|, |e^{0.3i} - 1|.  The
    phase also breaks anti-multiplicativity.  When the other axioms hold
    exactly, S is the antipode, which is unique and satisfies
    S(x*) = S^-1(x)* (Boehm-Nill-Szlachanyi, Weak Hopf algebras I), so with
    S^2 = id it commutes with the star; near the limit a phase on S fails
    antipode_star alone (tests/test_mutations.py)."""
    w = get_example("cube2")
    alg = w.algebra
    c = int(np.flatnonzero(alg.star_index != np.arange(alg.dim))[0])
    s = np.array(w.antipode)
    s[:, c] *= np.exp(0.3j)
    rep = verify_weak_kac(WeakKac(alg, w.coproduct, s, w.counit))
    star = alg.star_matrix
    dense = max_abs(s @ star - star @ np.conj(s))
    assert rep["antipode_star"].residual == dense == pytest.approx(abs(np.exp(0.3j) - 1))
    assert not rep["antipode_star"].passed
    assert "antipode_antimultiplicative" in {c.name for c in rep.failures()}


def test_counit_identities_on_the_support_match_full_products():
    """The counit of cube_family(3) perturbed at a basis element off the
    diagonal units: eps_mult then has entries outside the rows and columns
    of e, and the identities formed on their joint support still read the
    full d x d products."""
    w = get_example("cube3")
    eps = np.array(w.counit)
    eps[np.flatnonzero(w.algebra.basis_row != w.algebra.basis_col)[0]] = 1e-3
    bad = WeakKac(w.algebra, w.coproduct, w.antipode, eps)
    support = np.flatnonzero(bad.e_matrix.any(axis=0) | bad.e_matrix.any(axis=1))
    outside = np.setdiff1d(np.arange(bad.dim), support)
    assert bad.eps_mult[outside].any()
    rep = verify_weak_kac(bad)
    dense = _residuals_dense(bad)
    for check in ("axiom2", "axiomA3_star", "axiomA4", "axiomA4_prime"):
        assert abs(rep[check].residual - dense[check]) <= 1e-12, check
    assert {"axiom2", "axiomA4", "axiomA4_prime"} <= {c.name for c in rep.failures()}


def test_verify_weak_kac_forms_no_dense_cube(tmp_path):
    """Building cube_family(4) (d = 64), writing it, reading it back and
    verifying it keep the traced peak below one dense d^3 complex array
    (4.2 MB): the coproduct never exists as a dense array on this path."""
    path = tmp_path / "cube4.wka"
    tracemalloc.start()
    try:
        w = cube_family(4)
        save_wka(w, path)
        assert verify_weak_kac(load_wka(path)).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.dim ** 3 * 16, peak


def test_verify_weak_kac_holds_no_dense_structure_map():
    """On a built cube_family(8) (d = 512) verify_weak_kac keeps its traced
    peak below three dense d x d complex arrays (12.6 MB): e, eps(b_a b_b),
    eps_t, eps_s and S S are read as Tables of their d nonzeros."""
    w = cube_family(8)
    tracemalloc.start()
    try:
        assert verify_weak_kac(w).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * w.dim ** 2 * 16, peak


def test_kac_bimodule_check_solves_no_null_space(monkeypatch):
    """N_s and N_t of the bimodule check are the factor spans of e: no null
    space of their defining relations is solved."""
    calls = []
    real = tensorkit.block_nullspace

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tensorkit, "block_nullspace", counting)
    w = cube_family(2)
    rep, eps = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
    assert rep.passed and eps is not None
    assert calls == []


def test_kac_bimodule_check_holds_few_dense_arrays():
    """On a built cube_family(8) (d = 512) check_kac_bimodule keeps its
    traced peak below eight dense d x d complex arrays (33.6 MB): the
    dense views of eps_t and eps_s that its range checks read, and e with
    the two unitary factors of its SVD in the factorization that gives
    N_s and N_t.  The null space of the stacked defining relations, the
    second route to N_s and N_t, held about 95 of them."""
    w = cube_family(8)
    tracemalloc.start()
    try:
        rep, _ = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 8 * w.dim ** 2 * 16, peak


def _dense_structure_maps(w):
    """Oracles of the Tables of WeakKac: e = Delta(1), eps(b_a b_b), eps_t
    and eps_s scattered into dense d x d arrays, as np.add.at sums them."""
    alg, d = w.algebra, w.dim
    i, m, n, v = w.coproduct
    p, q, o = alg.products
    e = np.zeros((d, d), dtype=complex)
    np.add.at(e, (m, n), alg.unit[i] * v)
    maps = {"e_table": e, "eps_mult_table": Functional(alg, w.counit).pairing()}
    for name, leg in (("eps_t_table", 1), ("eps_s_table", 0)):
        # each term t[i,m,n] meets the products b_p b_q = b_o with p = m
        # (or q = n) and adds t[i,m,n] S[q,n] (or S[p,m]) at (o, i)
        kept, key, moved, factor = (m, p, n, q) if leg else (n, q, m, p)
        order = np.argsort(key, kind="stable")
        f, s = _join(kept, _row_starts(key[order], d))
        s = order[s]
        maps[name] = np.zeros((d, d), dtype=complex)
        np.add.at(maps[name], (o[s], i[f]), v[f] * w.antipode[factor[s], moved[f]])
    return maps


def _table_residuals_dense(w, maps):
    """The residuals that verify_weak_kac reads from Tables, as dense d x d
    products."""
    alg, s = w.algebra, w.antipode
    e, em, et, es = (maps[k] for k in ("e_table", "eps_mult_table", "eps_t_table", "eps_s_table"))
    return {
        "antipode_involutive": max_abs(s @ s - np.eye(w.dim)),
        "antipode_star": max_abs(alg.star_columns(s) - alg.star(s)),
        "axiom2": max_abs(em @ e @ em - em),
        "axiomA3_star": max_abs(e @ em @ e - e),
        "axiomA4": max_abs(es - e @ em.T),
        "axiomA4_prime": max_abs(et - e.T @ em),
    }


def test_structure_tables_match_their_dense_oracles():
    """The Tables of e, eps(b_a b_b), eps_t and eps_s hold the nonzeros of
    the dense maps in column-major order, and the residuals read from them
    equal the dense products, on every catalog member, its copy moved along
    an inner automorphism (verified for d <= 27, where the moved coproduct
    stays small) and cube_family(2..6)."""
    rng = np.random.default_rng(0x7AB)
    cases = []
    for entry in catalog():
        w = entry.build()
        cases += [(w, True), (moved_along(w, inner_automorphism(w.algebra, rng)), w.dim <= 27)]
    cases += [(cube_family(n), True) for n in range(2, 7)]
    for w, verify in cases:
        maps = _dense_structure_maps(w)
        for name, dense in maps.items():
            table = getattr(w, name)
            assert np.all(np.diff(table.col * w.dim + table.row) > 0) and np.all(table.v != 0), name
            assert max_abs(table.dense() - dense) <= 1e-12, (w, name)
        if verify:
            rep = verify_weak_kac(w)
            for name, dense in _table_residuals_dense(w, maps).items():
                assert abs(rep[name].residual - dense) <= 1e-12, (w, name, rep[name].residual, dense)


@pytest.mark.parametrize("check", ["check_generalized_kac", "counital_maps", "check_pairing"])
def test_tensor_square_checks_form_no_dense_cube(check):
    """The checks in M (x) M outside the axiom suite keep the traced peak of
    one call on cube_family(4), with its trace and dual given, below one
    dense d^3 complex array (4.2 MB)."""
    w = cube_family(4)
    phi, dw = normalized_haar_trace(w), dual(w)
    run = {
        "check_generalized_kac": lambda: check_generalized_kac(w, phi),
        "counital_maps": lambda: counital_maps(w),
        "check_pairing": lambda: check_pairing(w, dw),
    }[check]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.dim ** 3 * 16, peak


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_coproduct_store_is_coalesced_row_major_coo(entry):
    """The stored coproduct has nnz entries, one per index triple, in
    row-major order, none exactly 0, read-only: the nonzero count that
    reports and the benchmark read is the number of nonzero structure
    constants."""
    w = entry.build()
    i, j, k, v = w.coproduct
    assert w.coproduct.nnz == i.size == j.size == k.size == v.size
    keys = (i * w.dim + j) * w.dim + k
    assert np.all(np.diff(keys) > 0)
    assert np.all(v != 0)
    assert np.count_nonzero(dense_coproduct(w)) == w.coproduct.nnz
    for array in w.coproduct:
        assert not array.flags.writeable


def _unreachable(*args):
    raise AssertionError("residual computed on the other path")


def _doubled_entry(w):
    """w with the first nonzero doubled in the coproduct row of most terms."""
    t = dense_coproduct(w)
    i = np.argmax(np.count_nonzero(t, axis=(1, 2)))
    j, k = np.argwhere(t[i] != 0)[0]
    t[i, j, k] *= 2
    return WeakKac(w.algebra, t, w.antipode, w.counit)


@pytest.mark.parametrize("path", ["join", "dense"])
def test_moved_coproduct_entry_fails_coassociativity_and_multiplicativity(path, monkeypatch):
    """On the dense path the input is dual(fun_disc), realized on character
    idempotents: each Delta(e_i) is a sum of disjoint 0/1 terms, so a moved
    entry can keep Delta multiplicative.  A doubled entry in a row of two
    terms breaks both identities, whatever the basis."""
    if path == "join":
        w = get_example("cube3")
        other, mutate = ("_coassociativity_dense", "_delta_mult_dense"), moved_entry
    else:
        w = dual(get_example("fun_disc"))
        other, mutate = ("_coassociativity_join", "_delta_mult_join"), _doubled_entry
    for name in other:
        monkeypatch.setattr(weakkac, name, _unreachable)
    assert verify_weak_kac(w).passed
    failed = {c.name for c in verify_weak_kac(mutate(w)).failures()}
    assert {"delta_coassociative", "delta_multiplicative"} <= failed


# ---------------------------------------------------------------------------
# Cartan subalgebras
# ---------------------------------------------------------------------------


def test_cartan_of_function_algebra_is_functions_on_units():
    # C(K_2): N_t = functions of the target, a 2-dim commutative algebra
    pair = cartan_subalgebras(get_example("fun_k2"))
    assert pair.report.passed
    assert pair.target.dim == 2
    assert tuple(pair.target_shape) == (1, 1)
    assert tuple(pair.source_shape) == (1, 1)


def test_cartan_of_group_algebra_is_scalars():
    # a group has one unit: N_t = C 1
    pair = cartan_subalgebras(get_example("group_z3"))
    assert pair.target.dim == 1


@pytest.mark.parametrize(
    "name,shape",
    [("elem_11", (1, 1)), ("elem_12", (1, 2))],
)
def test_cartan_of_elementary_is_base_algebra(name, shape):
    pair = cartan_subalgebras(get_example(name))
    assert pair.report.passed
    assert tuple(pair.target_shape) == shape
    assert tuple(pair.source_shape) == shape


def test_cartan_factorization_spans_e():
    w = get_example("cube2")
    pair = cartan_subalgebras(w)
    e = w.e_matrix
    recon = sum(np.outer(x, y) for x, y in zip(pair.xs, pair.ys))
    assert max_abs(recon - e) < 1e-9


def test_cartan_rejects_garbage_coproduct():
    w = get_example("cube2")
    rng = np.random.default_rng(5)
    bad = WeakKac(
        w.algebra, rng.normal(size=(w.dim,) * 3), w.antipode, w.counit, {}
    )
    with pytest.raises(CartanMismatch):
        cartan_subalgebras(bad)


def test_cartan_raises_when_e_is_zero():
    """group-algebra[k2] has one block, so e = Delta(1) without block 0 on
    a leg is zero: it has no factors to span N_s and N_t, for any report
    that reads them, the Kac bimodule check too."""
    bad = e_without_block(1)(get_example("group_k2"))
    assert not bad.e_matrix.any()
    with pytest.raises(CartanMismatch, match="no factors"):
        cartan_subalgebras(bad)
    with pytest.raises(CartanMismatch, match="no factors"):
        counital_representation(bad)
    with pytest.raises(CartanMismatch, match="no factors"):
        check_kac_bimodule(bad.algebra, bad.coproduct, bad.antipode)


def test_cartan_raise_follows_the_tolerance():
    """Delta(e_00) and Delta(e_11) moved by +-1e-4 at one entry keep e and
    so N_s and N_t, and break their defining relations by 1e-4 / sqrt(2):
    cartan_subalgebras raises above 1e4 abs_tol, and below it reports the
    two relations as failed at their limit of abs_tol."""
    w = get_example("cube2")
    alg, t = w.algebra, dense_coproduct(w)
    a, b = np.flatnonzero(alg.basis_row == alg.basis_col)[:2]
    j, k = np.argwhere(t[a] != 0)[0]
    t[a, j, k] += 1e-4
    t[b, j, k] -= 1e-4
    bad = WeakKac(alg, t, w.antipode, w.counit)
    relations = 1e-4 / np.sqrt(2)
    with pytest.raises(CartanMismatch, match="defining relations"):
        cartan_subalgebras(bad, Tolerance(relations / 2e4))
    rep = cartan_subalgebras(bad, Tolerance(2 * relations / 1e4)).report
    for name in ("source_defining_relation", "target_defining_relation"):
        assert not rep[name].passed
        assert rep[name].residual == pytest.approx(relations)


# ---------------------------------------------------------------------------
# counital maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fun_k2", "elem_12", "cube2", "twist_11"])
def test_counital_maps_verified(name):
    w = get_example(name)
    rep = counital_maps(w)
    assert rep.passed, rep.as_text()
    et = w.eps_t_matrix
    # idempotent with range N_t, unital
    assert max_abs(et @ et - et) < 1e-9
    assert max_abs(et @ w.algebra.unit - w.algebra.unit) < 1e-9
    pair = cartan_subalgebras(w)
    assert pair.target.contains(et) < 1e-9


def test_counital_range_checks_follow_the_tolerance():
    # coproduct noise at 1e-6 gives eps_t and eps_s singular values near
    # 1e-6 off the Cartan subalgebras: signal at the default cutoff, noise
    # at abs_tol = 1e-4, where the whole report must then pass
    w = get_example("cube2")
    rng = np.random.default_rng(3)
    noisy = WeakKac(
        w.algebra, dense_coproduct(w) + 1e-6 * rng.standard_normal((w.dim,) * 3),
        w.antipode, w.counit,
    )
    rep = counital_maps(noisy, tol=1e-4)
    assert rep.passed, rep.as_text()
    assert rep["target_range"].residual < 1e-4
    assert rep["source_range"].residual < 1e-4


def _counital_matrices_by_columns(w):
    """Oracle: eps_t and eps_s one basis column at a time, as d products."""
    t, s = dense_coproduct(w), w.antipode
    eps_t = np.stack([mu(w, t[j] @ s.T) for j in range(w.dim)], axis=1)
    eps_s = np.stack([mu(w, s @ t[j]) for j in range(w.dim)], axis=1)
    return eps_t, eps_s


def test_counital_matrices_match_the_column_products():
    cases = [entry.build() for entry in catalog()]
    # a dense antipode, so the join meets every entry of S
    w = get_example("cube2")
    rng = np.random.default_rng(3)
    s = rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim))
    cases.append(WeakKac(w.algebra, w.coproduct, s, w.counit))
    for w in cases:
        eps_t, eps_s = _counital_matrices_by_columns(w)
        assert max_abs(w.eps_t_matrix - eps_t) <= 1e-12 * max(1.0, max_abs(eps_t))
        assert max_abs(w.eps_s_matrix - eps_s) <= 1e-12 * max(1.0, max_abs(eps_s))


def test_counital_maps_match_counit_composition():
    # eps o eps_t = eps and eps o eps_s = eps
    w = get_example("cube2")
    assert max_abs(w.counit @ w.eps_t_matrix - w.counit) < 1e-9
    assert max_abs(w.counit @ w.eps_s_matrix - w.counit) < 1e-9


# ---------------------------------------------------------------------------
# hyper-center and splitting
# ---------------------------------------------------------------------------


def test_hyper_center_trivial_for_elementary_and_cube():
    assert hyper_center(get_example("elem_12")).dim == 1
    assert hyper_center(get_example("cube2")).dim == 1
    assert decompose_if_split(get_example("cube2")) is None


def test_hyper_center_reads_the_cartan_spans(monkeypatch):
    # N_s and N_t come from the factorization of e, not from a second solve
    # of their defining relations: weakkac solves no null space at all
    w = cube_family(2)
    real_spans, spans = weakkac._cartan_spans, []

    def counting_spans(*args, **kwargs):
        spans.append(1)
        return real_spans(*args, **kwargs)

    monkeypatch.setattr(weakkac, "_cartan_spans", counting_spans)
    assert hyper_center(w).dim == 1
    assert len(spans) == 1
    assert not hasattr(weakkac, "nullspace")


def test_direct_sum_splits_back():
    w1 = get_example("fun_z2")
    w2 = get_example("fun_k2")
    w = direct_sum(w1, w2)
    assert verify_weak_kac(w).passed
    hc = hyper_center(w)
    assert hc.dim == 2
    split = decompose_if_split(w)
    assert split is not None
    a, b, rep = split
    assert rep.passed
    shapes = sorted([tuple(a.algebra.block_shape), tuple(b.algebra.block_shape)])
    assert shapes == sorted(
        [tuple(w1.algebra.block_shape), tuple(w2.algebra.block_shape)]
    )


def test_three_summands_split_off_the_class_of_block_0():
    # a hyper-center of dimension 3 offers several splits; the class of
    # block 0 is split off, the same on every call and every rebuild
    parts = [get_example(name) for name in ("fun_z2", "group_z3", "cube2")]
    builds = [direct_sum(direct_sum(*parts[:2]), parts[2]) for _ in range(2)]
    assert hyper_center(builds[0]).dim == 3
    for w in (builds[0], builds[0], builds[1]):
        first, rest, rep = decompose_if_split(w)
        assert rep.passed, rep.as_text()
        assert np.array_equal(dense_coproduct(first), dense_coproduct(parts[0]))
        assert rest.algebra.block_shape == parts[1].algebra.block_shape + parts[2].algebra.block_shape
        assert np.array_equal(dense_coproduct(rest), dense_coproduct(direct_sum(*parts[1:])))


def test_restrict_to_blocks_recovers_summand():
    w1 = get_example("fun_z2")
    w2 = get_example("fun_k2")
    w = direct_sum(w1, w2)
    nb1 = w1.algebra.nblocks
    sub, pi = restrict_to_blocks(w, range(nb1))
    assert sub.dim == w1.dim
    assert verify_weak_kac(sub).passed
    rep = check_morphism(w, sub, pi)
    # compression to a direct summand is a genuine morphism
    assert rep["unital"].passed and rep["multiplicative"].passed


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def test_identity_is_a_morphism():
    w = get_example("fun_k2")
    rep = check_morphism(w, w, np.eye(w.dim))
    assert rep.passed


def test_counital_quotient_map_is_a_morphism():
    w = get_example("fun_k2")
    q, pi, qrep = counital_quotient(w)
    assert qrep.passed
    rep = check_morphism(w, q, pi)
    assert rep.passed
    assert rep["cartan_source_bijective"].passed
    assert rep["cartan_target_bijective"].passed


def test_zero_map_fails_morphism():
    w = get_example("fun_k2")
    rep = check_morphism(w, w, np.zeros((w.dim, w.dim)))
    assert not rep.passed
    assert not rep["unital"].passed


def _transpose_map(alg):
    """x -> x^T on every block: unital, *-preserving, anti-multiplicative."""
    eye = np.eye(alg.dim)
    return np.stack([alg.from_matrix(alg.to_matrix(eye[a]).T) for a in range(alg.dim)], axis=1)


@pytest.mark.parametrize(
    "check", ["antipode_antimultiplicative", "multiplicative", "validate_action"]
)
def test_unital_star_map_that_breaks_products_fails(check):
    """Each basis-pair (anti-)multiplicativity check rejects a unital,
    *-preserving map that does not respect products."""
    if check == "validate_action":
        w, action = cyclic_shift_action(2)
        mean = np.outer(w.algebra.unit, np.full(w.dim, 1.0 / w.dim))  # x -> mean(x) 1
        with pytest.raises(InvalidAction, match="not multiplicative"):
            validate_action(w, GroupAction(action.group, [np.eye(w.dim), mean]))
        return
    w = get_example("group_k2")
    assert w.algebra.block_shape == (2,)
    if check == "multiplicative":
        rep = check_morphism(w, w, _transpose_map(w.algebra))
        kept = ("unital", "star_homomorphism")
    else:
        # the identity is multiplicative, hence not anti-multiplicative on M_2
        rep = verify_weak_kac(WeakKac(w.algebra, w.coproduct, np.eye(w.dim), w.counit))
        kept = ("antipode_unital", "antipode_star")
    assert all(rep[name].passed for name in kept)
    assert not rep[check].passed


@pytest.mark.parametrize(
    "name, make_map, failing",
    [
        ("fun_k2", lambda w: np.eye(w.dim), set()),
        (
            "fun_k2",
            lambda w: np.array(w.antipode),
            {"intertwines_coproduct", "cartan_source_bijective", "cartan_target_bijective"},
        ),
    ],
    ids=["identity", "antipode"],
)
def test_morphism_checks_fail_where_the_map_breaks(name, make_map, failing):
    """The identity passes; on the functions of the pair groupoid, S is a
    *-automorphism that keeps S and eps but reverses the coproduct and
    swaps the Cartan subalgebras (x -> x^T, which breaks only products, is
    in the test above)."""
    w = get_example(name)
    assert {c.name for c in check_morphism(w, w, make_map(w)).failures()} == failing


# ---------------------------------------------------------------------------
# read-only structure and derived values
# ---------------------------------------------------------------------------


def test_structure_arrays_are_read_only_copies():
    w0 = get_example("fun_k2")
    given = [dense_coproduct(w0), np.array(w0.antipode), np.array(w0.counit)]
    w = WeakKac(w0.algebra, *given)
    for own, arr in zip(given, (w.coproduct.v, w.antipode, w.counit)):
        with pytest.raises(ValueError):
            arr.flat[0] = 7.0
        own.flat[0] = 7.0  # the caller's array stays writable ...
        assert arr.flat[0] != 7.0  # ... and is not shared
    for derived in (w.e_matrix, w.eps_t_matrix, normalized_haar_trace(w0).vec):
        with pytest.raises(ValueError):
            derived.flat[0] = 7.0


# ---------------------------------------------------------------------------
# Kac bimodule characterization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fun_k2", "group_z3", "elem_12", "cube2"])
def test_kac_bimodule_recovers_counit(name):
    w = get_example(name)
    rep, eps = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
    assert rep.passed, rep.as_text()
    assert eps is not None
    assert max_abs(eps.vec - w.counit) < 1e-8


def test_kac_bimodule_computes_each_residual_once(monkeypatch):
    calls = []
    original = weakkac._coassociativity_residual

    def counted(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(weakkac, "_coassociativity_residual", counted)
    w = get_example("cube2")
    rep, eps = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
    assert rep.passed and eps is not None
    assert len(calls) == 1
    names = [c.name for c in rep.checks]
    assert "delta_coassociative" in names
    assembled = [n for n in names if n.startswith("assembled.")]
    # the counit pair is reported once, at the top level; the assembled
    # checks are the counit axioms after it, axiom1_s_invariance to A4',
    # except the compressions 3 and A3''
    assert names.count("counit_left") == names.count("counit_right") == 1
    counit_names = [c.name for c in verify_weak_kac(w).checks if c.name.startswith("axiom")]
    compressions = ["axiom3", "axiomA3_doubleprime"]
    assert assembled == ["assembled." + n for n in counit_names if n not in compressions]


def test_basis_products_of_e_are_formed_once_per_algebra(monkeypatch):
    """verify_weak_kac, cartan_subalgebras and counital_maps on one algebra
    read (1 (x) b_j) e and its three siblings from WeakKac.e_products, each
    formed once."""
    calls = []
    original = weakkac._basis_products

    def counted(alg, c, leg, left):
        calls.append((c, leg, left))
        return original(alg, c, leg, left)

    monkeypatch.setattr(weakkac, "_basis_products", counted)
    w = cube_family(2)
    verify_weak_kac(w)
    cartan_subalgebras(w)
    counital_maps(w)
    of_e = [(leg, left) for c, leg, left in calls if c is w.e_table]
    assert sorted(of_e) == [(0, False), (0, True), (1, False), (1, True)]


def test_kac_bimodule_compressions_are_the_assembled_axioms():
    """target_compression and source_compression are axioms A3'' and 3, by
    the joins of verify_weak_kac, so the assembled checks leave them out; a
    scaled Delta fails both."""
    w = get_example("cube2")
    rep, _ = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
    axioms = verify_weak_kac(w)
    for compression, axiom in (("target", "axiomA3_doubleprime"), ("source", "axiom3")):
        assert rep[compression + "_compression"].residual == axioms[axiom].residual
        assert "assembled." + axiom not in {c.name for c in rep.checks}
    scaled, _ = check_kac_bimodule(w.algebra, 0.5 * dense_coproduct(w), w.antipode)
    assert not scaled["target_compression"].passed
    assert not scaled["source_compression"].passed


def test_kac_bimodule_rejects_scaled_coproduct():
    w = get_example("cube2")
    rep, _ = check_kac_bimodule(w.algebra, 0.5 * dense_coproduct(w), w.antipode)
    assert not rep.passed
    assert rep.max_residual >= 0.5


@pytest.mark.parametrize("name", ["group_z3", "elem_12", "cube2", "cube2-moved"])
def test_cartan_relations_match_the_dense_stack(name):
    """N_t and N_s of the bimodule check are the factor spans of e, and its
    two defining-relation checks are the residuals of the dense d^3 stacks
    of their relations on them.  On a member the spans are the null spaces
    of the stacks; on the member with one coproduct entry moved the
    relations fail on the spans, and so do both checks."""
    moved = name.endswith("moved")
    w = get_example(name.split("-")[0])
    if moved:
        w = moved_entry(w)
    tol = Tolerance()
    rep, _ = check_kac_bimodule(w.algebra, w.coproduct, w.antipode, tol)
    spans = weakkac._cartan_spans(WeakKac(w.algebra, w.coproduct, w.antipode, None), tol)
    for leg, span, side in zip((0, 1), spans[1::-1], ("target", "source")):
        dense = np.hstack([
            (dense_coproduct(w) - basis_products(w.algebra, w.e_matrix, leg, left)).reshape(w.dim, -1)
            for left in (False, True)
        ]).T
        check = rep[side + "_defining_relation"]
        assert abs(check.residual - max_abs(dense @ span.basis)) <= 1e-12
        if moved:
            assert not check.passed
        else:
            assert subspace_distance(span.basis, nullspace(dense, tol)) < 1e-10

"""Counital representation, fusion ring, and counital quotient.

The classes of nondegenerate representations of the algebra M of a weak
Kac algebra form a ring: direct sum, and the product rho_1 x rho_2 =
(rho_1 (x) rho_2) o Delta cut to the support of e.  Classes are
determined by characters, so the whole ring lives in character
coordinates: block characters chi_i are a basis, and the product
decomposes through the coproduct tensor.

The counit eps is positive and its GNS representation pi_eps acts on the
target Cartan subalgebra N_t carrying the scalar product (x, y) =
eps(y* x), by pi_eps(x) eps_t(y) = eps_t(x y).  Its character is
chi_eps = eps o mu o Delta.  This representation is the unit of the
ring, is multiplicity free, and its irreducible constituents (the
counital support) select the central blocks whose sum is the minimal
quotient weak Kac algebra of M.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import FdAlgebra
from .errors import GramDegenerate, NonIntegralMultiplicity
from .report import VerificationReport
from .tensorkit import _bincount, _contract, as_tol, dagger, max_abs, positive_definite
from .weakkac import WeakKac, check_morphism, restrict_to_blocks, verify_weak_kac, _cartan_spans, _generators

__all__ = [
    "block_characters",
    "counital_character",
    "CounitalRepresentation",
    "counital_representation",
    "FusionRing",
    "fusion_ring",
    "counital_quotient",
    "dual_fusion_consistency",
]


def block_characters(alg: FdAlgebra) -> np.ndarray:
    """chi[a, i] = chi_i(b_a): block characters over the matrix-unit basis."""
    chi = np.zeros((alg.dim, alg.nblocks), dtype=complex)
    diag = alg.basis_row == alg.basis_col
    chi[np.arange(alg.dim)[diag], alg.basis_block[diag]] = 1.0
    return chi


def _character_coordinates(chi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of v (or of its columns) over the block
    characters chi, disjoint 0/1 columns: each is a sum of v over the
    diagonal units of a block divided by their number."""
    return (chi / chi.sum(axis=0)).T @ v


def counital_character(w: WeakKac) -> np.ndarray:
    """Character of the counital representation, chi_eps = eps o mu o Delta."""
    i, j, k, v = w.coproduct
    return _bincount(i, v * w.eps_mult[j, k], w.dim)  # eps(b_j b_k) over the terms of Delta(b_i)


def _support_multiplicities(w: WeakKac):
    """Multiplicity vector of chi_eps over the block characters, its residual
    and the counital support (blocks of nonzero rounded multiplicity),
    computed once per algebra."""

    def solve():
        chi = block_characters(w.algebra)
        target = counital_character(w)
        nu = _character_coordinates(chi, target)
        support = tuple(int(i) for i in np.nonzero(np.round(np.real(nu)).astype(int))[0])
        return nu, max_abs(chi @ nu - target), support

    return w.memo(("support_multiplicities",), solve)


@dataclass
class CounitalRepresentation:
    """GNS representation of the counit on the target Cartan subalgebra.

    basis: orthonormal coefficient columns spanning N_t; gram[r, s] =
    eps(y_r* y_s) is the GNS scalar product; matrices[a] represents basis
    element a on those coordinates; support lists the blocks of M whose
    irreducible representations constitute pi_eps (each once).
    """

    basis: np.ndarray
    gram: np.ndarray
    matrices: np.ndarray
    character: np.ndarray
    support: tuple
    multiplicities: np.ndarray


def counital_representation(w: WeakKac, tol=None):
    """Build pi_eps explicitly and verify its textbook properties.

    Returns (CounitalRepresentation, report).  pi_eps(b_a) is read off
    eps_t(b_a y_s), the products of b_a with the basis y_s of N_t joined
    with the nonzeros of eps_t.  Checks: the GNS form is positive definite
    on N_t (else GramDegenerate), pi_eps is a unital *-representation, its
    multiplicativity tested on the generators of M against every basis
    element, its character matches eps o mu o Delta, the
    multiplicities of its irreducible constituents are 0/1, the
    constituents are self-conjugate, and their dimensions sum to dim N_t.
    """
    tol = as_tol(tol)
    alg = w.algebra
    rep = VerificationReport("counital representation", tol)

    _, nt, _, _ = _cartan_spans(w, tol)
    b = nt.basis
    k = nt.dim
    gram = alg.star(b).T @ w.eps_mult @ b
    herm = max_abs(gram - dagger(gram))
    gram = (gram + dagger(gram)) / 2
    ok, min_eig = positive_definite(gram, tol)
    if herm > 100 * tol.abs_tol or not ok:
        raise GramDegenerate(
            f"counit is not faithful positive on N_t"
            f" (hermiticity {herm:.2e}, min eigenvalue {min_eig:.2e})"
        )

    # pis[a] = b^H eps_t L_a b from images[c, (a, s)] = eps_t(b_a y_s), the
    # products of the basis with the y_s joined with eps_t, for one range of
    # a at a time holding ~2^18 entries
    d = alg.dim
    step = max(1, 2 ** 18 // max(1, d * k))
    pis, landed, eye = np.empty((d, k, k), dtype=complex), 0.0, np.eye(d)
    for lo in range(0, d, step):
        width = min(step, d - lo)
        a, s, c, v = _contract(alg.product_terms(eye[:, lo : lo + width], b), w.eps_t_table, 2)
        images = _bincount((c * width + a) * k + s, v, d * width * k).reshape(d, -1)
        coords = dagger(b) @ images
        images -= b @ coords
        landed = max(landed, max_abs(images))
        pis[lo : lo + width] = coords.reshape(k, -1, k).transpose(1, 0, 2)
    rep.add("action_lands_in_cartan", landed)
    rep.add("unital", max_abs(np.tensordot(alg.unit, pis, (0, 0)) - np.eye(k)))
    # pi(x b_j) = pi(x) pi(b_j) for the generators x of M and every basis
    # element b_j: the x with pi(x y) = pi(x) pi(y) for all y form a
    # subalgebra once pi is unital, so it is all of M
    gens = np.stack(_generators(alg), axis=1)
    i, j, m, v = alg.product_terms(gens, eye)
    lhs = np.zeros((gens.shape[1], d, k, k), dtype=complex)
    np.add.at(lhs, (i, j), v[:, None, None] * pis[m])
    rep.add("multiplicative", max_abs(lhs - np.tensordot(gens, pis, (0, 0))[:, None] @ pis))
    star_lhs = pis[alg.star_index]
    star_rhs = np.linalg.solve(gram, np.einsum("asr,sm->arm", np.conj(pis), gram))
    rep.add("star_representation", max_abs(star_lhs - star_rhs))

    character = counital_character(w)
    rep.add("character_formula", max_abs(np.einsum("arr->a", pis) - character))

    nu, residual, support = _support_multiplicities(w)
    rep.add("character_decomposes_over_blocks", residual)
    nu_int = np.round(np.real(nu)).astype(int)
    rep.add("multiplicities_integral", max_abs(nu - nu_int))
    rep.add_flag(
        "multiplicity_free",
        bool(np.all((nu_int == 0) | (nu_int == 1))),
        note=f"multiplicities {nu_int.tolist()}",
    )
    dims = [int(alg.block_shape[i]) for i in support]
    rep.add_flag(
        "support_dimensions_sum_to_cartan",
        sum(dims) == k,
        note=f"blocks {support} with dims {dims}, dim N_t = {k}",
    )
    chi = block_characters(alg)
    conj_chi = w.antipode.T @ chi
    self_conj = max((float(max_abs(conj_chi[:, i] - chi[:, i])) for i in support), default=0.0)
    rep.add("support_blocks_self_conjugate", self_conj)

    data = CounitalRepresentation(b, gram, pis, character, support, nu_int)
    return data, rep


@dataclass
class FusionRing:
    """Integer fusion table of the representation ring.

    table[i, j, k] is the multiplicity of block k in the product of the
    irreducible representations of blocks i and j; support lists the
    constituents of the unit pi_eps; involution is the permutation
    rho -> rho* induced by chi -> chi o S.
    """

    table: np.ndarray
    support: tuple
    involution: tuple
    characters: np.ndarray

    @property
    def nblocks(self) -> int:
        return self.table.shape[0]


def fusion_ring(w: WeakKac, tol=None):
    """Fusion table N_ij^k of the representation ring, with verification.

    Products are decomposed in character coordinates: the character of
    pi_i x pi_j is (chi_i (x) chi_j) o Delta, expanded over the block
    characters.  Raises NonIntegralMultiplicity when the decomposition is
    not a nonnegative integer table within 1000 abs_tol.  Returns
    (FusionRing, report) with checks: decomposition residual,
    associativity, pi_eps two-sided unit and involution anti-automorphism.
    The decomposition of chi_eps over the support characters is checked
    by counital_representation, which derives the support.
    """
    tol = as_tol(tol)
    alg = w.algebra
    rep = VerificationReport("fusion ring", tol)
    chi = block_characters(alg)
    nblocks = alg.nblocks

    v = np.einsum("amj,mi->aij", w.pair_leg(chi, 1), chi)
    coeffs = _character_coordinates(chi, v.reshape(alg.dim, -1))
    residual = max_abs(chi @ coeffs - v.reshape(alg.dim, -1))
    rep.add("character_decomposition", residual)
    n_float = coeffs.reshape(nblocks, nblocks, nblocks).transpose(1, 2, 0)
    table = np.round(np.real(n_float)).astype(int)
    drift = max_abs(n_float - table)
    if not drift <= 1000 * tol.abs_tol or np.any(table < 0):  # a NaN drift raises too
        raise NonIntegralMultiplicity(
            f"fusion multiplicities are not nonnegative integers (drift {drift:.2e})"
        )

    conj_chi = w.antipode.T @ chi
    dists = np.abs(conj_chi[:, :, None] - chi[:, None, :]).max(axis=0)  # [i, k]
    involution = [int(k) for k in dists.argmin(axis=1)]
    invol_res = float(dists.min(axis=1).max())
    rep.add("involution_permutes_characters", invol_res)
    rep.add_flag(
        "involution_is_involution",
        all(involution[involution[i]] == i for i in range(nblocks)),
        note=f"involution {involution}",
    )
    inv = np.asarray(involution)
    rep.add_flag(
        "involution_antiautomorphism",
        bool(np.array_equal(table, table[np.ix_(inv, inv)].transpose(1, 0, 2)[:, :, inv])),
    )

    rep.add_flag("associative", _associative(table))

    *_, support = _support_multiplicities(w)
    unit_rows = table[list(support)].sum(axis=0) if support else np.zeros((nblocks, nblocks), int)
    unit_cols = table[:, list(support)].sum(axis=1) if support else np.zeros((nblocks, nblocks), int)
    eye = np.eye(nblocks, dtype=int)
    rep.add_flag("unit_left", bool(np.array_equal(unit_rows, eye)))
    rep.add_flag("unit_right", bool(np.array_equal(unit_cols, eye)))

    return FusionRing(table, support, tuple(involution), chi), rep


def _associative(table: np.ndarray) -> bool:
    """sum_m N_ij^m N_mk^l = sum_m N_jk^m N_im^l, one i at a time; exact in
    float64 while the sums stay below 2^53, and in int64 past that."""
    n = table.shape[0]
    table = table.astype(float if n * int(table.max(initial=0)) ** 2 < 2**53 else np.int64)
    wide, tall = table.reshape(n, n * n), table.reshape(n * n, n)
    return all(np.array_equal(t @ wide, (tall @ t).reshape(n, n * n)) for t in table)


def counital_quotient(w: WeakKac, tol=None):
    """Minimal quotient weak Kac algebra carried by the counital support.

    Compression to P_eps = sum of the support blocks is a surjective
    morphism of weak Kac algebras.  Returns (quotient, pi, report) where
    pi is the compression matrix; the report verifies the morphism and
    the quotient's axioms.  The residual of the support is reported by
    counital_representation.  Raises GramDegenerate when the support is
    empty: pi_eps is then zero, so the GNS form on N_t is degenerate.
    """
    tol = as_tol(tol)
    *_, support = _support_multiplicities(w)
    if not support:
        raise GramDegenerate("counital support is empty: chi_eps has no constituent")
    wq, pi = restrict_to_blocks(w, support)
    rep = VerificationReport("counital quotient", tol)
    rep.extend(check_morphism(w, wq, pi, tol), prefix="morphism.")
    rep.extend(verify_weak_kac(wq, tol), prefix="quotient.")
    return wq, pi, rep


def dual_fusion_consistency(w: WeakKac, tol=None) -> VerificationReport:
    """Cross-check the dual's fusion table against the primal product.

    The block characters of the dual algebra are functionals on it, i.e.
    elements of the primal algebra through the pairing; the fusion rule
    chi_i x chi_j = sum_k N_ij^k chi_k is then literally a product
    decomposition in M.  Verifies that the concrete fusion table of
    dual(w) equals the decomposition of those element products.
    """
    tol = as_tol(tol)
    from .duality import dual  # deferred: duality builds on haar, not on fusion

    rep = VerificationReport("dual fusion consistency", tol)
    dw = dual(w, tol)
    ring, ring_rep = fusion_ring(dw, tol)
    rep.extend(ring_rep, prefix="dual.")

    chi_hat = block_characters(dw.algebra)
    carried = dw.meta["to_canonical"].T @ chi_hat  # columns: elements of M
    nb = dw.algebra.nblocks
    alg = w.algebra
    prods = alg.product_stack(carried, carried).transpose(1, 2, 0)  # [i, j, coeff]
    # carried = T^T chi_hat with T = to_canonical and T^-1 = from_canonical:
    # the products are decomposed in the dual's canonical coordinates
    to_dual = dw.meta["from_canonical"].T
    coeffs = _character_coordinates(chi_hat, to_dual @ prods.reshape(-1, alg.dim).T)
    lam = coeffs.T.reshape(nb, nb, nb)
    rep.add(
        "products_decompose_over_characters",
        max_abs(np.einsum("ijk,ak->ija", lam, carried) - prods),
    )
    rep.add("matches_dual_fusion_table", max_abs(lam - ring.table))
    return rep

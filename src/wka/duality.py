"""Dual weak Kac algebra and the Haar-trace route back to a counit.

The dual of a weak Kac algebra W = (M, Delta, S, eps) lives on the linear
dual M^ with multiplication (alpha beta)(x) = (alpha (x) beta)(Delta x),
unit eps, coproduct dual to the product, antipode transpose to S and
involution alpha*(x) = conj(alpha(S(x)*)).  In the coefficient conventions
used here (elements as coordinate vectors over a fixed basis, the dual
basis indexed by the same labels) every dual structure tensor is an axis
permutation of a primal one, and the dual Haar trace is evaluation at the
primal Haar projection.  `dual` realizes this abstract presentation
concretely as block matrices and keeps the change of basis in `meta`, so
the pairing between the dual and its primal stays available; `check_pairing`
verifies all of the defining identities through that pairing, the two in
M (x) M as joins over the nonzeros.

The reverse direction starts from a generalized Kac algebra (M, Delta, S)
with a normalized Haar trace phi and no counit: the convolution algebra
carried by M^ then has a unit, and evaluating it recovers the counit.
For phi faithful its unit conditions are the counit equations, which fix
eps from Delta alone: `convolution_unit`, `counit_from_haar` and
`generalized_to_weak` solve them per connected component of their columns.
`biduality_isomorphism` exhibits the canonical isomorphism of a weak Kac
algebra with its double dual.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import AlgElement, FdAlgebra, Functional, StarAlgebraData, wedderburn_realize
from .constructors import Groupoid, groupoid_algebra, groupoid_function_algebra, transported_weak_kac
from .errors import NotCounital, NoUnit
from .haar import _as_weak_kac, haar_projection, normalized_haar_trace
from .report import VerificationReport
from .tensorkit import Table, _table, as_tol, block_nullspace, max_abs, numerical_rank, solve_by_components
from .weakkac import WeakKac, check_morphism, _cartan_spans, _intertwining_residual

__all__ = [
    "dual",
    "dual_element",
    "dual_functional",
    "check_pairing",
    "biduality_isomorphism",
    "convolution_unit",
    "counit_from_haar",
    "generalized_to_weak",
    "GroupoidDuality",
    "groupoid_dual_isomorphisms",
]


def dual(w: WeakKac, tol=None, seed=None) -> WeakKac:
    """Concrete realization of the dual weak Kac algebra of w.

    Over the dual basis the structure constants are re-indexings of the
    primal ones: with T = w.coproduct and mult the primal product,

        (b^a b^b)_c = T[c, a, b]          unit^ = eps
        Delta^(b^c)  = mult[:, :, c]      counit^ = evaluation at 1
        S^           = S transpose        b^a* = sum_c S[star a, c] b^c

    The GNS form used to split M^ into matrix blocks is the dual Haar
    trace, which is evaluation at the primal Haar projection.  The
    returned algebra carries meta entries `to_canonical`/`from_canonical`
    (abstract dual coordinates <-> concrete block coordinates) and
    `primal_algebra`, so the pairing with w remains computable.  The dual
    holds w's algebra, not w: w memoizes its dual, so a reference back
    would form a cycle that keeps both alive until the cyclic collector
    runs.

    When the dual basis is a principal groupoid basis, as for the duals of
    the cube family, the elementary algebras, the twists and the algebras
    of principal groupoids, wedderburn_realize rescales it: the dual then
    has one coproduct nonzero per nonzero product of w.  Other duals, such
    as those of commutative algebras, take the split into minimal
    projections.  Neither route draws at random, so the dual and the file
    written from it are a function of w and tol; `seed` is accepted for
    callers that pass one and is ignored.

    The dual is built once per (w, tol); later calls return the same
    object.  Raises NotCounital when w has no counit and NotSemisimple
    (from wedderburn_realize) when the dual GNS form fails to be positive
    definite, which signals that w does not satisfy the weak Kac axioms to
    working precision.
    """
    tol = as_tol(tol)
    if w.counit is None:
        raise NotCounital(
            "dual construction needs a counit; recover one with counit_from_haar"
        )
    return w.memo(("dual", tol), lambda: _realize_dual(w, tol))


def _realize_dual(w: WeakKac, tol) -> WeakKac:
    alg = w.algebra
    # b^j b^k = sum_i T[i, j, k] b^i: the coproduct's nonzeros are the triples
    i, j, k, v = w.coproduct
    star_hat = alg.star_columns(w.antipode.T)
    gns = haar_projection(w, tol).coeffs
    data = StarAlgebraData((j, k, i, v), star_hat, w.counit, gns)
    realization = wedderburn_realize(data, tol)
    meta = {"kind": "dual", "primal_algebra": w.algebra}
    return transported_weak_kac(realization, _transposed_product(alg), w.antipode.T, alg.unit, meta)


def _transposed_product(alg: FdAlgebra) -> tuple:
    """The transposed product Delta^(b^m) = sum over b_p b_q = b_m of b^p (x) b^q."""
    p, q, m = alg.products
    return m, p, q, np.ones(m.size)


def dual_functional(dw: WeakKac, element) -> Functional:
    """The linear functional on the primal algebra represented by a concrete
    element of the dual."""
    if "primal_algebra" not in dw.meta:
        raise KeyError("not a dual-constructed algebra: meta lacks 'primal_algebra'")
    coeffs = element.coeffs if isinstance(element, AlgElement) else np.asarray(element)
    return Functional(dw.meta["primal_algebra"], dw.meta["from_canonical"] @ coeffs)


def dual_element(dw: WeakKac, functional) -> AlgElement:
    """The concrete dual element representing a linear functional on the
    primal algebra."""
    vec = functional.vec if isinstance(functional, Functional) else np.asarray(functional)
    return AlgElement(dw.algebra, dw.meta["to_canonical"] @ vec)


def check_pairing(w: WeakKac, dw: WeakKac, tol=None) -> VerificationReport:
    """Verify every dual structure map against the pairing with the primal.

    Checks, for all basis elements: <Delta^ alpha, x (x) y> = <alpha, xy>,
    <alpha beta, x> = <alpha (x) beta, Delta x>, <S^ alpha, x> = <alpha, Sx>,
    <alpha*, x> = conj <alpha, S(x)*>, counit^ = evaluation at 1, unit^ = eps,
    that the Cartan dimensions swap sides, and that the Haar structures
    trade places: the primal Haar trace is the dual Haar projection and the
    dual Haar trace is evaluation at the primal Haar projection.
    """
    tol = as_tol(tol)
    alg = w.algebra
    rep = VerificationReport("pairing with the dual", tol)
    f = dw.meta["from_canonical"]  # F[p, i] = <e_i, b_p> for the concrete dual basis e_i

    # F carries the dual coproduct onto the transposed product of M, and F^T
    # the coproduct of M onto the transposed product of the dual
    residual = _intertwining_residual(dw.coproduct, _transposed_product(alg), _table(f))
    rep.add("coproduct_pairs_with_product", residual)
    residual = _intertwining_residual(w.coproduct, _transposed_product(dw.algebra), _table(f.T))
    rep.add("product_pairs_with_coproduct", residual)

    rep.add("antipode_transposes", max_abs(f @ dw.antipode - w.antipode.T @ f))
    rep.add(
        "star_conjugates",
        max_abs(dw.algebra.star_columns(f) - alg.star_columns(w.antipode.T) @ np.conj(f)),
    )
    rep.add("counit_evaluates_at_unit", max_abs(dw.counit - alg.unit @ f))
    rep.add("unit_pairs_as_counit", max_abs(f @ dw.algebra.unit - w.counit))

    ns_w, nt_w, _, _ = _cartan_spans(w, tol)
    ns_d, nt_d, _, _ = _cartan_spans(dw, tol)
    rep.add_flag(
        "cartan_dimensions_swap",
        ns_d.dim == nt_w.dim and nt_d.dim == ns_w.dim,
        note=f"dual (N_s, N_t) dims ({ns_d.dim}, {nt_d.dim}) vs primal ({ns_w.dim}, {nt_w.dim})",
    )

    p = haar_projection(w, tol)
    phi_hat = normalized_haar_trace(dw, tol)
    rep.add(
        "dual_haar_trace_evaluates_at_projection",
        max_abs(dw.meta["to_canonical"].T @ phi_hat.vec - p.coeffs),
    )
    phi = normalized_haar_trace(w, tol)
    p_hat = haar_projection(dw, tol)
    rep.add("haar_trace_is_dual_haar_projection", max_abs(f @ p_hat.coeffs - phi.vec))
    return rep


def biduality_isomorphism(w: WeakKac, tol=None):
    """Canonical isomorphism of w onto its double dual.

    Evaluation at x defines a functional on the dual; expressed in the
    double dual's concrete coordinates this is the matrix

        iota = (to_canonical of dual(dual w)) @ (from_canonical of dual w)^T.

    Returns (iota, double_dual, report) where the report runs the full
    morphism check plus bijectivity.
    """
    tol = as_tol(tol)
    dw = dual(w, tol)
    ddw = dual(dw, tol)
    iota = ddw.meta["to_canonical"] @ dw.meta["from_canonical"].T
    rep = check_morphism(w, ddw, iota, tol)
    rank = numerical_rank(iota, tol)
    rep.add_flag(
        "bijective",
        rank == w.dim and ddw.dim == w.dim,
        note=f"rank {rank} of {w.dim}, double dual dim {ddw.dim}",
    )
    return iota, ddw, rep


# ---------------------------------------------------------------------------
# recovering the counit of a generalized Kac algebra from its Haar trace
# ---------------------------------------------------------------------------


def _convolution_unit(data, phi: Functional, tol):
    """(w, u, v): the algebra of data, the values v_a = 1^(b_a) of the unit
    of its dual convolution algebra, and u = Phi^-1 v (Phi[a, b] =
    phi(b_a b_b)), the element of M that represents it through phi.

    For phi faithful the unit conditions sum_{c,d} T[a,c,d] v_c Phi[d,j] =
    Phi[a,j] and their mirror are the counit equations (v (x) id) Delta =
    id = (id (x) v) Delta (Boehm-Nill-Szlachanyi), rows (a, k) and (a, j)
    with one entry per nonzero of the coproduct in each half.  Raises NoUnit
    when phi is not faithful, when the equations are inconsistent or
    underdetermined, or when u is not S- and *-fixed."""
    tol, w = as_tol(tol), _as_weak_kac(data)
    if any(null.shape[1] for null in block_nullspace(phi.gram_blocks(), tol)):
        raise NoUnit("the trace is not faithful: its Gram matrix is singular")
    d, (i, j, k, t) = w.dim, w.coproduct
    # rows (half, a, b), every diagonal one among them, with right side [a = b]
    diagonal = np.arange(d) * (d + 1)
    keys = np.concatenate([i * d + k, d * d + i * d + j, diagonal, d * d + diagonal])
    rows, row = np.unique(keys, return_inverse=True)
    row, col = row[: 2 * t.size], np.concatenate([j, k])
    order = np.lexsort((row, col))
    table = Table(col[order], row[order], np.tile(t, 2)[order], (rows.size, d))
    space = solve_by_components(table, (rows % (d * d) % (d + 1) == 0).astype(float), tol)
    if space.residual > 10.0 * tol.abs_tol:
        raise NoUnit(f"convolution algebra has no unit: counit equations residual {space.residual:.3e}")
    if not space.unique:
        raise NoUnit(f"counit equations underdetermined ({space.null.shape[1]} free directions)")
    u = np.linalg.solve(phi.pairing(), space.particular)
    res = max(max_abs(w.antipode @ u - u), max_abs(w.algebra.star(u) - u))
    if res > 100 * tol.abs_tol:
        raise NoUnit(f"convolution unit is not S- and *-fixed (residual {res:.2e})")
    return w, u, space.particular


def convolution_unit(data, phi: Functional, tol=None) -> AlgElement:
    """Element of M representing the unit of the dual convolution algebra
    through the trace phi, i.e. phi(u b_a) = 1^(b_a) for all a.  The input
    may be a WeakKac or an (algebra, coproduct, antipode) triple."""
    w, u, _ = _convolution_unit(data, phi, tol)
    return AlgElement(w.algebra, u)


def counit_from_haar(data, phi: Functional, tol=None) -> Functional:
    """Counit of a generalized Kac algebra, recovered as the unit of the
    dual convolution algebra.  phi must be the normalized Haar trace."""
    w, _, v = _convolution_unit(data, phi, tol)
    return Functional(w.algebra, v)


def generalized_to_weak(data, phi: Functional, tol=None) -> WeakKac:
    """Promote a generalized Kac algebra (M, Delta, S) with normalized Haar
    trace phi to a weak Kac algebra by recovering its counit."""
    w, _, eps = _convolution_unit(data, phi, tol)
    return WeakKac(w.algebra, w.coproduct, w.antipode, eps, {**w.meta, "recovered_counit": True})


# ---------------------------------------------------------------------------
# the two weak Kac algebras of a groupoid are each other's duals
# ---------------------------------------------------------------------------


@dataclass
class GroupoidDuality:
    """Natural isomorphisms dual(CG) -> C(G) and dual(C(G)) -> CG.

    convolution / functions are the groupoid algebra and function algebra;
    to_functions and to_convolution are concrete morphism matrices out of
    their duals, verified in report under the prefixes `functions.` and
    `convolution.`.
    """

    convolution: WeakKac
    functions: WeakKac
    dual_of_convolution: WeakKac
    dual_of_functions: WeakKac
    to_functions: np.ndarray
    to_convolution: np.ndarray
    report: VerificationReport


def groupoid_dual_isomorphisms(gpd: Groupoid, tol=None) -> GroupoidDuality:
    """Realize the duality between the groupoid algebra and the function
    algebra of a finite groupoid.

    The pairing <delta^g, h> = [g = h] identifies the abstract dual basis
    of CG with the indicator basis of C(G) and vice versa; composing the
    stored changes of basis gives concrete isomorphism matrices, which are
    then verified as weak Kac isomorphisms.
    """
    tol = as_tol(tol)
    wg = groupoid_algebra(gpd, tol)
    wf = groupoid_function_algebra(gpd)
    dwg = dual(wg, tol)
    dwf = dual(wf, tol)
    # the function algebra is built directly on its canonical basis, so its
    # change of basis defaults to the identity
    wg_can = wg.meta.get("to_canonical", np.eye(wg.dim))
    wf_can = wf.meta.get("to_canonical", np.eye(wf.dim))
    to_functions = wf_can @ wg_can.T @ dwg.meta["from_canonical"]
    to_convolution = wg_can @ wf_can.T @ dwf.meta["from_canonical"]
    rep = VerificationReport("groupoid duality", as_tol(tol))
    rep.extend(check_morphism(dwg, wf, to_functions, tol), prefix="functions.")
    rep.extend(check_morphism(dwf, wg, to_convolution, tol), prefix="convolution.")
    for name, mat in (("functions", to_functions), ("convolution", to_convolution)):
        rep.add_flag(
            f"{name}.bijective",
            numerical_rank(mat, tol) == mat.shape[0] == mat.shape[1],
        )
    return GroupoidDuality(wg, wf, dwg, dwf, to_functions, to_convolution, rep)

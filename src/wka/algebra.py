"""Finite-dimensional C*-algebras as explicit block matrix-unit algebras.

An FdAlgebra is a direct sum of full matrix blocks M_{d_1} (+) ... (+) M_{d_K}
with its canonical basis of matrix units e^{(i)}_{kl}.  Elements are
coefficient vectors over that basis; the algebra also carries a faithful
concrete realization as block-diagonal N x N matrices (N = sum d_i) which
makes products, involution and tensor-square products cheap and exact.

The product of both kinds of algebra is held one way, as its nonzero
triples: b_p b_q = b_m for FdAlgebra.products, and b_p b_q = sum of v b_m
for the (p, q, m, v) of an abstract presentation (StarAlgebraData: product
triples + involution + unit + a positive GNS functional).
wedderburn_realize brings a presentation to the canonical form.  A
principal groupoid basis is rescaled into matrix units, a monomial change
of basis; any other basis is split on the GNS space: the left
multiplications are represented there, the matrix units are found among
those operators, and an operator is pulled back to abstract coordinates
through the cyclic vector of the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    NotSemisimple,
    NotStarClosed,
    WkaError,
)
from .report import VerificationReport
from .tensorkit import (
    Tolerance,
    _bincount,
    _coassociativity_dense,
    _coassociativity_join,
    _contract,
    _prefer_join,
    _residual,
    _table,
    as_tol,
    block_nullspace,
    block_positive_definite,
    dagger,
    difference_max_abs,
    eigenspaces,
    max_abs,
    numerical_rank,
    orthonormal_columns,
    positive_definite,
    subspace_contains,
)

__all__ = [
    "FdAlgebra",
    "AlgElement",
    "Functional",
    "SubalgebraBasis",
    "StarAlgebraData",
    "WedderburnRealization",
    "make_algebra",
    "regular_trace",
    "block_trace",
    "commutant",
    "center",
    "minimal_central_projections",
    "wedderburn_realize",
    "check_conditional_expectation",
]


class FdAlgebra:
    """Block matrix-unit algebra with basis e^{(i)}_{kl}.

    Basis order: blocks in order, rows before columns within a block, so
    index(i, k, l) = offset_i + k * d_i + l with 0-based k, l.  Its arrays
    are read-only, so make_algebra can share one instance per block shape.
    """

    def __init__(self, block_shape):
        shape = tuple(int(d) for d in block_shape)
        if not shape or any(d < 1 for d in shape):
            raise ValueError(f"invalid block shape {shape}")
        self.block_shape = shape
        self.nblocks = len(shape)
        self.dim = int(sum(d * d for d in shape))
        self.matrix_size = int(sum(shape))  # N of the concrete realization
        self.basis_offsets = np.cumsum([0] + [d * d for d in shape])[:-1]
        self.row_offsets = np.cumsum([0] + list(shape))[:-1]

        blocks, rows, cols, labels = [], [], [], []
        for i, d in enumerate(shape):
            for k in range(d):
                for l in range(d):
                    blocks.append(i)
                    rows.append(self.row_offsets[i] + k)
                    cols.append(self.row_offsets[i] + l)
                    labels.append(f"e{i + 1}[{k + 1},{l + 1}]")
        self.basis_block = np.array(blocks)
        self.basis_row = np.array(rows)
        self.basis_col = np.array(cols)
        self.labels = tuple(labels)

        # unit_index[r, c]: basis index of the matrix unit at (r, c), or -1
        n = self.matrix_size
        self.unit_index = np.full((n, n), -1)
        self.unit_index[rows, cols] = np.arange(self.dim)
        # b_a b_b is the unit at (row a, col b) when col a = row b
        meet = self.basis_col[:, None] == self.basis_row[None, :]
        self._prod = np.where(meet, self.unit_index[np.ix_(self.basis_row, self.basis_col)], -1)
        # the nonzero products b_p b_q = b_m, in row-major (p, q) order
        p, q = np.nonzero(self._prod >= 0)
        self.products = tuple(_read_only(a) for a in (p, q, self._prod[p, q]))
        # involution permutes matrix units: (e^{(i)}_{kl})* = e^{(i)}_{lk}
        self.star_index = self.unit_index[self.basis_col, self.basis_row]
        self.star_matrix = np.zeros((self.dim, self.dim))
        self.star_matrix[self.star_index, np.arange(self.dim)] = 1.0
        self.unit = np.zeros(self.dim, dtype=complex)
        self.unit[self.basis_row == self.basis_col] = 1.0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                _read_only(value)

    # -- canonical structure data -------------------------------------

    @cached_property
    def size_classes(self) -> tuple:
        """(n, blocks, units) per block size n, ascending: the blocks of
        that size and the indices of their matrix units."""
        sizes = np.asarray(self.block_shape)
        return tuple(
            (n, *(_read_only(np.flatnonzero(s == n)) for s in (sizes, sizes[self.basis_block])))
            for n in sorted(set(self.block_shape))
        )

    @cached_property
    def block_order(self) -> np.ndarray:
        """The blocks by size, then by index: the order of block_stacks."""
        return _read_only(np.concatenate([blocks for _, blocks, _ in self.size_classes]))

    @property
    def prod_table(self) -> np.ndarray:
        """prod_table[a, b] = basis index of b_a b_b, or -1 when zero."""
        return self._prod

    # -- conversions ----------------------------------------------------

    def to_matrix(self, coeffs) -> np.ndarray:
        x = np.zeros((self.matrix_size, self.matrix_size), dtype=complex)
        x[self.basis_row, self.basis_col] = np.asarray(coeffs, dtype=complex)
        return x

    def from_matrix(self, mat) -> np.ndarray:
        return np.asarray(mat, dtype=complex)[self.basis_row, self.basis_col]

    def to_matrix2(self, coeff_matrix) -> np.ndarray:
        """Concrete N^2 x N^2 matrix of an element of M (x) M."""
        n = self.matrix_size
        x4 = np.zeros((n, n, n, n), dtype=complex)
        r, c = self.basis_row, self.basis_col
        x4[r[:, None], r[None, :], c[:, None], c[None, :]] = np.asarray(
            coeff_matrix, dtype=complex
        )
        return x4.reshape(n * n, n * n)

    def from_matrix2(self, mat2) -> np.ndarray:
        n = self.matrix_size
        x4 = np.asarray(mat2, dtype=complex).reshape(n, n, n, n)
        r, c = self.basis_row, self.basis_col
        return x4[r[:, None], r[None, :], c[:, None], c[None, :]]

    # -- operations -----------------------------------------------------

    def mul(self, x, y) -> np.ndarray:
        return self.from_matrix(self.to_matrix(x) @ self.to_matrix(y))

    def star(self, coeffs) -> np.ndarray:
        """star_matrix @ conj(coeffs): the star of an element, or of each
        column of a matrix of elements."""
        return np.conj(np.asarray(coeffs, dtype=complex))[self.star_index]

    def star_columns(self, x) -> np.ndarray:
        """x @ star_matrix for a covector or a matrix whose columns follow
        the basis: the star permutes the matrix units, so this permutes
        the columns of x."""
        return np.asarray(x)[..., self.star_index]

    def lmat(self, x) -> np.ndarray:
        """Matrix of left multiplication by x on coefficient vectors; for a
        stack of elements x[..., :] the stack of their matrices.  Dense
        d x d: the checks form products as joins over the product triples
        (product_terms)."""
        x = np.asarray(x, dtype=complex)
        p, q, m = self.products
        out = np.zeros((*x.shape[:-1], self.dim, self.dim), dtype=complex)
        out[..., m, q] = x[..., p]
        return out

    def product_terms(self, x, y):
        """The products x_i y_j of the elements in the columns of x and y as
        a sparse stack (i, j, m, values) with repeated triples: each product
        triple b_p b_q = b_m meets the nonzeros x[p, i] and y[q, j]."""
        p, q, m = self.products
        return _contract(_contract((p, q, m, np.ones(p.size)), _table(x.T), 0), _table(y.T), 1)

    def product_stack(self, x, y) -> np.ndarray:
        """out[m, i, j]: the coefficient of b_m in x_i y_j, product_terms
        summed into a d x k x l array."""
        i, j, m, v = self.product_terms(x, y)
        shape = (self.dim, x.shape[1], y.shape[1])
        return _bincount(np.ravel_multi_index((m, i, j), shape), v, np.prod(shape)).reshape(shape)

    def block_stacks(self, coeffs) -> list:
        """The n_i x n_i blocks of an element, or of each row of a matrix of
        elements coeffs[j, :], as one stack per block size: stack[x] (or
        stack[x, j]) is block x of that size, so that the blocks come in
        block_order."""
        x = np.asarray(coeffs)
        stacks = [x[..., units].reshape(*x.shape[:-1], blocks.size, n, n) for n, blocks, units in self.size_classes]
        return stacks if x.ndim == 1 else [s.swapaxes(0, 1) for s in stacks]

    def block_columns(self, parts) -> np.ndarray:
        """The d x sum(r_i) matrix that holds in the rows of block i the
        n_i^2 x r_i matrix of parts, one per block in block_order: a basis
        given block by block, written over the whole basis."""
        out = np.zeros((self.dim, sum(part.shape[1] for part in parts)), dtype=complex)
        col = 0
        for i, part in zip(self.block_order, parts):
            o = self.basis_offsets[i]
            out[o : o + part.shape[0], col : col + part.shape[1]] = part
            col += part.shape[1]
        return out

    def tensor_blocks(self, c):
        """The parts of an element C of M (x) M, given as its coefficient
        matrix, in the blocks M_{n_i} (x) M_{n_j} of its concrete matrix,
        part[(k, k'), (l, l')] = C[e^i_kl, e^j_k'l']: one (bi, bj, stack) per
        pair of block sizes (n, m), with bi, bj the blocks of those sizes and
        stack[x, y] the nm x nm part of the blocks (bi[x], bj[y])."""
        for n, bi, rows in self.size_classes:
            for m, bj, cols in self.size_classes:
                part = c[np.ix_(rows, cols)].reshape(bi.size, n, n, bj.size, m, m)
                yield bi, bj, part.transpose(0, 3, 1, 4, 2, 5).reshape(bi.size, bj.size, n * m, n * m)

    # -- distinguished elements ------------------------------------------

    def block_identity(self, i: int) -> np.ndarray:
        c = np.zeros(self.dim, dtype=complex)
        sel = (self.basis_block == i) & (self.basis_row == self.basis_col)
        c[sel] = 1.0
        return c

    def matrix_unit_index(self, block: int, k: int, l: int) -> int:
        return int(self.basis_offsets[block] + k * self.block_shape[block] + l)

    def __eq__(self, other):
        return isinstance(other, FdAlgebra) and self.block_shape == other.block_shape

    def __hash__(self):
        return hash(self.block_shape)

    def __repr__(self):
        return f"FdAlgebra{self.block_shape}"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def make_algebra(block_shape) -> FdAlgebra:
    """Canonical matrix-unit algebra with the given block sizes, built once
    per block shape: the algebras of the last 64 shapes are kept."""
    return _canonical_algebra(tuple(int(d) for d in block_shape))


@lru_cache(maxsize=64)
def _canonical_algebra(block_shape: tuple) -> FdAlgebra:
    return FdAlgebra(block_shape)


@dataclass
class AlgElement:
    """Element of an FdAlgebra as a coefficient vector over matrix units."""

    parent: FdAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.parent.dim,):
            raise ValueError("coefficient vector has wrong length")


@dataclass
class Functional:
    """Linear functional on an FdAlgebra, stored as a covector."""

    parent: FdAlgebra
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=complex)

    def __call__(self, x) -> complex:
        coeffs = x.coeffs if isinstance(x, AlgElement) else np.asarray(x, dtype=complex)
        return complex(self.vec @ coeffs)

    def pairing(self) -> np.ndarray:
        """Pairing[a, b] = phi(b_a b_b); symmetric iff phi is tracial."""
        alg = self.parent
        p, q, m = alg.products
        out = np.zeros((alg.dim, alg.dim), dtype=complex)
        out[p, q] = self.vec[m]
        return out

    def gram_blocks(self) -> list:
        """The Gram matrix G[a, b] = phi(b_a* b_b), hermitian PSD iff phi is
        positive, by its blocks: on matrix units G is the direct sum of
        1 (x) Phi_i with Phi_i[l, l'] = phi(e^i_ll'), one stack of the Phi_i
        per block size."""
        return self.parent.block_stacks(self.vec)

    def positive_definite(self, tol=None):
        """(ok, min_eig) of the Gram matrix, from its blocks Phi_i."""
        return block_positive_definite(self.gram_blocks(), tol)

    def is_faithful_positive(self, tol=None) -> bool:
        herm = max(max_abs(g - g.conj().swapaxes(1, 2)) for g in self.gram_blocks())
        return herm <= as_tol(tol).abs_tol * 100 and self.positive_definite(tol)[0]


def regular_trace(alg: FdAlgebra) -> Functional:
    """theta(x) = Tr L_x on the algebra itself; theta(e^{(i)}_{kk}) = d_i."""
    return Functional(alg, regular_trace_of((*alg.products, np.ones(alg.products[0].size)), alg.dim))


def regular_trace_of(products, dim: int) -> np.ndarray:
    """theta[a] = Tr L_{b_a} for product triples (p, q, m, v), that is
    b_p b_q = sum of v b_m: the sum of v over the triples with p = a, q = m."""
    p, q, m, v = products
    return _bincount(p[q == m], v[q == m], dim)


def block_trace(alg: FdAlgebra, weights=None) -> Functional:
    """Sum of block traces; weights (one per block) default to 1."""
    w = np.ones(alg.nblocks) if weights is None else np.asarray(weights, dtype=complex)
    vec = np.where(alg.basis_row == alg.basis_col, w[alg.basis_block], 0.0)
    return Functional(alg, vec.astype(complex))


class SubalgebraBasis:
    """Subspace of an FdAlgebra, stored as orthonormal coefficient columns."""

    def __init__(self, parent: FdAlgebra, vectors, tol=None, orthonormalize=True):
        self.parent = parent
        self.tol = as_tol(tol)
        vs = np.asarray(vectors, dtype=complex)
        if vs.ndim == 1:
            vs = vs[:, None]
        self.basis = orthonormal_columns(vs, self.tol) if orthonormalize else vs

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, vectors) -> float:
        return subspace_contains(self.basis, vectors, self.tol)

    @cached_property
    def products(self) -> np.ndarray:
        """products[m, i, j]: the coefficient of b_m in b_i b_j for the basis
        elements b_i, b_j, computed once per subalgebra."""
        return _read_only(self.parent.product_stack(self.basis, self.basis))

    def closure_residual(self) -> float:
        """Residual of closedness under products, star and containing 1."""
        alg, b = self.parent, self.basis
        prods = self.products.reshape(alg.dim, -1)
        return self.contains(np.concatenate([prods, alg.star(b), alg.unit[:, None]], axis=1))

    def structure_constants(self):
        """(products, star, unit_coords) of the subalgebra in this basis, the
        products as triples (p, q, m, v) with b_p b_q = sum of v b_m.

        Requires the span to be a unital *-subalgebra; products are
        projected onto the span, so use closure_residual() first.
        """
        alg, b = self.parent, self.basis
        bh = dagger(b)
        # lt[p, m, q]: coefficient of b_m in b_p b_q
        lt = np.tensordot(bh, self.products, (1, 0)).transpose(1, 0, 2)
        p, m, q = np.nonzero(lt)
        return (p, q, m, lt[p, m, q]), bh @ alg.star(b), bh @ alg.unit


def commutant(sub: SubalgebraBasis, tol=None) -> SubalgebraBasis:
    """Elements commuting with every generator of the given subspace: the
    null space of the k d x d stack of L_b - R_b over its basis, which on
    matrix units is (+) B_i (x) 1 - 1 (x) B_i^T, solved block by block."""
    alg, b = sub.parent, sub.basis
    blocks = []
    for bs in alg.block_stacks(b.T):  # bs[x, j] = block x of the j-th generator
        eye = np.eye(bs.shape[-1])
        ops = np.einsum("xjkq,lm->xjklqm", bs, eye) - np.einsum("kq,xjml->xjklqm", eye, bs)
        blocks.append(ops.reshape(bs.shape[0], -1, eye.size))
    kernels = block_nullspace(blocks, tol)
    return SubalgebraBasis(alg, alg.block_columns(kernels), tol, orthonormalize=False)


def center(alg: FdAlgebra) -> SubalgebraBasis:
    """Center of the algebra: exact span of the block identities."""
    vecs = np.stack([alg.block_identity(i) for i in range(alg.nblocks)], axis=1)
    return SubalgebraBasis(alg, vecs)


def minimal_central_projections(alg: FdAlgebra) -> list:
    """Block identities P_i, exactly."""
    return [AlgElement(alg, alg.block_identity(i)) for i in range(alg.nblocks)]


# ---------------------------------------------------------------------------
# Wedderburn realization of abstract presentations
# ---------------------------------------------------------------------------


@dataclass
class StarAlgebraData:
    """Abstract *-algebra presentation over a finite basis.

    products: triples (p, q, m, v) as four arrays, with b_p b_q = sum of
              v b_m over the triples of that (p, q); zeros may be left out
    star: matrix of the antilinear involution, (x*)_m = sum_j star[m, j] conj(x_j)
    unit: coefficient vector of 1
    gns:  covector of a positive functional phi with phi(x* x) > 0 for x != 0
    """

    products: tuple
    star: np.ndarray
    unit: np.ndarray
    gns: np.ndarray

    def __post_init__(self):
        *idx, v = self.products
        self.products = (
            *(np.asarray(a, dtype=np.int64) for a in idx),
            np.asarray(v, dtype=complex),
        )
        self.star = np.asarray(self.star, dtype=complex)
        self.unit = np.asarray(self.unit, dtype=complex)
        self.gns = np.asarray(self.gns, dtype=complex)

    @property
    def dim(self) -> int:
        return self.unit.shape[0]


@dataclass
class WedderburnRealization:
    """*-isomorphism from an abstract presentation onto a canonical algebra.

    to_canonical maps abstract coefficient vectors to canonical ones;
    from_canonical is its inverse.
    """

    algebra: FdAlgebra
    to_canonical: np.ndarray
    from_canonical: np.ndarray
    residual: float


def _left_multiplications(data: StarAlgebraData) -> np.ndarray:
    """lt[a]: the matrix of left multiplication by b_a, lt[a, c, b] the
    coefficient of b_c in b_a b_b, repeated triples summed."""
    (a, b, c, v), dim = data.products, data.dim
    return _bincount(np.ravel_multi_index((a, c, b), (dim,) * 3), v, dim**3).reshape(dim, dim, dim)


def _validate_star_algebra(data: StarAlgebraData, tol: Tolerance):
    """Unit, involution and associativity of a presentation on every basis
    pair and triple: by the joins of _presentation_join, or on the table of
    left multiplications (_presentation_dense) where they cost more."""
    dim, eye = data.dim, np.eye(data.dim)
    a, b, c, v = data.products
    # 1 b_b and b_a 1 over the basis: each b_a b_b = v b_c adds v 1[a] at (c, b) and v 1[b] at (c, a)
    sides = [_bincount(c * dim + y, v * data.unit[x], dim * dim) for x, y in ((a, b), (b, a))]
    res_unit = max(max_abs(side - eye.ravel()) for side in sides)
    if res_unit > 100 * tol.abs_tol:
        raise WkaError(f"unit fails by {res_unit:.2e}")
    res_star = max_abs(data.star @ np.conj(data.star) - eye)
    # the sizes of the joins of _presentation_join
    counts, nonzero = np.bincount(c, minlength=dim), data.star != 0
    rows, cols = nonzero.sum(axis=1), nonzero.sum(axis=0)
    join_size = int((counts[a] + counts[b] + cols[c] + rows[a] * rows[b]).sum())
    residuals = _presentation_join if _prefer_join(join_size, dim) else _presentation_dense
    res_anti, res_assoc = residuals(data)
    scale = max(1.0, max_abs(data.products[3]))
    if max(res_star, res_anti) > 1e3 * tol.abs_tol * scale * max(1.0, scale):
        raise NotStarClosed(f"involution fails by {max(res_star, res_anti):.2e}")
    if res_assoc > 1e3 * tol.abs_tol * scale * scale:
        raise WkaError(f"associativity fails by {res_assoc:.2e}")


def _presentation_join(data: StarAlgebraData):
    """(anti-multiplicativity, associativity) residuals over the product
    triples: associativity as the coassociativity of the transposed triples
    (c, a, b), and (b_x b_y)* against b_y* b_x* as the joins of the triples
    with column c of the star and with its rows a and b."""
    a, b, c, v = data.products
    star = _table(data.star)
    y, x, m, w = _contract(_contract(data.products, star.T, 0), star.T, 1)
    anti = _residual(_contract((a, b, c, np.conj(v)), star, 2), (x, y, m, w), data.dim)
    order = c.argsort(kind="stable")
    return anti, _coassociativity_join(tuple(t[order] for t in (c, a, b, v)), data.dim)


def _presentation_dense(data: StarAlgebraData):
    """_presentation_join on the table lt of left multiplications, with
    t[c, a, b] = lt[a, c, b] and (b_x b_y)* over [m, y] one b_x at a time."""
    star, lt = data.star, _left_multiplications(data)
    anti = max(max_abs(star @ np.conj(lt[x]) - (lt @ star[:, x]).T @ star) for x in range(data.dim))
    return anti, _coassociativity_dense(lt.transpose(1, 0, 2))


def wedderburn_realize(data: StarAlgebraData, tol=None) -> WedderburnRealization:
    """Find block sizes and explicit matrix units for an abstract *-algebra.

    Both routes first check the unit, the involution and associativity
    exactly, on every basis pair and triple (_validate_star_algebra), and
    require the GNS form phi(b_a* b_b) of the supplied positive functional
    to be hermitian and positive definite.

    A principal groupoid basis (see _groupoid_matrix_units), such as the
    morphisms of a principal groupoid, the duals of the cube family and of
    the elementary algebras, or a crossed product by a free action, is
    realized by rescaling: every matrix unit is a multiple of one basis
    element, so the map is monomial.  Equal-size blocks are ordered by their
    smallest unit index.

    Any other basis, for example one with isotropy (a group algebra, the
    dual of a commutative algebra), is split: pi(x) = C L_x C^{-1} (C the
    hermitian Cholesky factor of the GNS form) is a faithful
    *-representation.  From the identity on, each projection q is split into
    the eigenspaces of its compression q h q by the first hermitian basis
    part h, (b_a + b_a*)/2 or (b_a - b_a*)/2i, that is not scalar there,
    until every projection is minimal.  Minimal projections q_0, q_k lie in
    one block when some q_0 b_a q_k is nonzero; the first such one,
    polar-normalized, is the partial isometry u_k, and the matrix units are
    u_k* u_l.  Blocks are ordered by size, then by the order in which they
    were found.  Operators are pulled back through the cyclic vector C 1,
    since pi(x) C 1 = C x.  Nothing is drawn at random, so the realization
    is a function of the presentation and the tolerance.

    On both routes the transported product, involution and unit must match
    the canonical ones.  Raises NotSemisimple when the GNS form is
    degenerate and NotStarClosed when the involution axioms fail.
    """
    tol = as_tol(tol)
    dim = data.dim
    a, b, c, val = data.products
    _validate_star_algebra(data, tol)

    # gram[a, b] = phi(b_a* b_b) with b_a* = sum_c star[c, a] b_c
    pairing = np.zeros((dim, dim), dtype=complex)
    np.add.at(pairing, (a, b), val * data.gns[c])
    gram = data.star.T @ pairing
    herm_res = max_abs(gram - dagger(gram))
    if herm_res > 100 * tol.abs_tol * max(1.0, max_abs(gram)):
        raise NotSemisimple(f"GNS form not hermitian (residual {herm_res:.2e})")
    gram = (gram + dagger(gram)) / 2
    ok, min_eig = positive_definite(gram, tol)
    if not ok:
        raise NotSemisimple(f"GNS form degenerate (min eigenvalue {min_eig:.2e})")

    # the groupoid route is monomial, so only the split route reads the
    # table lt[a] of the left multiplications by b_a
    found, lt = _groupoid_matrix_units(data), None
    if found is None:
        lt = _left_multiplications(data)
    target, wmat, winv = found or _split_matrix_units(data, lt, gram, tol)
    residual = _realization_residual(data, lt, target, wmat, winv)
    if residual > 100 * tol.abs_tol:
        raise WkaError(f"realization round-trip residual {residual:.2e}")
    return WedderburnRealization(
        algebra=target, to_canonical=winv, from_canonical=wmat, residual=residual
    )


def _groupoid_matrix_units(data: StarAlgebraData):
    """(algebra, wmat, winv) of the rescaled basis when the basis of data is
    a principal groupoid basis, else None; O(nnz) in the product triples.

    The basis is one when each product b_p b_q is a multiple of one basis
    element or zero, the star maps each b_x to a multiple s_x b_sigma(x),
    and the units (the u with b_u b_u = c_u b_u) give each x exactly one
    target t (b_t b_x ~ b_x) and one source s (b_x b_s ~ b_x), with
    (t, s) determining x and each class of units complete: the class sizes
    squared sum to the dimension.  The products and the star must follow
    the pair groupoid of each class, (t, s)(s, r) = (t, r) and
    (t, s)* ~ (s, t), and every composable pair must multiply to nonzero.

    With r the smallest unit of its class, b_x* b_x = k_x b_s / c_s and
    e_ur = b_x / sqrt(k_x) for the x from u to r; then e_uv = e_ur e_vr*.
    """
    dim = data.dim
    p, q, m, v = data.products
    key, inv = np.unique((p * dim + q) * dim + m, return_inverse=True)
    val = _bincount(inv, v, key.size)
    key, val = key[val != 0], val[val != 0]
    pq, m = np.divmod(key, dim)
    if np.any(pq[1:] == pq[:-1]):
        return None
    p, q = np.divmod(pq, dim)
    sigma = np.argmax(data.star != 0, axis=0)
    s = data.star[sigma, np.arange(dim)]
    if np.count_nonzero(data.star) != dim or not s.all():
        return None

    is_unit = np.zeros(dim, dtype=bool)
    is_unit[p[(p == q) & (q == m)]] = True
    left, right = is_unit[p] & (m == q), is_unit[q] & (m == p)
    once = np.ones(dim, dtype=np.int64)
    if not (
        np.array_equal(np.bincount(q[left], minlength=dim), once)
        and np.array_equal(np.bincount(p[right], minlength=dim), once)
    ):
        return None
    target, source = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
    target[q[left]], source[p[right]] = p[left], q[right]
    pair = target * dim + source
    root = np.full(dim, dim)
    np.minimum.at(root, target, source)
    roots, sizes = np.unique(root[is_unit], return_counts=True)
    if not (
        np.all(np.diff(np.sort(pair)) != 0)
        and np.array_equal(root[target], root[source])
        and (sizes**2).sum() == dim
        and (sizes**3).sum() == p.size
        and np.array_equal(source[p], target[q])
        and np.array_equal(pair[m], target[p] * dim + source[q])
        and np.array_equal(pair[sigma], source * dim + target)
    ):
        return None

    x_of = np.empty(dim * dim, dtype=np.int64)
    x_of[pair] = np.arange(dim)
    at = np.empty(dim * dim, dtype=np.int64)
    at[p * dim + q] = np.arange(p.size)

    def coeff(x, y):  # b_x b_y = coeff(x, y) b_z, for composable x, y
        return val[at[x * dim + y]]

    sqrt_k = np.sqrt(s * coeff(sigma, np.arange(dim)) * coeff(source, source))
    to_root = x_of[target * dim + root[target]]
    from_root = x_of[source * dim + root[source]]
    scale = (
        s[from_root] * coeff(to_root, sigma[from_root])
        / (sqrt_k[to_root] * np.conj(sqrt_k[from_root]))
    )

    order = np.lexsort((roots, sizes))
    offsets = np.cumsum([0, *(sizes[order] ** 2)])
    block, pos = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
    for i, r in enumerate(roots[order]):
        members = np.flatnonzero(is_unit & (root == r))
        block[members], pos[members] = i, np.arange(members.size)
    size = sizes[order][block[target]]
    canon = offsets[block[target]] + pos[target] * size + pos[source]
    wmat = np.zeros((dim, dim), dtype=complex)
    winv = np.zeros((dim, dim), dtype=complex)
    wmat[np.arange(dim), canon] = scale
    winv[canon, np.arange(dim)] = 1 / scale
    return make_algebra(tuple(sizes[order])), wmat, winv


def _split_matrix_units(data, lt, gram, tol):
    """(algebra, wmat, winv) from the split of the GNS representation into
    minimal projections (see wedderburn_realize)."""
    chol_h = dagger(np.linalg.cholesky(gram))
    chol_h_inv = np.linalg.inv(chol_h)
    pis = chol_h @ lt @ chol_h_inv
    blocks = []  # per block: the range of its first projection q_0, and the u_k
    for v in _minimal_projections(pis, tol):
        for v0, us in blocks:
            # q_0 pi(b_a) q_k in range coordinates; a nonzero one is lambda
            # times a unitary, so dividing by |lambda| leaves the isometry
            links = dagger(v0) @ pis @ v
            ranks = numerical_rank(links, tol)
            if ranks.any():
                hit = links[np.argmax(ranks > 0)]
                us.append(v0 @ hit @ dagger(v) * np.sqrt(v.shape[1]) / np.linalg.norm(hit))
                break
        else:
            blocks.append((v, [v @ dagger(v)]))
    blocks.sort(key=lambda block: len(block[1]))
    shape = tuple(len(us) for _, us in blocks)
    if sum(d * d for d in shape) != data.dim:
        raise NotSemisimple(f"minimal projections give blocks {shape} for dimension {data.dim}")
    # the matrix units u_k* u_l, pulled back through pi(x) C 1 = C x
    units = np.stack([dagger(uk) @ ul for _, us in blocks for uk in us for ul in us])
    wmat = ((units @ (chol_h @ data.unit)) @ chol_h_inv.T).T
    return make_algebra(shape), wmat, np.linalg.inv(wmat)


def _minimal_projections(pis, tol):
    """Ranges (orthonormal columns) of minimal projections of the algebra
    spanned by the operators pis, summing to 1.  From the identity on, each
    projection q is split into the eigenspaces of q h q for the first
    hermitian part h of some pis[a] that is not scalar there; the parts
    before h are scalar on every piece, so the pieces go on from the next.
    A rank-one projection is minimal as it stands."""
    dim = pis.shape[1]
    adj = pis.conj().swapaxes(1, 2)
    herm = np.stack([pis + adj, (pis - adj) / 1j], axis=1).reshape(-1, dim, dim) / 2
    found, todo = [], [(np.eye(dim), 0)]
    while todo:
        v, start = todo.pop()
        if v.shape[1] == 1:
            found.append(v)
            continue
        for a in range(start, len(herm)):
            parts = eigenspaces(dagger(v) @ herm[a] @ v, tol)
            if len(parts) > 1:
                todo.extend((v @ part, a + 1) for part in reversed(parts))
                break
        else:
            found.append(v)
    return found


def monomial_rows(mat: np.ndarray):
    """(canon, scale) when the invertible matrix mat has one nonzero per
    row, mat[x, canon[x]] = scale[x], else None.  For a change of basis
    from_canonical this reads e_canon[x] = scale[x] b_x."""
    if np.count_nonzero(mat) != mat.shape[0]:
        return None
    canon = np.argmax(mat != 0, axis=1)
    return canon, mat[np.arange(mat.shape[0]), canon]


def _realization_residual(data, lt, target, wmat, winv):
    """Max difference between transported and canonical structure data."""
    p, q, m = target.products
    dim = target.dim
    monomial = monomial_rows(wmat)
    if monomial is None:
        # trans[a, c, b] is the coefficient of e_c in e_a e_b, carried over
        trans = winv @ np.tensordot(wmat, lt, (0, 0)) @ wmat
        trans[p, m, q] -= 1.0
        res = max_abs(trans)
    else:
        # b_a b_b = v b_c moves to e_a' e_b' = v scale[a] scale[b] / scale[c] e_c'
        canon, scale = monomial
        a, b, c, v = data.products
        res = difference_max_abs(
            (
                (canon[a] * dim + canon[b]) * dim + canon[c],
                v * scale[a] * scale[b] / scale[c],
            ),
            ((p * dim + q) * dim + m, np.ones(p.size)),
        )
    star_trans = winv @ data.star @ np.conj(wmat)
    res = max(res, max_abs(star_trans - target.star_matrix))
    res = max(res, max_abs(winv @ data.unit - target.unit))
    return res


def check_conditional_expectation(
    emat: np.ndarray,
    target: SubalgebraBasis,
    trace: Functional | None = None,
    tol=None,
) -> VerificationReport:
    """Verify that the linear map emat is a conditional expectation onto target.

    Checks: unital, range in the target span and identity on it (so E is
    idempotent onto it), *-preserving, bimodular over the target, completely
    positive (Choi criterion), faithful (Gram criterion), and optionally
    trace-preserving.

    Bimodularity, E(a x b) = a E(x) b over the target, is checked one side
    at a time, [E, L_a] = [E, R_a] = 0 for each target basis element a: the
    target holds 1, so b = 1 or a = 1 gives these, and [E, L_a R_b] =
    [E, L_a] R_b + L_a [E, R_b] gives it back.  The commutators are joins
    of the product triples with the nonzeros of E and of the target basis
    (_commutator_residual); no d x d operator L_a or R_a is formed.
    """
    tol = as_tol(tol)
    alg = target.parent
    emat = np.asarray(emat, dtype=complex)
    rep = VerificationReport("conditional expectation", tol)
    rep.add("unital", max_abs(emat @ alg.unit - alg.unit))
    rep.add("range_in_target", target.contains(emat))
    rep.add("identity_on_target", max_abs(emat @ target.basis - target.basis))
    rep.add(
        "star_preserving",
        max_abs(alg.star_columns(emat) - alg.star(emat)),
    )

    rep.add("bimodular", _commutator_residual(alg, emat, target.basis))

    # the Choi matrices sum_kl e_kl (x) E(e_kl), one per block, are the rows
    # of blocks of the concrete matrix of sum_a b_a (x) E(b_a), of
    # coefficient matrix emat^T; each is the direct sum of its blocks
    choi = [stack for *_, stack in alg.tensor_blocks(emat.T)]
    _, min_eig = block_positive_definite(choi, tol)
    rep.add("completely_positive", max(0.0, -min_eig), note=f"min eig {min_eig:.2e}")

    ok, min_eig = Functional(alg, block_trace(alg).vec @ emat).positive_definite(tol)
    rep.add_flag("faithful", ok, f"min eig {min_eig:.2e}")
    if trace is not None:
        rep.add("trace_preserving", max_abs(trace.vec @ emat - trace.vec))
    return rep


def _commutator_residual(alg: FdAlgebra, op: np.ndarray, basis: np.ndarray) -> float:
    """Max over the columns a of basis of |[op, L_a]| and |[op, R_a]|:
    [op, L_a] b_c = op(a b_c) - a op(b_c) and [op, R_a] b_c = op(b_c a) -
    op(b_c) a, from the products of the basis with the b_c and the op(b_c)."""
    eye, table = np.eye(alg.dim), _table(op)
    return max(
        _residual(_contract(alg.product_terms(basis, eye), table, 2), alg.product_terms(basis, op), alg.dim),
        _residual(_contract(alg.product_terms(eye, basis), table, 2), alg.product_terms(op, basis), alg.dim),
    )

"""Constructions of weak Kac algebras: finite groupoids and their two
algebras, elementary weak Kac algebras on a full matrix block, coproduct
twists, crossed products by finite group actions, the n^3-dimensional
family built from the principal groupoid, and direct sums.

All constructors return WeakKac objects over canonical matrix-unit
algebras; abstract presentations (groupoid algebras, crossed products)
are realized through wedderburn_realize and the coproduct's nonzeros are
transported along the resulting isomorphism, which is kept in .meta.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    StarAlgebraData,
    WedderburnRealization,
    make_algebra,
    monomial_rows,
    regular_trace_of,
    wedderburn_realize,
)
from .errors import InvalidAction, InvalidCocycle, InvalidGroupoid
from .tensorkit import DEFAULT_ABS_TOL, _table, as_tol, max_abs
from .weakkac import WeakKac, _intertwining_residual, _multiplicativity_residual

__all__ = [
    "Group",
    "Groupoid",
    "pair_groupoid",
    "cyclic_groupoid",
    "disjoint_union",
    "groupoid_algebra",
    "groupoid_function_algebra",
    "elementary",
    "random_cocycle",
    "elementary_twist",
    "untwist_isomorphism",
    "dual_elementary",
    "GroupAction",
    "validate_action",
    "cyclic_shift_action",
    "crossed_product",
    "cube_family",
    "cube_crossed_isomorphism",
    "direct_sum",
    "transported_weak_kac",
]


# ---------------------------------------------------------------------------
# finite groups and groupoids
# ---------------------------------------------------------------------------


class Group:
    """Finite group given by its Cayley table g h = table[g, h]."""

    def __init__(self, table, labels=None):
        self.table = np.asarray(table, dtype=int)
        n = self.table.shape[0]
        if self.table.shape != (n, n):
            raise ValueError("Cayley table must be square")
        self.size = n
        every = np.arange(n)
        units = np.flatnonzero((self.table == every).all(1) & (self.table.T == every).all(1))
        if len(units) != 1:
            raise ValueError("Cayley table has no unique unit")
        self.unit = int(units[0])
        self.inverse = np.full(n, -1, dtype=int)
        for g in range(n):
            hs = np.nonzero(self.table[g] == self.unit)[0]
            if len(hs) != 1 or self.table[hs[0], g] != self.unit:
                raise ValueError(f"element {g} has no two-sided inverse")
            self.inverse[g] = hs[0]
        # (ab)c at [a, b, c] against a(bc)
        if not np.array_equal(self.table[self.table], self.table[:, self.table]):
            raise ValueError("Cayley table is not associative")
        self.labels = list(labels) if labels else [f"g{g}" for g in range(n)]

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        return cls(table, labels=[f"a^{k}" for k in range(n)])

    def __repr__(self):
        return f"Group(order={self.size})"


class Groupoid:
    """Finite groupoid: a partial composition table over morphisms.

    compose[g, h] is the index of g h when source(g) = target(h) and -1
    otherwise; units lists the identity morphisms.  Source, target and
    inverse maps are derived and the category axioms are validated.
    """

    def __init__(self, compose, units, labels=None):
        comp = np.asarray(compose, dtype=int)
        n = comp.shape[0]
        if comp.shape != (n, n):
            raise InvalidGroupoid("composition table must be square")
        self.compose = comp
        self.size = n
        self.units = sorted(int(u) for u in units)
        self.labels = list(labels) if labels else [f"m{g}" for g in range(n)]
        if len(self.labels) != n:
            raise InvalidGroupoid("label count does not match morphism count")
        self._validate_units()
        self.target = np.array([self._unique_unit(g, left=True) for g in range(n)])
        self.source = np.array([self._unique_unit(g, left=False) for g in range(n)])
        self._validate_composability()
        self._validate_associativity()
        self.inverse = np.array([self._find_inverse(g) for g in range(n)])

    def _validate_units(self):
        for u in self.units:
            if self.compose[u, u] != u:
                raise InvalidGroupoid(f"unit {u} is not idempotent")
        for u in self.units:
            for g in range(self.size):
                if self.compose[u, g] not in (-1, g) or self.compose[g, u] not in (-1, g):
                    raise InvalidGroupoid(f"unit {u} does not act as identity on {g}")

    def _unique_unit(self, g, left: bool):
        hits = [
            u
            for u in self.units
            if (self.compose[u, g] if left else self.compose[g, u]) == g
        ]
        if len(hits) != 1:
            side = "target" if left else "source"
            raise InvalidGroupoid(f"morphism {g} has no unique {side} unit")
        return hits[0]

    def _validate_composability(self):
        for g in range(self.size):
            for h in range(self.size):
                defined = self.compose[g, h] >= 0
                should = self.source[g] == self.target[h]
                if defined != should:
                    raise InvalidGroupoid(
                        f"composability pattern wrong at ({g}, {h})"
                    )
                if defined:
                    k = self.compose[g, h]
                    if self.target[k] != self.target[g] or self.source[k] != self.source[h]:
                        raise InvalidGroupoid(f"composition ({g}, {h}) breaks source/target")

    def _validate_associativity(self):
        c = self.compose
        g, h, k = np.indices((self.size,) * 3)
        # (gh)k against g(hk) wherever gh is defined, -1 where undefined
        lhs, rhs = c[c[g, h], k], np.where(c[h, k] < 0, -1, c[g, c[h, k]])
        bad = np.argwhere((c[g, h] >= 0) & (lhs != rhs))
        if bad.size:
            raise InvalidGroupoid(f"associativity fails at {tuple(int(x) for x in bad[0])}")

    def _find_inverse(self, g):
        hits = [
            h
            for h in range(self.size)
            if self.compose[g, h] == self.target[g] and self.compose[h, g] == self.source[g]
        ]
        if len(hits) != 1:
            raise InvalidGroupoid(f"morphism {g} has no unique inverse")
        return hits[0]

    @property
    def n_units(self) -> int:
        return len(self.units)

    def is_group(self) -> bool:
        return self.n_units == 1

    def __repr__(self):
        return f"Groupoid(morphisms={self.size}, units={self.n_units})"


def pair_groupoid(n: int) -> Groupoid:
    """Transitive principal groupoid on n points: morphisms (i, j) : j -> i
    with (i, j)(j, k) = (i, k)."""
    comp = np.full((n * n, n * n), -1, dtype=int)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comp[i * n + j, j * n + k] = i * n + k
    units = [i * n + i for i in range(n)]
    labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    return Groupoid(comp, units, labels)


def cyclic_groupoid(n: int) -> Groupoid:
    """The cyclic group Z/n viewed as a one-unit groupoid."""
    comp = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return Groupoid(comp, [0], labels=[f"a^{k}" for k in range(n)])


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    n1, n2 = g1.size, g2.size
    comp = np.full((n1 + n2, n1 + n2), -1, dtype=int)
    comp[:n1, :n1] = g1.compose
    shifted = g2.compose.copy()
    shifted[shifted >= 0] += n1
    comp[n1:, n1:] = shifted
    units = list(g1.units) + [u + n1 for u in g2.units]
    labels = [f"L{x}" for x in g1.labels] + [f"R{x}" for x in g2.labels]
    return Groupoid(comp, units, labels)


# ---------------------------------------------------------------------------
# transport of structure tensors along a realization
# ---------------------------------------------------------------------------


def transported_weak_kac(
    realization: WedderburnRealization, t_abs, s_abs, eps_abs, meta=None
) -> WeakKac:
    """Push abstract (coproduct, antipode, counit) tensors onto the
    canonical algebra of a Wedderburn realization.  t_abs holds the
    coproduct's nonzeros (i, j, k, v): v is the coefficient of b_j (x) b_k
    in Delta(b_i).  Along a monomial realization (e_canon[x] = scale[x] b_x)
    each nonzero moves to one canonical entry; otherwise the tensor is
    contracted densely with the change of basis on all three legs and its
    nonzeros are kept."""
    w2c, c2a = realization.to_canonical, realization.from_canonical
    dim = realization.algebra.dim
    i, j, k, v = t_abs
    monomial = monomial_rows(c2a)
    if monomial is None:
        t_can = np.zeros((dim, dim, dim), dtype=complex)
        np.add.at(t_can, (i, j, k), v)
        t_can = np.einsum("gi,gab,pa,qb->ipq", c2a, t_can, w2c, w2c, optimize=True)
    else:
        canon, scale = monomial
        t_can = (canon[i], canon[j], canon[k], v * scale[i] / (scale[j] * scale[k]))
    s_can = w2c @ s_abs @ c2a
    eps_can = np.asarray(eps_abs, dtype=complex) @ c2a
    meta = dict(meta or {})
    meta.setdefault("to_canonical", w2c)
    meta.setdefault("from_canonical", c2a)
    return WeakKac(realization.algebra, t_can, s_can, eps_can, meta)


# ---------------------------------------------------------------------------
# the two weak Kac algebras of a finite groupoid
# ---------------------------------------------------------------------------


def groupoid_algebra(gpd: Groupoid, tol=None) -> WeakKac:
    """Groupoid algebra CG: span of morphisms with g h = composition (0 when
    undefined), g* = g^{-1}, Delta(g) = g (x) g, S(g) = g^{-1}, eps(g) = 1.

    The morphisms of a principal groupoid (no isotropy, as pair_groupoid)
    are realized by rescaling; a groupoid with isotropy (a group) takes the
    split of wedderburn_realize into minimal projections."""
    tol = as_tol(tol)
    n = gpd.size
    g_idx, h_idx = np.nonzero(gpd.compose >= 0)
    products = (g_idx, h_idx, gpd.compose[g_idx, h_idx], np.ones(g_idx.size))
    star = np.zeros((n, n), dtype=complex)
    star[gpd.inverse, np.arange(n)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[gpd.units] = 1.0
    data = StarAlgebraData(products, star, unit, regular_trace_of(products, n))
    real = wedderburn_realize(data, tol)

    eps_abs = np.ones(n, dtype=complex)
    return transported_weak_kac(
        real,
        (np.arange(n), np.arange(n), np.arange(n), np.ones(n)),
        star.copy(),  # S acts like * on the real basis: g -> g^{-1}
        eps_abs,
        meta={"kind": "groupoid_algebra", "groupoid": gpd, "name": f"C[{gpd!r}]"},
    )


def groupoid_function_algebra(gpd: Groupoid) -> WeakKac:
    """Function algebra C(G): point masses delta_g with pointwise product,
    Delta(delta_g) = sum over factorizations g = h k of delta_h (x) delta_k,
    S(delta_g) = delta_{g^{-1}}, eps(delta_g) = [g is a unit]."""
    n = gpd.size
    alg = make_algebra((1,) * n)
    h_idx, k_idx = np.nonzero(gpd.compose >= 0)
    t = (gpd.compose[h_idx, k_idx], h_idx, k_idx, np.ones(h_idx.size))
    s = np.zeros((n, n), dtype=complex)
    s[gpd.inverse, np.arange(n)] = 1.0
    eps = np.zeros(n, dtype=complex)
    eps[gpd.units] = 1.0
    return WeakKac(
        alg, t, s, eps, meta={"kind": "groupoid_functions", "groupoid": gpd,
                              "name": f"C({gpd!r})"}
    )


# ---------------------------------------------------------------------------
# elementary weak Kac algebras and their twists
# ---------------------------------------------------------------------------


def elementary(shape, tol=None) -> WeakKac:
    """The unique elementary weak Kac algebra on M_n with Cartan subalgebras
    isomorphic to A = concrete algebra with the given block shape (n = dim A).

    Matrix units are indexed by pairs of row labels (alpha, i, j), i, j
    ranging over the alpha-th block size; the coproduct spreads the inner
    index, the antipode transposes both labels and the counit pairs them.
    """
    shape = tuple(int(x) for x in shape)
    offsets = np.concatenate([[0], np.cumsum([d * d for d in shape])])
    n = int(offsets[-1])
    alg = make_algebra((n,))
    dim = n * n

    def row(alpha, i, j):  # the row label (alpha, i, j) of M_n
        return int(offsets[alpha] + i * shape[alpha] + j)

    def idx(r, c):
        return r * n + c

    t = []  # entries (a, b, c, value) of the coproduct
    s = np.zeros((dim, dim), dtype=complex)
    eps = np.zeros(dim, dtype=complex)
    pair_of = np.zeros((dim, 2), dtype=int)  # block-pair labels, used by twists
    for alpha, na in enumerate(shape):
        for beta, nb in enumerate(shape):
            scale = 1.0 / np.sqrt(na * nb)
            for i in range(na):
                for j in range(na):
                    for k in range(nb):
                        for l in range(nb):
                            a = idx(row(alpha, i, j), row(beta, k, l))
                            for u in range(na):
                                for v in range(nb):
                                    t.append((a, idx(row(alpha, i, u), row(beta, k, v)),
                                              idx(row(alpha, u, j), row(beta, v, l)), scale))
                            s[idx(row(beta, l, k), row(alpha, j, i)), a] = 1.0
                            pair_of[a] = (alpha, beta)
                            if i == j and k == l:
                                eps[a] = np.sqrt(na * nb)
    return WeakKac(
        alg, tuple(np.array(t).T), s, eps,
        meta={"kind": "elementary", "cartan_shape": shape, "block_pairs": pair_of,
              "name": f"M({shape})"},
    )


def random_cocycle(nblocks: int, seed: int = 0) -> np.ndarray:
    """Random hermitian unimodular cocycle lambda[a, b] = mu_a conj(mu_b)."""
    rng = np.random.default_rng((0xC0C, seed))
    mu = np.exp(2j * np.pi * rng.random(nblocks))
    lam = np.outer(mu, np.conj(mu))
    return lam


def _validate_cocycle(lam: np.ndarray, nblocks: int):
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (nblocks, nblocks):
        raise InvalidCocycle(f"expected shape {(nblocks, nblocks)}, got {lam.shape}")
    if max_abs(np.abs(lam) - 1.0) > DEFAULT_ABS_TOL:
        raise InvalidCocycle("entries must be unimodular")
    if max_abs(lam - np.conj(lam).T) > DEFAULT_ABS_TOL:
        raise InvalidCocycle("must satisfy lambda[b,a] = conj(lambda[a,b])")
    for a in range(nblocks):
        for b in range(nblocks):
            for c in range(nblocks):
                if abs(lam[a, b] * lam[b, c] - lam[a, c]) > DEFAULT_ABS_TOL:
                    raise InvalidCocycle(f"cocycle identity fails at {(a, b, c)}")
    return lam


def elementary_twist(w: WeakKac, lam) -> WeakKac:
    """Twist an elementary weak Kac algebra by a unimodular cocycle:
    Delta -> lambda Delta, S -> lambda^-2 S, eps -> lambda^-1 eps on the
    basis element of Cartan-block pair (alpha, beta)."""
    if "block_pairs" not in w.meta:
        raise InvalidCocycle("twisting requires an elementary weak Kac algebra")
    pairs = w.meta["block_pairs"]
    lam = _validate_cocycle(lam, int(pairs.max()) + 1 if len(pairs) else 1)
    lam_of = lam[pairs[:, 0], pairs[:, 1]]
    i, j, k, v = w.coproduct
    t = (i, j, k, v * lam_of[i])
    s = w.antipode * (lam_of ** -2)[None, :]
    eps = w.counit * (lam_of ** -1)
    meta = dict(w.meta)
    meta.update({"kind": "twisted_elementary", "cocycle": lam,
                 "untwist": np.diag(np.conj(lam_of)),
                 "name": meta.get("name", "M(?)") + "~twist"})
    return WeakKac(w.algebra, t, s, eps, meta)


def untwist_isomorphism(wt: WeakKac) -> np.ndarray:
    """Matrix of the isomorphism from a twisted elementary weak Kac algebra
    onto the standard one: the basis element of block pair (alpha, beta) is
    scaled by conj(lambda[alpha, beta])."""
    if "untwist" not in wt.meta:
        raise InvalidCocycle("not a twisted elementary weak Kac algebra")
    return wt.meta["untwist"]


def dual_elementary(shape) -> WeakKac:
    """Direct model of the dual of elementary(shape): the block algebra
    over pairs (alpha, beta) with block size n_alpha n_beta, built from
    comatrix units realized as scaled matrix units."""
    shape = tuple(int(x) for x in shape)
    nb = len(shape)
    alg = make_algebra(tuple(shape[a] * shape[b] for a in range(nb) for b in range(nb)))
    dim = alg.dim

    def idx(alpha, beta, i, k, j, l):
        # block (alpha, beta), row (i, k), column (j, l)
        block = alpha * nb + beta
        nbeta = shape[beta]
        return alg.matrix_unit_index(block, i * nbeta + k, j * nbeta + l)

    t = []  # entries (a, b, c, value) of the coproduct, repeated ones summed
    s = np.zeros((dim, dim), dtype=complex)
    eps = np.zeros(dim, dtype=complex)
    for alpha, na in enumerate(shape):
        for beta, nbta in enumerate(shape):
            for i in range(na):
                for k in range(nbta):
                    for j in range(na):
                        for l in range(nbta):
                            a = idx(alpha, beta, i, k, j, l)
                            for gamma, ng in enumerate(shape):
                                for p in range(ng):
                                    for q in range(ng):
                                        t.append((a, idx(alpha, gamma, i, p, j, q),
                                                  idx(gamma, beta, p, k, q, l), 1.0 / ng))
                            s[idx(beta, alpha, l, j, k, i), a] = 1.0
                            if alpha == beta and i == k and j == l:
                                eps[a] = na
    return WeakKac(
        alg, tuple(np.array(t).T), s, eps,
        meta={"kind": "dual_elementary", "cartan_shape": shape,
              "name": f"M({shape})^"},
    )


# ---------------------------------------------------------------------------
# group actions and crossed products
# ---------------------------------------------------------------------------


class GroupAction:
    """Right action of a finite group on a weak Kac algebra: mats[g] is the
    coefficient-space matrix of x -> x <| g, so mats[gh] = mats[h] mats[g]."""

    def __init__(self, group: Group, mats):
        self.group = group
        self.mats = np.asarray(mats, dtype=complex)
        if self.mats.shape[0] != group.size:
            raise InvalidAction("need one matrix per group element")

    def __getitem__(self, g: int) -> np.ndarray:
        return self.mats[g]


def validate_action(w: WeakKac, action: GroupAction, tol=None):
    """Raise InvalidAction unless every mats[g] is a *-automorphism of the
    algebra commuting with the weak Kac structure and g -> mats[g] reverses
    products (a right action)."""
    tol = as_tol(tol)
    alg, grp = w.algebra, action.group
    limit = 1e3 * tol.abs_tol
    if max_abs(action[grp.unit] - np.eye(alg.dim)) > limit:
        raise InvalidAction("unit must act trivially")
    for g in range(grp.size):
        ag = action[g]
        if max_abs(ag @ alg.unit - alg.unit) > limit:
            raise InvalidAction(f"action of {g} is not unital")
        if max_abs(alg.star_columns(ag) - alg.star(ag)) > limit:
            raise InvalidAction(f"action of {g} does not preserve *")
        if _multiplicativity_residual(alg, alg, _table(ag)) > limit:
            raise InvalidAction(f"action of {g} is not multiplicative")
        if _intertwining_residual(w.coproduct, w.coproduct, _table(ag)) > limit:
            raise InvalidAction(f"action of {g} does not commute with the coproduct")
        if max_abs(ag @ w.antipode - w.antipode @ ag) > limit:
            raise InvalidAction(f"action of {g} does not commute with the antipode")
        if max_abs(w.counit @ ag - w.counit) > limit:
            raise InvalidAction(f"action of {g} does not preserve the counit")
        for h in range(grp.size):
            if max_abs(
                action[grp.table[g, h]] - action.mats[h] @ action.mats[g]
            ) > limit:
                raise InvalidAction(f"not a right action at pair {(g, h)}")


def cyclic_shift_action(n: int) -> tuple:
    """The Z/n action on the function algebra of the principal groupoid on n
    points shifting both legs: delta_(i,j) <| a = delta_(i+1, j+1)."""
    gpd = pair_groupoid(n)
    w = groupoid_function_algebra(gpd)
    grp = Group.cyclic(n)
    mats = np.zeros((n, n * n, n * n))
    for s in range(n):
        for i in range(n):
            for j in range(n):
                mats[s, ((i + s) % n) * n + (j + s) % n, i * n + j] = 1.0
    return w, GroupAction(grp, mats)


def crossed_product(w: WeakKac, action: GroupAction, tol=None) -> WeakKac:
    """Crossed product weak Kac algebra of a right group action.

    On generators m (x) g: (m (x) g)(n (x) h) = (m <| h) n (x) gh,
    (m (x) g)* = (m <| g^-1)* (x) g^-1, the coproduct duplicates the group
    leg, S(m (x) g) = S(m <| g^-1) (x) g^-1 and eps(m (x) g) = eps(m).

    When the generators form a principal groupoid basis, as for the cyclic
    shift on the function algebra of a principal groupoid, the realization
    rescales them; otherwise it splits the algebra into minimal projections.
    """
    tol = as_tol(tol)
    validate_action(w, action, tol)
    alg, grp = w.algebra, action.group
    dm, ng = alg.dim, grp.size
    dim = dm * ng

    def idx(a, g):
        return a * ng + g

    # (b_a <| h) b_b = sum_c lm[h, a, c, b] b_c, and the group legs multiply
    lm = alg.lmat(np.swapaxes(action.mats, 1, 2))
    h, a, c, b = np.nonzero(lm)
    g = np.arange(ng)[:, None]
    products = tuple(
        x.ravel()
        for x in np.broadcast_arrays(
            idx(a, g), idx(b, h), idx(c, grp.table[g, h]), lm[h, a, c, b]
        )
    )

    # (m (x) g)* and S(m (x) g) have the group leg g^-1
    rows = np.arange(dm)[:, None] * ng + grp.inverse[:, None, None]
    cols = idx(np.arange(dm), np.arange(ng)[:, None])[:, None, :]
    star = np.zeros((dim, dim), dtype=complex)
    star[rows, cols] = alg.star_matrix @ np.conj(action.mats[grp.inverse])

    unit = np.zeros(dim, dtype=complex)
    unit[np.arange(dm) * ng + grp.unit] = alg.unit

    data = StarAlgebraData(products, star, unit, regular_trace_of(products, dim))
    real = wedderburn_realize(data, tol)

    # Delta(m (x) g) = sum of Delta(m) with g on both legs
    i, j, k, v = w.coproduct
    g = np.arange(ng)[:, None]
    t_abs = tuple(x.ravel() for x in np.broadcast_arrays(idx(i, g), idx(j, g), idx(k, g), v))
    s_abs = np.zeros((dim, dim), dtype=complex)
    s_abs[rows, cols] = w.antipode @ action.mats[grp.inverse]
    eps_abs = np.repeat(w.counit, ng)

    return transported_weak_kac(
        real, t_abs, s_abs, eps_abs,
        meta={"kind": "crossed_product", "base": w, "action": action,
              "name": f"{w.meta.get('name', 'W')}#Z{ng}"},
    )


# ---------------------------------------------------------------------------
# the n^3-dimensional family
# ---------------------------------------------------------------------------


def cube_family(n: int) -> WeakKac:
    """Weak Kac algebra of dimension n^3 on the algebra (+)_k M_n, given by
    closed formulas on matrix units f[k]_ij (block k, row i, column j):

        Delta f[k]_ij = sum_r f[r]_ij (x) f[k-r]_{i+r, j+r}
        S f[k]_ij     = f[-k]_{j+k, i+k}
        eps f[k]_ij   = [k = 0]

    with all index arithmetic mod n.  Isomorphic to the crossed product of
    the principal groupoid function algebra by the cyclic shift.
    """
    alg = make_algebra((n,) * n)
    dim = n ** 3

    def idx(k, i, j):  # block k holds the basis indices k n^2 to (k + 1) n^2 - 1
        return (k % n) * n * n + (i % n) * n + j % n

    k, i, j, r = np.indices((n,) * 4).reshape(4, -1)
    t = (idx(k, i, j), idx(r, i, j), idx(k - r, i + r, j + r), np.ones(k.size))
    s = np.zeros((dim, dim), dtype=complex)
    s[idx(-k, j + k, i + k), idx(k, i, j)] = 1.0
    eps = (np.arange(dim) < n * n).astype(complex)  # [k = 0]
    return WeakKac(alg, t, s, eps, meta={"kind": "cube_family", "n": n, "name": f"cube({n})"})


def cube_crossed_isomorphism(n: int, crossed: WeakKac) -> np.ndarray:
    """Canonical-coordinates matrix of the isomorphism from the crossed
    product of the principal groupoid by the cyclic shift onto cube_family(n):
    delta_(a,b) (x) alpha^s  ->  f[b-a]_{a-s, a}."""
    cube_alg = make_algebra((n,) * n)
    dm, ng = n * n, n
    pi_abs = np.zeros((n ** 3, dm * ng), dtype=complex)
    for a in range(n):
        for b in range(n):
            for s in range(n):
                pi_abs[
                    cube_alg.matrix_unit_index((b - a) % n, (a - s) % n, a),
                    (a * n + b) * ng + s,
                ] = 1.0
    return pi_abs @ crossed.meta["from_canonical"]


# ---------------------------------------------------------------------------
# sums and tensor products
# ---------------------------------------------------------------------------


def direct_sum(w1: WeakKac, w2: WeakKac) -> WeakKac:
    """Block-diagonal direct sum; the summand identities span a nontrivial
    hyper-center."""
    a1, a2 = w1.algebra, w2.algebra
    alg = make_algebra(a1.block_shape + a2.block_shape)
    d1, d2 = a1.dim, a2.dim
    t = [np.concatenate([a, b + d1]) for a, b in zip(w1.coproduct[:3], w2.coproduct[:3])]
    t = (*t, np.concatenate([w1.coproduct.v, w2.coproduct.v]))
    s = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    s[:d1, :d1] = w1.antipode
    s[d1:, d1:] = w2.antipode
    eps = np.concatenate([w1.counit, w2.counit])
    name = f"{w1.meta.get('name', 'W1')}(+){w2.meta.get('name', 'W2')}"
    return WeakKac(alg, t, s, eps, meta={"kind": "direct_sum", "name": name,
                                         "parts": (w1, w2)})

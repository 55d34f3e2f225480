"""The mutation tables of the axiom suite and of the derived reports.

Each row mutates the catalog members and runs reports on the result.  The
axiom table runs verify_weak_kac on every member with 2 <= d <= 27, and,
when the row leaves the counit alone, the paper's other two axiom systems,
which take no counit: check_kac_bimodule, and check_generalized_kac under
the normalized Haar trace of the mutated structure.  The derived table
runs the eight reports of `wka derive --what all` on DERIVED_MEMBERS under
the same rows, a row whose
antipode cycles three blocks, and object rows.  An object row replaces one
derived object of the member (the Haar projection p, the normalized Haar
trace phi, the Cartan factors, eps_t, the counital support or the
hyper-central classes) in the memo that every checker reads it from, so the
checks of that object are reached on a member that still satisfies the
axioms.  A derivation that raises gives no report.

The tables record, for every check of every report, in how many runs it
fails and in how many it is the only failing check of its report ("fails
alone").  No check is kept that cannot fail: every check that the reports
emit on cube_family(2) has a row that fails it or is named in NEVER_FAILS
with the reason no mutation reaches it, and every check that fails but
never alone is named in NEVER_ALONE with the reason it stays.  A new check
therefore arrives with a mutation that fails it, and one that joins or
leaves either list changes that list.

`PYTHONPATH=src:tests python tests/test_mutations.py` prints the tables,
one block per report.
"""

import re
from functools import lru_cache
from itertools import combinations

import numpy as np

from wka import (
    SubalgebraBasis,
    Tolerance,
    WeakKac,
    block_trace,
    cartan_subalgebras,
    catalog,
    check_generalized_kac,
    check_haar_projection,
    check_kac_bimodule,
    check_normalized_haar_trace,
    counital_quotient,
    counital_representation,
    cube_family,
    fusion_ring,
    generalized_to_weak,
    haar_conditional_expectations,
    haar_trace_cone,
    normalized_haar_trace,
    verify_weak_kac,
)
from wka.errors import WkaError
from wka.fusion import _support_multiplicities
from wka.haar import _haar_projection_space, _normalized_haar_trace_space
from wka.tensorkit import AffineSpace, _table, max_abs
from wka.weakkac import _cartan_spans, _hyper_central_classes

from conftest import dense_coproduct, e_without_block, inner_automorphism, moved_entry

VERIFY, BIMODULE, GENERALIZED = "verify_weak_kac", "check_kac_bimodule", "check_generalized_kac"


def _noise(shape):
    rng = np.random.default_rng(0)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _coproduct(change):
    """The row that replaces the dense coproduct t of w by change(w, t)."""
    return lambda w: WeakKac(w.algebra, change(w, dense_coproduct(w)), w.antipode, w.counit)


def _antipode(change):
    """The row that replaces the antipode s of w by change(w, s)."""
    return lambda w: WeakKac(w.algebra, w.coproduct, change(w, np.array(w.antipode)), w.counit)


def _counit(change):
    """The row that replaces the counit eps of w by change(w, eps)."""
    return lambda w: WeakKac(w.algebra, w.coproduct, w.antipode, change(w, np.array(w.counit)))


def _nonzero_noise(scale):
    """Complex noise of the given scale on the nonzero entries."""
    return lambda w, a: a + scale * (a != 0) * _noise(a.shape)


def _star_symmetric_noise(flip, scale=3e-9):
    """Noise of the given scale on the nonzeros of the coproduct, averaged
    with its image under x -> (* (x) *) noise(x*) so that Delta stays a
    *-map, and with its legs exchanged when flip is set."""

    def change(w, t):
        star = w.algebra.star_index
        noise = scale * (t != 0) * _noise(t.shape)
        noise = (noise + np.conj(noise[np.ix_(star, star, star)])) / 2
        return t + (noise.transpose(0, 2, 1) if flip else noise)

    return change


def _copy_row(w, t):
    t[1] = t[0]
    return t


def _scaled_row(factor=None, norm=None):
    """Delta(b_0) times factor, or scaled to the given norm."""

    def change(w, t):
        t[0] *= factor if norm is None else norm / np.linalg.norm(t[0])
        return t

    return change


def _column_phase(w, s):
    """S(b_c) times e^{0.3i}, for the first non-self-adjoint b_c (or b_0)."""
    moved = np.flatnonzero(w.algebra.star_index != np.arange(w.dim))
    s[:, moved[0] if moved.size else 0] *= np.exp(0.3j)
    return s


def _moved_entry(w):
    """conftest.moved_entry, where some row of the coproduct has a zero."""
    return moved_entry(w) if w.coproduct.nnz < w.dim ** 3 else None


def _moved_entry_of_the_flip(w):
    """An entry of flip Delta moved, then flipped back: the same mutation
    with the legs exchanged, so that N_t takes the place of N_s."""

    def flip(w):
        return WeakKac(w.algebra, dense_coproduct(w).transpose(0, 2, 1), w.antipode, w.counit)

    moved = _moved_entry(flip(w))
    return None if moved is None else flip(moved)


# name: (whether the row changes the counit, the mutation); a mutation
# returns None where it does not apply.  Every check passes iff its residual
# is at most abs_tol = 1e-9.  The rows at 3e-9 and 5e-9 move residuals to a
# few times that limit; the near-limit rows at 3e-10 and 5e-10, one tenth of
# them, move them to about the limit, where the checks of one report part.
ROWS = {
    "moved coproduct entry": (False, _moved_entry),
    "moved entry of flip Delta": (False, _moved_entry_of_the_flip),
    "Delta(b_1) := Delta(b_0)": (False, _coproduct(_copy_row)),
    "Delta(b_0) x 1e-3": (False, _coproduct(_scaled_row(factor=1e-3))),
    "Delta(b_0) to norm 3e-8": (False, _coproduct(_scaled_row(norm=3e-8))),
    "Delta(b_0) x (1 + 5e-9)": (False, _coproduct(_scaled_row(factor=1 + 5e-9))),
    "Delta(b_0) x (1 + 5e-10)": (False, _coproduct(_scaled_row(factor=1 + 5e-10))),
    "noise 1e-6 on the nonzeros of Delta": (False, _coproduct(_nonzero_noise(1e-6))),
    "noise 3e-9 on the nonzeros of Delta": (False, _coproduct(_nonzero_noise(3e-9))),
    "noise 3e-10 on the nonzeros of Delta": (False, _coproduct(_nonzero_noise(3e-10))),
    "star-symmetric noise 3e-9 on Delta": (False, _coproduct(_star_symmetric_noise(False))),
    "the same noise, legs exchanged": (False, _coproduct(_star_symmetric_noise(True))),
    "star-symmetric noise 3e-10 on Delta": (False, _coproduct(_star_symmetric_noise(False, 3e-10))),
    "the same noise 3e-10, legs exchanged": (False, _coproduct(_star_symmetric_noise(True, 3e-10))),
    "Delta x (1 + 1e-6)": (False, _coproduct(lambda w, t: t * (1 + 1e-6))),
    "noise 1e-6 on the nonzeros of S": (False, _antipode(_nonzero_noise(1e-6))),
    "noise 3e-9 on the nonzeros of S": (False, _antipode(_nonzero_noise(3e-9))),
    "noise 3e-10 on the nonzeros of S": (False, _antipode(_nonzero_noise(3e-10))),
    "S after an inner automorphism": (
        False,
        _antipode(lambda w, s: s @ inner_automorphism(w.algebra, np.random.default_rng(0))),
    ),
    "S := id": (False, _antipode(lambda w, s: np.eye(w.dim))),
    "phase on one column of S": (False, _antipode(_column_phase)),
    "S x exp(5e-9 i)": (False, _antipode(lambda w, s: s * np.exp(5e-9j))),
    "S x exp(5e-10 i)": (False, _antipode(lambda w, s: s * np.exp(5e-10j))),
    "noise 1e-6 on the nonzeros of eps": (True, _counit(_nonzero_noise(1e-6))),
    "noise 3e-9 on the nonzeros of eps": (True, _counit(_nonzero_noise(3e-9))),
    "noise 3e-10 on the nonzeros of eps": (True, _counit(_nonzero_noise(3e-10))),
    "eps x 1.5": (True, _counit(lambda w, eps: 1.5 * eps)),
    "eps + 1e-6i": (True, _counit(lambda w, eps: eps + 1e-6j)),
}


def _generalized(mutated):
    """check_generalized_kac under the normalized Haar trace of the mutated
    structure and, when it passes, the counit that generalized_to_weak
    recovers; no report where the trace or the check raises."""
    try:
        phi = normalized_haar_trace(mutated)
        rep = check_generalized_kac(mutated, phi)
        return rep, generalized_to_weak(mutated, phi).counit if rep.passed else None
    except (WkaError, np.linalg.LinAlgError):
        return None, None


@lru_cache(maxsize=None)
def runs() -> tuple:
    """(report name, member, row, report, recovered counit) of every run of
    the table.  The counit is the one check_kac_bimodule returns, or the
    one generalized_to_weak recovers where check_generalized_kac passes,
    else None; the report is None where the generalized check raises."""
    out = []
    for entry in catalog():
        w = entry.build()
        if not 2 <= w.dim <= 27:
            continue
        for row, (counit, mutate) in ROWS.items():
            mutated = mutate(w)
            if mutated is None:
                continue
            out.append((VERIFY, entry.name, row, verify_weak_kac(mutated), None))
            if not counit:
                rep, eps = check_kac_bimodule(w.algebra, mutated.coproduct, mutated.antipode)
                out.append((BIMODULE, entry.name, row, rep, None if eps is None else eps.vec))
                out.append((GENERALIZED, entry.name, row, *_generalized(mutated)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the derived reports
# ---------------------------------------------------------------------------

TOL = Tolerance()

# report title: the report of one derivation on w
DERIVED = {
    "Cartan subalgebras": lambda w: cartan_subalgebras(w, TOL).report,
    "Haar projection": lambda w: check_haar_projection(w, TOL)[1],
    "normalized Haar trace": lambda w: check_normalized_haar_trace(w, TOL)[1],
    "Haar trace cone": lambda w: haar_trace_cone(w, TOL)[1],
    "counital representation": lambda w: counital_representation(w, TOL)[1],
    "fusion ring": lambda w: fusion_ring(w, TOL)[1],
    "counital quotient": lambda w: counital_quotient(w, TOL)[2],
    "Haar conditional expectations": lambda w: haar_conditional_expectations(w, tol=TOL)[3],
}

# Eight members, chosen by a greedy search, on which the derived table has
# the NEVER_FAILS and NEVER_ALONE of all 48 members with 2 <= d <= 27
# (derived_runs(None), about 35 s against 5 s).
DERIVED_MEMBERS = (
    "function-algebra[z2]",
    "group-algebra[disc]",
    "elementary[1,2]",
    "elementary[2]",
    "dual(function-algebra[z3])",
    "dual(elementary[1,1])",
    "dual(dual-elementary[1,1,1])",
    "dual(crossed[2])",
)


def _cycled_blocks(w):
    """S with three blocks of one size cycled, S(e^i_kl) = e^j_lk for the
    next block j of the three; None where no three blocks share a size."""
    alg = w.algebra
    shape = list(alg.block_shape)
    sizes = [n for n in shape if shape.count(n) >= 3]
    if not sizes:
        return None
    blocks = [b for b, n in enumerate(shape) if n == sizes[0]][:3]
    s = np.array(w.antipode)
    for b, c in zip(blocks, blocks[1:] + blocks[:1]):
        for k in range(sizes[0]):
            for m in range(sizes[0]):
                col = alg.matrix_unit_index(b, k, m)
                s[:, col] = 0
                s[alg.matrix_unit_index(c, m, k), col] = 1
    return WeakKac(alg, w.coproduct, s, w.counit)


def _fresh(w):
    """A copy of w with nothing memoized."""
    return WeakKac(w.algebra, w.coproduct, w.antipode, w.counit)


def _object(derivation, key, change):
    """The object row that replaces the value of derivation(w, TOL) by
    change(w, value): a copy of w whose memo holds the changed value under
    the key the derivation stores it by, so every checker reads it.  None
    where change returns None."""

    def row(w):
        value = change(w, derivation(w, TOL))
        if value is None:
            return None
        fresh = _fresh(w)
        fresh.memo(key, lambda: value)
        return fresh

    return row


def _eps_t(change):
    """The object row that replaces eps_t by change(w, eps_t): the cached
    eps_t_matrix and eps_t_table are read from the instance dict, so every
    reader of eps_t meets the changed map."""

    def row(w):
        fresh = _fresh(w)
        changed = change(w, np.array(w.eps_t_matrix))
        fresh.__dict__["eps_t_matrix"], fresh.__dict__["eps_t_table"] = changed, _table(changed)
        return fresh

    return row


def _particular(change):
    """An affine space (p or phi) with its point replaced by change(w, point)."""
    return lambda w, space: AffineSpace(change(w, space.particular), space.null, space.residual)


def _free_direction(w, space):
    """An affine space with the unit direction of the first basis element
    left free."""
    return AffineSpace(space.particular, np.eye(w.dim)[:, :1], space.residual)


def _projection(change):
    return _object(_haar_projection_space, ("haar_projection_space", TOL), change)


def _trace(change):
    return _object(_normalized_haar_trace_space, ("normalized_haar_trace_space", TOL), change)


def _spans(change):
    return _object(_cartan_spans, ("cartan_spans", TOL), change)


def _support(change):
    return _object(lambda w, tol: _support_multiplicities(w), ("support_multiplicities",), change)


def _classes(change):
    return _object(_hyper_central_classes, ("hyper_central_classes", TOL), change)


def _scaled_factor(w, spans):
    """x_0 of the factorization of e doubled, its spans kept."""
    ns, nt, xs, ys = spans
    return ns, nt, [2 * xs[0], *xs[1:]], ys


def _turned(source):
    """The first basis vector of N_s (source set) or N_t turned by 1e-6
    towards noise: its relations then fail inside the limit at which
    cartan_subalgebras raises."""

    def change(w, spans):
        spans = list(spans)
        basis = np.array(spans[1 - source].basis)
        basis[:, 0] += 1e-6 * _noise(w.dim)
        spans[1 - source] = SubalgebraBasis(w.algebra, basis, TOL)
        return tuple(spans)

    return change


def _exchanged(w, spans):
    """N_s and N_t, and the two legs of the factorization, exchanged."""
    ns, nt, xs, ys = spans
    return nt, ns, ys, xs


def _keeping_trace(mutate):
    """The row mutate(w) with the normalized Haar trace and the trace cone of
    the member kept: the expectations are then formed on the mutated
    coproduct, which has no Haar trace of its own."""

    def row(w):
        mutated = mutate(w)
        trace, cone = _normalized_haar_trace_space(w, TOL), haar_trace_cone(w, TOL)
        mutated.memo(("normalized_haar_trace_space", TOL), lambda: trace)
        mutated.memo(("haar_trace_cone", TOL), lambda: cone)
        return mutated

    return row


def _support_with(extra):
    """The counital support with one block more (extra set) or less."""

    def change(w, value):
        nu, residual, support = value
        if extra:
            rest = [b for b in range(w.algebra.nblocks) if b not in support]
            return (nu, residual, tuple(sorted([*support, rest[0]]))) if rest else None
        return (nu, residual, support[:-1]) if len(support) > 1 else None

    return change


OBJECT_ROWS = {
    "p + noise 1e-6": _projection(_particular(lambda w, p: p + 1e-6 * _noise(w.dim))),
    "p := 1": _projection(_particular(lambda w, p: w.algebra.unit)),
    "p x (1 + 5e-9)": _projection(_particular(lambda w, p: p * (1 + 5e-9))),
    "p with a free direction": _projection(_free_direction),
    "phi := block trace, weights 1..n": _trace(
        _particular(lambda w, phi: block_trace(w.algebra, np.arange(1, w.algebra.nblocks + 1)).vec)
    ),
    "phi + noise 1e-6": _trace(_particular(lambda w, phi: phi + 1e-6 * _noise(w.dim))),
    "phi x (1 + 5e-9)": _trace(_particular(lambda w, phi: phi * (1 + 5e-9))),
    "phi with a free direction": _trace(_free_direction),
    "phi := -phi": _trace(_particular(lambda w, phi: -phi)),
    "phi := the trace of block 0": _trace(
        _particular(lambda w, phi: block_trace(w.algebra, np.eye(w.algebra.nblocks)[0]).vec)
    ),
    "e without block 0 on leg 1, phi kept": _keeping_trace(e_without_block(1)),
    "e without block 0 on leg 0, phi kept": _keeping_trace(e_without_block(0)),
    "x_0 x 2": _spans(_scaled_factor),
    "N_s basis vector turned": _spans(_turned(True)),
    "N_t basis vector turned": _spans(_turned(False)),
    "N_s and N_t exchanged": _spans(_exchanged),
    "eps_t after an inner automorphism": _eps_t(
        lambda w, et: inner_automorphism(w.algebra, np.random.default_rng(0)) @ et
    ),
    "noise 1e-6 on eps_t": _eps_t(lambda w, et: et + 1e-6 * _noise(et.shape)),
    "support with a block more": _support(_support_with(True)),
    "support with a block less": _support(_support_with(False)),
    "hyper-central classes merged": _classes(lambda w, c: np.zeros_like(c) if c.max() > 0 else None),
    "hyper-central classes split": _classes(
        lambda w, c: np.arange(c.size) if c.max() + 1 < c.size else None
    ),
}

DERIVED_ROWS = {
    **{row: mutate for row, (_, mutate) in ROWS.items()},
    "S cycles three equal blocks": _cycled_blocks,
    **OBJECT_ROWS,
}


@lru_cache(maxsize=None)
def derived_runs(members=DERIVED_MEMBERS) -> tuple:
    """(report title, member, row, report) of every run of the derived table
    on the named members (all with 2 <= d <= 27 when None)."""
    out = []
    for entry in catalog():
        if members is not None and entry.name not in members:
            continue
        w = entry.build()
        if not 2 <= w.dim <= 27:
            continue
        for row, mutate in DERIVED_ROWS.items():
            mutated = mutate(w)
            if mutated is None:
                continue
            for title, derive in DERIVED.items():
                try:
                    out.append((title, entry.name, row, derive(mutated)))
                except (WkaError, np.linalg.LinAlgError):
                    continue
    return tuple(out)


def _check(name: str) -> str:
    """The name of a check with the number of its ray replaced by k: the
    trace cone reports ray_0_positive, ray_1_positive, ... one per ray."""
    return re.sub(r"^ray_\d+_", "ray_k_", name)


def count(runs) -> dict:
    """{(report name, check): (fails, fails alone)} over the runs."""
    counts = {}
    for report, _, _, rep, *_ in runs:
        if rep is None:
            continue
        failed = [c.name for c in rep.failures()]
        for c in rep.checks:
            key = report, _check(c.name)
            fails, alone = counts.get(key, (0, 0))
            counts[key] = (fails + (not c.passed), alone + (failed == [c.name]))
    return counts


@lru_cache(maxsize=None)
def table() -> dict:
    """The counts of both tables."""
    return count(runs() + derived_runs())


# The checks that no row fails alone, with the reason each stays.
_COPRODUCT = (
    "an axiom of the definition in the weakkac docstring: the mutations of Delta that"
    " break it also move the counit pair and the compressions, which read the same Delta"
)
_ANTIPODE = (
    "an axiom of the definition in the weakkac docstring: the mutations of S that break it"
    " also break anti-multiplicativity, the flip of Delta or the maps eps_s, eps_t that read S"
)
_COUNIT_PAIR = (
    "the counit pair of the definition: a mutation that breaks it changes Delta or eps,"
    " which axioms 2), 3) and the A-set read too (in the bimodule report axiom 3) is"
    " source_compression)"
)
_AXIOM1 = (
    "axiom 1) of the definition: a mutation of eps that breaks it also moves axiom 2) or"
    " the A-set, which read eps"
)
_A_SET = (
    "the A-set, the equivalent form of axioms 2) and 3) in the weakkac docstring: its"
    " identities share their terms (e, eps(xy), Delta), so a mutation fails several at once"
)
_BIMODULE = (
    "a condition of the Kac bimodule characterization of the counit: eps_t and eps_s are"
    " formed from Delta and S, so a mutation that breaks it also moves another of them"
)
_RELATION = (
    "a defining relation Delta(x) = e (x (x) 1) = (x (x) 1) e of N_s or N_t on the factor"
    " spans of e, as cartan_subalgebras reports it: a mutation that breaks it also breaks a"
    " compression (axiom 3 or A3''), which compares the same Delta with e"
)
_GENERALIZED_ANTIPODE = (
    "an axiom of (M, Delta, S), which a generalized Kac algebra assumes as a weak Kac"
    " algebra does: the mutations of S that break it also break another antipode axiom or"
    " the regular trace identity, which reads S"
)
_HAAR_TRACE = (
    "a Haar trace condition of the generalized Kac algebra: phi is the normalized Haar trace"
    " of the mutated structure and p its Haar projection, both solved from the same Delta"
    " and S, so a mutation that breaks one condition breaks another with it"
)
_ASSEMBLED = (
    "a counit axiom of the assembled algebra, reported only when every bimodule check"
    " passes: by the paper's equivalence those imply it, so it fails only near its limit,"
    " beside another counit axiom"
)
NEVER_ALONE = {
    **{(r, "delta_multiplicative"): _COPRODUCT for r in (VERIFY, BIMODULE)},
    **{(r, n): _ANTIPODE for r in (VERIFY, BIMODULE) for n in ("antipode_unital", "antipode_involutive")},
    **{(r, n): _COUNIT_PAIR for r in (VERIFY, BIMODULE) for n in ("counit_left", "counit_right")},
    **{(VERIFY, n): _AXIOM1 for n in ("axiom1_s_invariance", "axiom1_star")},
    **{
        (VERIFY, n): _A_SET
        for n in (
            "axiomA2", "axiomA2_prime", "axiomA3", "axiomA3_prime", "axiomA3_star", "axiomA4",
            "axiomA4_prime",
        )
    },
    **{
        (BIMODULE, n): _BIMODULE
        for n in (
            "eps_t_unital", "eps_s_unital", "eps_t_range_in_cartan", "eps_s_range_in_cartan",
            "target_cartan_closed", "source_cartan_closed", "routes_agree",
        )
    },
    **{(BIMODULE, n): _RELATION for n in ("source_defining_relation", "target_defining_relation")},
    **{
        (GENERALIZED, n): _GENERALIZED_ANTIPODE
        for n in ("antipode_unital", "antipode_involutive", "antipode_star", "antipode_antimultiplicative")
    },
    **{
        (GENERALIZED, n): _HAAR_TRACE
        for n in (
            "antipode_invariant", "haar_trace_identity", "regular_trace_left_unit",
            "regular_trace_right_unit", "haar_projection_flip",
        )
    },
    **{
        (BIMODULE, "assembled." + n): _ASSEMBLED
        for n in (
            "axiom1_s_invariance", "axiom2", "axiomA2", "axiomA2_prime", "axiomA3",
            "axiomA3_prime", "axiomA3_star", "axiomA4", "axiomA4_prime",
        )
    },
}

# The derived reports.
CARTAN, HAAR_P, HAAR_PHI, CONE = "Cartan subalgebras", "Haar projection", "normalized Haar trace", "Haar trace cone"
COUNITAL_REP, FUSION, QUOTIENT = "counital representation", "fusion ring", "counital quotient"
EXPECTATIONS = "Haar conditional expectations"

_CARTAN_FACTORS = (
    "a formula for e stated in the paper, its minimal factorization or its block form over"
    " the matrix units of N_s: a changed factor or Delta also moves biorthogonality or the"
    " antipode pairing of N_s with N_t"
)
_CARTAN_SPANS = (
    "a defining property of N_s and N_t: a span turned off its subalgebra breaks its"
    " relations, its closure and its commutation with the other span together"
)
_HAAR_P = (
    "a property of the Haar projection stated in BNS: p is the one element with all of"
    " them, so a changed p or Delta breaks several at once"
)
_HAAR_PHI = (
    "a defining property of the normalized Haar trace: phi is the one trace with all of"
    " them, so a changed phi breaks several at once, and the dual cross-check with them"
)
_CONE = (
    "the rays are phi cut to the hyper-central classes: a wrong class count or a changed"
    " phi moves the span of the rays as well"
)
_COUNITAL_REP = (
    "a property of pi_eps stated in the fusion docstring: pi_eps, its character and its"
    " decomposition are formed from the same eps_t and N_t, so they fail together"
)
_FUSION = (
    "a ring axiom of the fusion table: the table, its unit and its involution are read from"
    " the same characters, so a mutation that breaks one moves another"
)
_QUOTIENT_AXIOMS = (
    "a weak Kac axiom, here of the quotient, and in the axiom table of the member: a"
    " mutation compressed to the support breaks several axioms of the quotient at once"
)
_QUOTIENT_MORPHISM = (
    "a morphism property of the compression: it intertwines the structure maps only where"
    " the support is a sub-weak-Kac algebra, which the quotient checks read too"
)
_EXPECTATION = (
    "a property of the conditional expectations E_t, E_s or Eo_t stated in the paper: a"
    " changed phi or Delta moves an expectation as a whole, so several of its checks fail"
    " together"
)
NEVER_ALONE.update({
    (CARTAN, "factorization_reconstructs_e"): _CARTAN_FACTORS,
    **{
        (CARTAN, n): _CARTAN_SPANS
        for n in (
            "source_defining_relation", "source_closed", "target_closed", "cartans_commute",
            "antipode_swaps_cartans",
        )
    },
    **{
        (HAAR_P, n): _HAAR_P
        for n in (
            "idempotent", "self_adjoint", "antipode_fixed", "right_absorption", "left_absorption",
            "eps_t_normalized", "support_oracle_agrees", "counit_right_invariant",
            "counit_left_invariant", "source_ideal_is_mp", "target_ideal_is_pm",
            "ideal_intersection_is_pmp", "coproduct_flip_symmetric", "coproduct_block_ranks",
        )
    },
    **{(HAAR_PHI, n): _HAAR_PHI for n in ("antipode_invariant", "normalized", "invariance", "faithful_positive")},
    (CONE, "ray_count_matches_solution_space"): _CONE,
    **{
        (COUNITAL_REP, n): _COUNITAL_REP
        for n in (
            "action_lands_in_cartan", "unital", "character_formula", "multiplicities_integral",
            "multiplicity_free", "support_blocks_self_conjugate",
        )
    },
    **{
        (FUSION, n): _FUSION
        for n in ("involution_is_involution", "associative", "unit_left", "unit_right")
    },
    **{(QUOTIENT, "morphism." + n): _QUOTIENT_MORPHISM for n in ("intertwines_coproduct", "intertwines_antipode")},
    **{
        (QUOTIENT, "quotient." + n): _QUOTIENT_AXIOMS
        for n in (
            "delta_coassociative", "delta_multiplicative", "delta_star_compatible", "antipode_unital",
            "antipode_star",
            "antipode_flips_coproduct", "counit_left", "counit_right", "axiom1_s_invariance",
            "axiom1_star", "axiom3", "axiomA2", "axiomA3", "axiomA4", "axiomA2_prime", "axiomA3_prime",
            "axiomA3_doubleprime", "axiomA3_star", "axiomA4_prime",
        )
    },
    **{
        (EXPECTATIONS, prefix + n): _EXPECTATION
        for prefix in ("target.", "source.", "relative.")
        for n in (
            "unital", "range_in_target", "identity_on_target", "bimodular", "completely_positive",
            "faithful",
        )
    },
    **{
        (EXPECTATIONS, p + n): _EXPECTATION
        for p in ("target.", "source.")
        for n in ("star_preserving", "trace_preserving")
    },
    **{
        (EXPECTATIONS, n): _EXPECTATION
        for n in (
            "target_formulas_agree", "target_intertwines_coproduct", "source_intertwines_coproduct",
            "antipode_exchange", "relative_right_sandwich", "relative_left_sandwich",
            "relative_preserves_cone_traces", "right_leg_injective", "left_leg_injective",
        )
    },
})

# The checks that no row fails, with the reason no mutation reaches them.
_COMPRESSION = (
    "restrict_to_blocks builds a block compression, a unital *-homomorphism onto the"
    " quotient whatever the support is"
)
NEVER_FAILS = {
    **{(QUOTIENT, "morphism." + n): _COMPRESSION for n in ("unital", "star_homomorphism", "multiplicative")},
    (GENERALIZED, "tracial"): (
        "the table's phi is the normalized Haar trace, a combination of block traces and so"
        " tracial; a phi further from tracial than 100 abs_tol raises NotTracial instead"
    ),
}

# The rows on which axioms 2)+3) and A2+A3+A4 disagree while the coproduct
# and antipode checks pass.  Each is a near-limit row: it moves residuals to
# about the limit, where the different constants of the two forms decide; on
# the exact mutations, at 1e-6 and at a few times the limit the two forms
# accept or reject together.
DISAGREE = {
    "Delta(b_0) x (1 + 5e-10)",
    "noise 3e-10 on the nonzeros of Delta",
    "star-symmetric noise 3e-10 on Delta",
    "the same noise 3e-10, legs exchanged",
    "S x exp(5e-10 i)",
    "noise 3e-10 on the nonzeros of eps",
}


# The (row, pair of reports) on which the paper's three axiom systems judge
# a run differently.  Each is a near-limit row: it moves residuals to about
# the limit, where the residuals of each report, formed from different
# objects (eps in verify, the eps recovered from e in the bimodule report,
# the Haar trace and projection in the generalized one), decide apart.
_NEAR_LIMIT = "a near-limit row: its residuals sit at about the limit, where rounding decides"
THREE_WAY = {
    (row, pair): _NEAR_LIMIT
    for row, pairs in (
        ("Delta(b_0) x (1 + 5e-10)", "all"),
        ("S x exp(5e-10 i)", "all"),
        ("noise 3e-10 on the nonzeros of Delta", "generalized"),
        ("star-symmetric noise 3e-10 on Delta", "all"),
        ("the same noise 3e-10, legs exchanged", "all"),
    )
    for pair in combinations((VERIFY, BIMODULE, GENERALIZED), 2)
    if pairs == "all" or GENERALIZED in pair
}


def _names_on_cube2() -> set:
    """(report, check) of every check the reports emit on cube_family(2)."""
    w = cube_family(2)
    rep, _ = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
    reports = {
        VERIFY: verify_weak_kac(w),
        BIMODULE: rep,
        GENERALIZED: _generalized(w)[0],
        **{t: derive(w) for t, derive in DERIVED.items()},
    }
    return {(title, _check(c.name)) for title, rep in reports.items() for c in rep.checks}


def _counts() -> dict:
    return {**dict.fromkeys(_names_on_cube2(), (0, 0)), **table()}


def test_every_check_has_a_row_that_fails_it():
    """Every check fails in some run, but those named in NEVER_FAILS."""
    unfailed = {key for key, (fails, _) in _counts().items() if fails == 0}
    joined, left = unfailed - set(NEVER_FAILS), set(NEVER_FAILS) - unfailed
    assert not joined, f"checks that no row fails, not in NEVER_FAILS: {sorted(joined)}"
    assert not left, f"checks in NEVER_FAILS that a row fails: {sorted(left)}"


def test_the_checks_that_never_fail_alone_are_the_named_ones():
    never_alone = {key for key, (fails, alone) in _counts().items() if fails and not alone}
    joined, left = never_alone - set(NEVER_ALONE), set(NEVER_ALONE) - never_alone
    assert not joined, f"checks that no row fails alone, not in NEVER_ALONE: {sorted(joined)}"
    assert not left, f"checks in NEVER_ALONE that a row fails alone: {sorted(left)}"


def test_the_two_axiom_sets_accept_or_reject_together():
    """The paper's equivalence of axioms 2)+3) with A2+A3+A4, on every run
    where the coproduct and antipode checks pass: in verify_weak_kac, and
    among the counit axioms of the algebra check_kac_bimodule assembles,
    whose axiom 3) is source_compression."""
    disagree = set()
    for report, _, row, rep, _ in runs():
        if report == GENERALIZED:
            continue
        prefix = "" if report == VERIFY else "assembled."
        axiom3 = "axiom3" if report == VERIFY else "source_compression"
        names = {c.name for c in rep.checks}
        if prefix + "axiom2" not in names:
            continue
        if not all(c.passed for c in rep.checks if c.name.startswith(("delta_", "antipode_"))):
            continue
        set23 = rep[prefix + "axiom2"].passed and rep[axiom3].passed
        set_a = all(rep[prefix + n].passed for n in ("axiomA2", "axiomA3", "axiomA4"))
        if set23 != set_a:
            disagree.add(row)
    assert disagree == DISAGREE


def test_the_three_axiom_systems_judge_every_run_alike():
    """The paper's theorem: on every run that leaves the counit alone,
    verify_weak_kac, check_kac_bimodule and check_generalized_kac accept
    or reject together, but for the near-limit rows pinned in THREE_WAY (a
    raise of the normalized Haar trace or of the check rejects).  Where
    all three accept, the counits that check_kac_bimodule and
    generalized_to_weak recover from (M, Delta, S) are the stored one
    within abs_tol."""
    stored = {entry.name: entry.build().counit for entry in catalog()}
    verdicts, counits = {}, {}
    for report, member, row, rep, counit in runs():
        if not ROWS[row][0]:
            verdicts.setdefault((member, row), {})[report] = rep is not None and rep.passed
            counits[member, row, report] = counit
    disagree = set()
    for (member, row), verdict in verdicts.items():
        disagree |= {(row, pair) for pair in combinations(verdict, 2) if verdict[pair[0]] != verdict[pair[1]]}
        if all(verdict.values()):
            for report in (BIMODULE, GENERALIZED):
                assert max_abs(counits[member, row, report] - stored[member]) <= TOL.abs_tol, (member, row)
    assert disagree == set(THREE_WAY)
    for row, _ in THREE_WAY:
        assert float(re.search(r"\d+e-\d+", row)[0]) <= 5e-9, row


if __name__ == "__main__":
    counts = table()
    for report in (VERIFY, BIMODULE, GENERALIZED, *DERIVED):
        print(f"== {report}")
        for (title, name), (fails, alone) in counts.items():
            if title == report:
                print(f"   {name:<40} fails {fails:>4}  alone {alone:>4}")
    print(f"{len(runs())} axiom runs, {len(derived_runs())} derived runs")

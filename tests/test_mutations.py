"""The mutation table of the axiom suite.

Each row mutates the structure of every catalog member with 2 <= d <= 27
and runs verify_weak_kac on it, and check_kac_bimodule too when the row
leaves the counit alone (the bimodule check takes no counit).  The table
records, for every check of the two reports, in how many runs it fails and
in how many it is the only failing check of its report ("fails alone").

No check is kept that cannot fail: every check that either report emits on
cube_family(2) has a row that fails it, and every check that no row fails
alone is named in NEVER_ALONE with the reason it stays.  A new check
therefore arrives with a mutation that fails it, and one that joins or
leaves the never-alone list changes NEVER_ALONE.

`PYTHONPATH=src:tests python tests/test_mutations.py` prints the table.
"""

from functools import lru_cache

import numpy as np

from wka import WeakKac, catalog, check_kac_bimodule, cube_family, verify_weak_kac

from conftest import dense_coproduct, inner_automorphism, moved_entry

VERIFY, BIMODULE = "verify_weak_kac", "check_kac_bimodule"


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


def _star_symmetric_noise(flip):
    """3e-9 noise on the nonzeros of the coproduct, averaged with its image
    under x -> (* (x) *) noise(x*) so that Delta stays a *-map, and with
    its legs exchanged when flip is set."""

    def change(w, t):
        star = w.algebra.star_index
        noise = 3e-9 * (t != 0) * _noise(t.shape)
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
# returns None where it does not apply.  The rows at 5e-9 and the
# star-symmetric noise stay inside the limits of the coproduct and antipode
# checks and cross those of the counit axioms of the assembled algebra.
ROWS = {
    "moved coproduct entry": (False, _moved_entry),
    "moved entry of flip Delta": (False, _moved_entry_of_the_flip),
    "Delta(b_1) := Delta(b_0)": (False, _coproduct(_copy_row)),
    "Delta(b_0) x 1e-3": (False, _coproduct(_scaled_row(factor=1e-3))),
    "Delta(b_0) to norm 3e-8": (False, _coproduct(_scaled_row(norm=3e-8))),
    "Delta(b_0) x (1 + 5e-9)": (False, _coproduct(_scaled_row(factor=1 + 5e-9))),
    "noise 1e-6 on the nonzeros of Delta": (False, _coproduct(_nonzero_noise(1e-6))),
    "noise 3e-9 on the nonzeros of Delta": (False, _coproduct(_nonzero_noise(3e-9))),
    "star-symmetric noise 3e-9 on Delta": (False, _coproduct(_star_symmetric_noise(False))),
    "the same noise, legs exchanged": (False, _coproduct(_star_symmetric_noise(True))),
    "Delta x (1 + 1e-6)": (False, _coproduct(lambda w, t: t * (1 + 1e-6))),
    "noise 1e-6 on the nonzeros of S": (False, _antipode(_nonzero_noise(1e-6))),
    "noise 3e-9 on the nonzeros of S": (False, _antipode(_nonzero_noise(3e-9))),
    "S after an inner automorphism": (
        False,
        _antipode(lambda w, s: s @ inner_automorphism(w.algebra, np.random.default_rng(0))),
    ),
    "S := id": (False, _antipode(lambda w, s: np.eye(w.dim))),
    "phase on one column of S": (False, _antipode(_column_phase)),
    "S x exp(5e-9 i)": (False, _antipode(lambda w, s: s * np.exp(5e-9j))),
    "noise 1e-6 on the nonzeros of eps": (True, _counit(_nonzero_noise(1e-6))),
    "noise 3e-9 on the nonzeros of eps": (True, _counit(_nonzero_noise(3e-9))),
    "eps x 1.5": (True, _counit(lambda w, eps: 1.5 * eps)),
    "eps + 1e-6i": (True, _counit(lambda w, eps: eps + 1e-6j)),
}


@lru_cache(maxsize=None)
def runs() -> tuple:
    """(report name, member, row, report) of every run of the table."""
    out = []
    for entry in catalog():
        w = entry.build()
        if not 2 <= w.dim <= 27:
            continue
        for row, (counit, mutate) in ROWS.items():
            mutated = mutate(w)
            if mutated is None:
                continue
            out.append((VERIFY, entry.name, row, verify_weak_kac(mutated)))
            if not counit:
                rep, _ = check_kac_bimodule(w.algebra, mutated.coproduct, mutated.antipode)
                out.append((BIMODULE, entry.name, row, rep))
    return tuple(out)


@lru_cache(maxsize=None)
def table() -> dict:
    """{(report name, check): (fails, fails alone)} over every run."""
    counts = {}
    for report, _, _, rep in runs():
        failed = [c.name for c in rep.failures()]
        for c in rep.checks:
            fails, alone = counts.get((report, c.name), (0, 0))
            counts[report, c.name] = (fails + (not c.passed), alone + (failed == [c.name]))
    return counts


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
    " which axioms 2), 3) and the A-set read too"
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
_ASSEMBLED = (
    "a counit axiom of the assembled algebra, reported only when every bimodule check"
    " passes: by the paper's equivalence those imply it, so it fails only near its limit,"
    " beside another counit axiom"
)
NEVER_ALONE = {
    **{(report, "delta_multiplicative"): _COPRODUCT for report in (VERIFY, BIMODULE)},
    (VERIFY, "delta_coassociative"): _COPRODUCT,
    **{(r, n): _ANTIPODE for r in (VERIFY, BIMODULE) for n in ("antipode_unital", "antipode_involutive")},
    **{(VERIFY, n): _COUNIT_PAIR for n in ("counit_left", "counit_right")},
    (BIMODULE, "counit_left"): _COUNIT_PAIR,
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
            "target_cartan_closed", "source_cartan_closed", "target_compression",
            "source_compression", "routes_agree",
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

# The rows on which axioms 2)+3) and A2+A3+A4 disagree while the coproduct
# and antipode checks pass.  Each moves residuals to a few times the limit,
# where the different constants of the two forms decide; on the exact
# mutations and at 1e-6 the two forms accept or reject together.
DISAGREE = {
    "Delta(b_0) x (1 + 5e-9)",
    "star-symmetric noise 3e-9 on Delta",
    "the same noise, legs exchanged",
    "S x exp(5e-9 i)",
    "noise 3e-9 on the nonzeros of eps",
}


def _names_on_cube2() -> set:
    w = cube_family(2)
    rep, _ = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
    return {(VERIFY, c.name) for c in verify_weak_kac(w).checks} | {(BIMODULE, c.name) for c in rep.checks}


def test_every_check_has_a_row_that_fails_it():
    counts = table()
    unfailed = sorted(key for key in _names_on_cube2() if counts.get(key, (0, 0))[0] == 0)
    assert not unfailed, f"checks that no row fails: {unfailed}"


def test_the_checks_that_never_fail_alone_are_the_named_ones():
    counts = {**dict.fromkeys(_names_on_cube2(), (0, 0)), **table()}
    never_alone = {key for key, (_, alone) in counts.items() if alone == 0}
    joined, left = never_alone - set(NEVER_ALONE), set(NEVER_ALONE) - never_alone
    assert not joined, f"checks that no row fails alone, not in NEVER_ALONE: {sorted(joined)}"
    assert not left, f"checks in NEVER_ALONE that a row fails alone: {sorted(left)}"


def test_the_two_axiom_sets_accept_or_reject_together():
    """The paper's equivalence of axioms 2)+3) with A2+A3+A4, on every run
    where the coproduct and antipode checks pass: in verify_weak_kac, and
    among the counit axioms of the algebra check_kac_bimodule assembles."""
    disagree = set()
    for report, _, row, rep in runs():
        prefix = "" if report == VERIFY else "assembled."
        names = {c.name for c in rep.checks}
        if prefix + "axiom2" not in names:
            continue
        if not all(c.passed for c in rep.checks if c.name.startswith(("delta_", "antipode_"))):
            continue
        set23 = all(rep[prefix + n].passed for n in ("axiom2", "axiom3"))
        set_a = all(rep[prefix + n].passed for n in ("axiomA2", "axiomA3", "axiomA4"))
        if set23 != set_a:
            disagree.add(row)
    assert disagree == DISAGREE


if __name__ == "__main__":
    for (report, name), (fails, alone) in sorted(table().items()):
        print(f"{report:<20} {name:<32} fails {fails:>4}  alone {alone:>4}")
    print(f"{len(runs())} runs")

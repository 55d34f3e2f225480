"""Acceptance suite: thirteen criteria over the full constructor catalog.

Each criterion prints a single pass/fail summary line (visible with -s).
"""

import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

from wka import (
    WeakKac,
    biduality_isomorphism,
    cartan_subalgebras,
    catalog,
    check_kac_bimodule,
    check_morphism,
    counit_from_haar,
    cube_family,
    cyclic_groupoid,
    direct_sum,
    dual,
    elementary,
    elementary_twist,
    generalized_to_weak,
    groupoid_algebra,
    groupoid_dual_isomorphisms,
    groupoid_function_algebra,
    haar_projection,
    normalized_haar_trace,
    pair_groupoid,
    random_cocycle,
    untwist_isomorphism,
    verify_weak_kac,
)
from wka.fusion import counital_representation, fusion_ring
from wka.haar import (
    check_haar_projection,
    check_normalized_haar_trace,
    haar_conditional_expectations,
)

from conftest import dense_coproduct, mult_tensor

_build_seconds = {}


@lru_cache(maxsize=None)
def members():
    out = []
    t0 = time.perf_counter()
    for entry in catalog():
        out.append((entry.name, entry.build()))
    _build_seconds["catalog"] = time.perf_counter() - t0
    return tuple(out)


@lru_cache(maxsize=None)
def haar_reports():
    return {name: check_haar_projection(w) for name, w in members()}


def emit(num, ok, text):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {text}")


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    worst, bad = 0.0, []
    for name, w in members():
        rep = verify_weak_kac(w)
        worst = max(worst, rep.max_residual)
        if not rep.passed:
            bad.append(name)
    elapsed = time.perf_counter() - t0
    ok = not bad and worst <= 1e-8 and elapsed <= 300.0
    emit(1, ok, f"axiom suite: {len(members())} members, worst residual {worst:.1e}, {elapsed:.1f}s")
    assert ok, f"failures: {bad}, worst {worst:.2e}, elapsed {elapsed:.1f}s"


def test_criterion_02_counit_of_unit():
    worst = 0.0
    for name, w in members():
        pair = cartan_subalgebras(w)
        worst = max(worst, abs(w.counit @ w.algebra.unit - pair.target.dim))
    ok = worst <= 1e-8
    emit(2, ok, f"eps(1) = dim N_t: worst deviation {worst:.1e}")
    assert ok


def test_criterion_03_haar_projection():
    worst_agree, all_unique = 0.0, True
    for name, (p, rep) in haar_reports().items():
        worst_agree = max(worst_agree, rep["support_oracle_agrees"].residual)
        all_unique = all_unique and rep["unique"].passed
    w2 = groupoid_algebra(cyclic_groupoid(2))
    carried = w2.meta["from_canonical"] @ haar_projection(w2).coeffs
    dev = np.abs(carried - np.array([0.5, 0.5])).max()
    ok = worst_agree <= 1e-8 and all_unique and dev <= 1e-12
    emit(3, ok, f"haar projection: oracle agreement {worst_agree:.1e}, unique everywhere, (1+g)/2 dev {dev:.1e}")
    assert ok


def test_criterion_04_coproduct_of_haar_projection():
    worst_eval, worst_flip = 0.0, 0.0
    for name, (p, rep) in haar_reports().items():
        worst_eval = max(worst_eval, rep["coproduct_evaluation_formula"].residual)
        worst_flip = max(worst_flip, rep["coproduct_flip_symmetric"].residual)
    ok = worst_eval <= 1e-8 and worst_flip <= 1e-8
    emit(4, ok, f"Delta(p_eps): evaluation formula {worst_eval:.1e}, flip symmetry {worst_flip:.1e}")
    assert ok


def test_criterion_05_normalized_haar_trace():
    worst_pairing, all_unique = 0.0, True
    for name, w in members():
        phi, rep = check_normalized_haar_trace(w)
        all_unique = all_unique and rep["unique"].passed
        worst_pairing = max(worst_pairing, rep["matches_dual_haar_projection"].residual)
    worst_cube = 0.0
    for n in (2, 3, 4):
        w = cube_family(n)
        expected = np.zeros(n ** 3)
        for k in range(n):
            for i in range(n):
                expected[k * n * n + i * n + i] = 1.0 / n
        worst_cube = max(worst_cube, np.abs(normalized_haar_trace(w).vec - expected).max())
    ok = all_unique and worst_pairing <= 1e-8 and worst_cube <= 1e-10
    emit(5, ok, f"haar trace: unique, dual pairing {worst_pairing:.1e}, cube canonical {worst_cube:.1e}")
    assert ok


def test_criterion_06_conditional_expectations():
    worst, bad = 0.0, []
    for name, w in members():
        *_, rep = haar_conditional_expectations(w)
        worst = max(worst, rep.max_residual)
        if not rep.passed or rep.max_residual > 1e-7:
            bad.append(name)
    ok = not bad and worst <= 1e-7
    emit(6, ok, f"conditional expectations: 200 random tuples per member, worst {worst:.1e}")
    assert ok, f"failures: {bad}"


def test_criterion_07_biduality():
    worst, bad = 0.0, []
    for name, w in members():
        _, _, rep = biduality_isomorphism(w)
        worst = max(worst, rep.max_residual)
        if not rep.passed or rep.max_residual > 1e-7:
            bad.append(name)
    dual_ok = True
    for n in (2, 3):
        duality = groupoid_dual_isomorphisms(pair_groupoid(n))
        dual_ok = dual_ok and duality.report.passed
    ok = not bad and worst <= 1e-7 and dual_ok
    emit(7, ok, f"biduality: worst {worst:.1e}; dual(CK_n) = C(K_n) for n = 2, 3")
    assert ok, f"failures: {bad}"


def test_criterion_08_counit_recovery():
    worst, bad = 0.0, []
    for name, w in members():
        data = (w.algebra, w.coproduct, w.antipode)
        phi = normalized_haar_trace(w)
        eps = counit_from_haar(data, phi)
        dev = np.abs(eps.vec - w.counit).max()
        worst = max(worst, dev)
        rebuilt = generalized_to_weak(data, phi)
        if dev > 1e-7 or not verify_weak_kac(rebuilt).passed:
            bad.append(name)
    ok = not bad and worst <= 1e-7
    emit(8, ok, f"counit recovery from haar trace: worst coefficient error {worst:.1e}")
    assert ok, f"failures: {bad}"


def test_criterion_09_kac_bimodule():
    worst, bad = 0.0, []
    for name, w in members():
        rep, eps = check_kac_bimodule(w.algebra, w.coproduct, w.antipode)
        dev = np.abs(eps.vec - w.counit).max() if eps is not None else np.inf
        worst = max(worst, dev)
        if not rep.passed or dev > 1e-7:
            bad.append(name)
    w = cube_family(2)
    scaled, _ = check_kac_bimodule(w.algebra, 0.5 * dense_coproduct(w), w.antipode)
    ok = not bad and not scaled.passed and scaled.max_residual >= 0.5
    emit(9, ok, f"kac bimodule: counit recovered everywhere (worst {worst:.1e}); scaled Delta fails at {scaled.max_residual:.2f}")
    assert ok, f"failures: {bad}"


def test_criterion_10_elementary_classification():
    shapes = [(1, 1), (1, 2), (1, 1, 1), (1, 1, 2)]
    worst, bad = 0.0, []
    for shape in shapes:
        w0 = elementary(shape)
        for seed in range(5):
            lam = random_cocycle(len(shape), seed=seed)
            wt = elementary_twist(w0, lam)
            rep = check_morphism(wt, w0, untwist_isomorphism(wt))
            worst = max(worst, rep.max_residual)
            if not rep.passed or rep.max_residual > 1e-8:
                bad.append((shape, seed))
    cartan_ok = True
    for shape in ((1,), (1, 1), (1, 1, 1), (1, 2), (2,)):
        pair = cartan_subalgebras(elementary(shape))
        cartan_ok = cartan_ok and tuple(pair.target_shape) == shape
    ok = not bad and worst <= 1e-8 and cartan_ok
    emit(10, ok, f"untwisting: {5 * len(shapes)} cocycles, worst {worst:.1e}; Cartan of M(A) has the shape of A")
    assert ok, f"failures: {bad}"


def test_criterion_11_fusion():
    bad = []
    for name, w in members():
        fr, rep = fusion_ring(w)
        cr, _ = counital_representation(w)
        integral = np.abs(fr.table - np.round(fr.table)).max() <= 1e-6
        unit = rep["unit_left"].passed and rep["unit_right"].passed
        free = all(cr.multiplicities[i] == 1 for i in cr.support)
        if not (integral and unit and free):
            bad.append(name)
    ok = not bad
    emit(11, ok, "fusion: integral multiplicities, chi_eps two-sided unit, pi_eps multiplicity-free")
    assert ok, f"failures: {bad}"


def _commutation_residuals(w):
    mult = mult_tensor(w.algebra)
    comm = np.abs(mult - mult.transpose(1, 0, 2)).max()
    t = dense_coproduct(w)
    cocomm = np.abs(t - t.transpose(0, 2, 1)).max()
    return comm, cocomm


def _random_small_combos(count=50):
    rng = np.random.default_rng(0xD1A7)
    pieces = [
        lambda: elementary((1,)),
        lambda: groupoid_algebra(cyclic_groupoid(2)),
        lambda: groupoid_function_algebra(cyclic_groupoid(2)),
        lambda: groupoid_algebra(cyclic_groupoid(3)),
        lambda: groupoid_function_algebra(cyclic_groupoid(3)),
        lambda: elementary_twist(elementary((1, 1)), random_cocycle(2, seed=int(rng.integers(1000)))),
        lambda: dual(elementary_twist(elementary((1, 1)), random_cocycle(2, seed=int(rng.integers(1000))))),
    ]
    combos = []
    while len(combos) < count:
        w = pieces[rng.integers(len(pieces))]()
        while True:
            piece = pieces[rng.integers(len(pieces))]()
            if w.dim + piece.dim >= 8:
                break
            w = direct_sum(w, piece)
        if w.dim < 8:
            combos.append(w)
    return combos


def test_criterion_12_dimension_below_eight():
    bad = []
    for name, w in members():
        if w.dim < 8:
            comm, cocomm = _commutation_residuals(w)
            if min(comm, cocomm) > 1e-8:
                bad.append(name)
    combos = _random_small_combos(50)
    for i, w in enumerate(combos):
        comm, cocomm = _commutation_residuals(w)
        if min(comm, cocomm) > 1e-8:
            bad.append(f"combo{i}")
    c_comm, c_cocomm = _commutation_residuals(cube_family(2))
    ok = not bad and c_comm >= 0.1 and c_cocomm >= 0.1
    emit(12, ok, f"dim < 8 forces (co)commutativity on {len(combos)} random combos; cube(2) violates both at {min(c_comm, c_cocomm):.2f}")
    assert ok, f"failures: {bad}"


def test_criterion_13_cli_pipeline(tmp_path):
    timings = {}
    for label, spec in (("cube-family", ["cube-family", "2"]), ("elementary", ["elementary", "1,2"])):
        path = str(tmp_path / f"{label}.wka")
        dual_path = path + ".dual"
        steps = [
            ["build", *spec, "-o", path],
            ["verify", path],
            ["derive", "--what", "all", path],
            ["dual", path, "-o", dual_path],
            ["verify", dual_path],
        ]
        t0 = time.perf_counter()
        for step in steps:
            r = subprocess.run(
                [sys.executable, "-m", "wka.cli", *step],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert r.returncode == 0, f"{label} {step}: {r.stdout}{r.stderr}"
        timings[label] = time.perf_counter() - t0
    ok = all(t <= 30.0 for t in timings.values())
    emit(13, ok, "CLI pipeline build/verify/derive/dual/verify: " + ", ".join(f"{k} {v:.1f}s" for k, v in timings.items()))
    assert ok, timings

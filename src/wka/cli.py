"""Command line front end.

Subcommands: build, verify, derive, dual, check-gen-kac, recover-counit,
report.  Exit code 0 means all checks passed, 1 means a verification
failure, 2 means bad input (unparsable file, unknown constructor, out of
range indices, a tolerance that is not positive and finite).  The
default tolerance is 1e-9, overridable per call with --tol or globally
with the WKA_TOL environment variable.  A residual check passes iff its
residual is at most the tolerance, and every other cutoff is a multiple of
it.
All output is deterministic for a fixed input and tolerance.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .algebra import regular_trace
from .catalog import CONSTRUCTOR_NAMES, build_named
from .duality import dual, generalized_to_weak
from .errors import (
    IndexOutOfRange,
    InvalidAction,
    InvalidCocycle,
    InvalidGroupoid,
    NotCounital,
    ParseError,
    WkaError,
)
from .fusion import counital_quotient, counital_representation, fusion_ring
from .haar import (
    check_generalized_kac,
    check_haar_projection,
    check_normalized_haar_trace,
    haar_conditional_expectations,
    haar_trace_cone,
    normalized_haar_trace,
)
from .tensorkit import Tolerance, max_abs
from .weakkac import cartan_subalgebras, hyper_center, verify_weak_kac
from .storage import load_wka, save_wka

__all__ = ["main"]

INPUT_ERRORS = (
    ParseError,
    IndexOutOfRange,
    InvalidGroupoid,
    InvalidCocycle,
    InvalidAction,
    NotCounital,
    ValueError,
    OSError,
)

DERIVATIONS = (
    "cartan",
    "haar",
    "counital-rep",
    "fusion",
    "quotient",
    "expectations",
    "hypercenter",
)


def _tolerance(args) -> Tolerance:
    if getattr(args, "tol", None) is not None:
        source, value = "--tol", args.tol
    else:
        source, value = "WKA_TOL", os.environ.get("WKA_TOL")
        if not value:
            return Tolerance()
    try:
        return Tolerance(abs_tol=float(value))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _summary(w) -> str:
    blocks = ",".join(str(d) for d in w.algebra.block_shape)
    return f"dim={w.dim} blocks=({blocks})"


def _require_counit(w):
    if w.counit is None:
        raise NotCounital(
            "file stores no counit; use check-gen-kac or recover-counit"
        )


def cmd_build(args) -> int:
    w = build_named(args.constructor, args.params)
    w.meta["constructor"] = " ".join([args.constructor] + args.params)
    save_wka(w, args.output)
    print(f"wrote {args.output}: {args.constructor} {_summary(w)}")
    return 0


def cmd_verify(args) -> int:
    w = load_wka(args.file)
    _require_counit(w)
    rep = verify_weak_kac(w, _tolerance(args))
    print(rep.as_text())
    return 0 if rep.passed else 1


def _derive_one(w, what: str, tol) -> list:
    """Reports for one derived structure, printing structure summaries."""
    if what == "cartan":
        pair = cartan_subalgebras(w, tol)
        print(
            f"cartan: dim N_t = {pair.target.dim}, "
            f"N_t blocks = {tuple(pair.target_shape)}, "
            f"N_s blocks = {tuple(pair.source_shape)}"
        )
        return [pair.report]
    if what == "haar":
        _, prep = check_haar_projection(w, tol)
        phi, trep = check_normalized_haar_trace(w, tol)
        rays, crep = haar_trace_cone(w, tol)
        print(f"haar: trace cone has {len(rays)} extreme ray(s)")
        return [prep, trep, crep]
    if what == "counital-rep":
        rep_, rrep = counital_representation(w, tol)
        print(
            f"counital-rep: support blocks {tuple(rep_.support)}, "
            f"multiplicities {tuple(int(m) for m in rep_.multiplicities)}"
        )
        return [rrep]
    if what == "fusion":
        ring, frep = fusion_ring(w, tol)
        print(f"fusion: support blocks {tuple(ring.support)}")
        for i in ring.support:
            for j in ring.support:
                terms = [
                    f"{int(ring.table[i, j, k])}*[{k}]"
                    for k in range(ring.nblocks)
                    if ring.table[i, j, k]
                ]
                print(f"  [{i}] x [{j}] = " + (" + ".join(terms) if terms else "0"))
        inv = " ".join(f"{i}->{int(ring.involution[i])}" for i in ring.support)
        print(f"  involution: {inv}")
        return [frep]
    if what == "quotient":
        q, _, qrep = counital_quotient(w, tol)
        print(f"quotient: {_summary(q)}")
        return [qrep]
    if what == "expectations":
        *_, erep = haar_conditional_expectations(w, tol=tol)
        return [erep]
    if what == "hypercenter":
        hc = hyper_center(w, tol)
        print(f"hypercenter: dimension {hc.dim}" + (" (trivial)" if hc.dim <= 1 else ""))
        return []
    raise ValueError(f"unknown derivation {what!r}")


def cmd_derive(args) -> int:
    w = load_wka(args.file)
    _require_counit(w)
    tol = _tolerance(args)
    whats = DERIVATIONS if args.what == "all" else (args.what,)
    ok = True
    for what in whats:
        for rep in _derive_one(w, what, tol):
            print(rep.as_text())
            ok = ok and rep.passed
    return 0 if ok else 1


def cmd_dual(args) -> int:
    w = load_wka(args.file)
    _require_counit(w)
    dw = dual(w, _tolerance(args))
    save_wka(dw, args.output)
    print(f"wrote {args.output}: dual {_summary(dw)}")
    return 0


def cmd_check_gen_kac(args) -> int:
    w = load_wka(args.file)
    tol = _tolerance(args)
    if args.trace == "normalized":
        phi = normalized_haar_trace(w, tol)
    else:
        phi = regular_trace(w.algebra)
    rep = check_generalized_kac(w, phi, tol)
    print(rep.as_text())
    return 0 if rep.passed else 1


def cmd_recover_counit(args) -> int:
    w = load_wka(args.file)
    tol = _tolerance(args)
    recovered = generalized_to_weak(w, normalized_haar_trace(w, tol), tol)
    rows = " ".join(f"{v.real:.12g}{v.imag:+.12g}j" for v in recovered.counit)
    print(f"recovered counit: {rows}")
    if w.counit is not None:
        print(f"stored counit deviation: {max_abs(recovered.counit - w.counit):.3e}")
    rep = verify_weak_kac(recovered, tol)
    print(rep.as_text())
    if args.output:
        save_wka(recovered, args.output)
        print(f"wrote {args.output}: recovered {_summary(recovered)}")
    return 0 if rep.passed else 1


def cmd_report(args) -> int:
    w = load_wka(args.file)
    _require_counit(w)
    tol = _tolerance(args)
    reports = [verify_weak_kac(w, tol)]
    reports.append(cartan_subalgebras(w, tol).report)
    _, prep = check_haar_projection(w, tol)
    reports.append(prep)
    _, trep = check_normalized_haar_trace(w, tol)
    reports.append(trep)
    if args.format == "json":
        obj = {
            "file": args.file,
            "block_shape": [int(d) for d in w.algebra.block_shape],
            "dim": w.dim,
            "passed": all(r.passed for r in reports),
            "reports": [r.as_dict() for r in reports],
        }
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        print(f"{args.file}: {_summary(w)}")
        for rep in reports:
            print(rep.as_text())
    return 0 if all(r.passed for r in reports) else 1


@functools.cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wka",
        description="Construct, verify and analyze finite weak Kac algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_tol(sp):
        sp.add_argument("--tol", type=float, default=None, help="absolute tolerance")

    b = sub.add_parser("build", help="build a named algebra and write it")
    b.add_argument("constructor", help="one of: " + ", ".join(CONSTRUCTOR_NAMES))
    b.add_argument("params", nargs="*", help="constructor parameters")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the full axiom suite on a file")
    v.add_argument("file")
    add_tol(v)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("derive", help="compute a derived structure")
    d.add_argument("file")
    d.add_argument("--what", required=True, choices=DERIVATIONS + ("all",))
    add_tol(d)
    d.set_defaults(func=cmd_derive)

    du = sub.add_parser("dual", help="write the dual weak Kac algebra")
    du.add_argument("file")
    du.add_argument("-o", "--output", required=True)
    add_tol(du)
    du.set_defaults(func=cmd_dual)

    g = sub.add_parser(
        "check-gen-kac", help="check the generalized Kac axioms for a trace"
    )
    g.add_argument("file")
    g.add_argument("--trace", choices=("normalized", "regular"), default="normalized")
    add_tol(g)
    g.set_defaults(func=cmd_check_gen_kac)

    r = sub.add_parser(
        "recover-counit", help="recover the counit from the normalized Haar trace"
    )
    r.add_argument("file")
    r.add_argument("-o", "--output", default=None)
    add_tol(r)
    r.set_defaults(func=cmd_recover_counit)

    rp = sub.add_parser("report", help="full verification report")
    rp.add_argument("file")
    rp.add_argument("--format", choices=("text", "json"), default="text")
    add_tol(rp)
    rp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure in linear algebra: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WkaError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Build and verify every catalog entry, printing a summary table: dimension,
nonzero coproduct entries, block shape, largest residual and verdict, then
the source and target Cartan block shapes, the Cartan verdict, the
hyper-center dimension and the number of extreme rays of the Haar trace
cone.

Usage: python scripts/run_catalog.py [--tol 1e-9] [--no-duals] [--no-twists]
Exits 1 if any entry fails its axiom suite, and 2 on a tolerance that is
not positive and finite.
"""

import argparse
import sys
import time

from wka import (
    Tolerance,
    cartan_subalgebras,
    catalog,
    haar_trace_cone,
    hyper_center,
    verify_weak_kac,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=None, help="absolute tolerance")
    ap.add_argument("--no-duals", action="store_true", help="skip dual entries")
    ap.add_argument("--no-twists", action="store_true", help="skip twist entries")
    args = ap.parse_args(argv)
    try:
        tol = Tolerance(abs_tol=args.tol) if args.tol is not None else None
    except ValueError as exc:
        print(f"error: --tol: {exc}", file=sys.stderr)
        return 2

    entries = catalog(
        include_duals=not args.no_duals, include_twists=not args.no_twists
    )
    width = max(len(e.name) for e in entries)
    failures = 0
    t0 = time.perf_counter()
    for entry in entries:
        w = entry.build()
        rep = verify_weak_kac(w, tol=tol)
        verdict = "pass" if rep.passed else "FAIL"
        pair = cartan_subalgebras(w, tol=tol)
        cartan = "pass" if pair.report.passed else "FAIL"
        shape, source, target = (
            ",".join(str(d) for d in s)
            for s in (w.algebra.block_shape, pair.source_shape, pair.target_shape)
        )
        nnz = w.coproduct.nnz
        hyper = hyper_center(w, tol=tol).dim
        rays, _ = haar_trace_cone(w, tol=tol)
        print(
            f"{entry.name:<{width}}  dim {w.dim:>3}  nnz {nnz:>6}  blocks ({shape})"
            f"  residual {rep.max_residual:9.2e}  {verdict}"
            f"  cartan ({source}) -> ({target})  {cartan}"
            f"  hyper-center {hyper}  rays {len(rays)}"
        )
        failures += 0 if rep.passed else 1
    elapsed = time.perf_counter() - t0
    print(f"{len(entries)} entries, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

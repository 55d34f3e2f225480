"""Build and verify every catalog entry, printing a summary table: dimension,
nonzero coproduct entries, block shape, largest residual and verdict.

Usage: python scripts/run_catalog.py [--tol 1e-9] [--no-duals] [--no-twists]
Exits nonzero if any entry fails its axiom suite.
"""

import argparse
import sys
import time

from wka import Tolerance, catalog, verify_weak_kac


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=None, help="absolute tolerance")
    ap.add_argument("--no-duals", action="store_true", help="skip dual entries")
    ap.add_argument("--no-twists", action="store_true", help="skip twist entries")
    args = ap.parse_args(argv)
    tol = Tolerance(abs_tol=args.tol) if args.tol is not None else None

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
        shape = ",".join(str(d) for d in w.algebra.block_shape)
        nnz = w.coproduct_nonzeros[0].size
        print(
            f"{entry.name:<{width}}  dim {w.dim:>3}  nnz {nnz:>6}  blocks ({shape})"
            f"  residual {rep.max_residual:9.2e}  {verdict}"
        )
        failures += 0 if rep.passed else 1
    elapsed = time.perf_counter() - t0
    print(f"{len(entries)} entries, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

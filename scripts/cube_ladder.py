"""Scaling ladder of the axiom suite on cube_family(n).

For each n, in a fresh child process and one rung after another, builds
cube_family(n) and runs verify_weak_kac on it, and prints the dimension,
the nonzero coproduct entries, the seconds of that cold build + verify and
the child's peak RSS (which includes the import of numpy and wka).

Usage: PYTHONPATH=src python scripts/cube_ladder.py [n ...]   (default 2 to 8)
Exits 1 if a rung fails its axiom suite or its child process dies, and 2
on an n that is not a positive integer.
"""

import multiprocessing
import resource
import sys
import time


def rung(n: int, conn) -> None:
    """Build and verify cube_family(n) in this process; send the row."""
    from wka import cube_family, verify_weak_kac

    start = time.perf_counter()
    w = cube_family(n)
    passed = verify_weak_kac(w).passed
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    conn.send((w.dim, w.coproduct.nnz, seconds, peak_mb, passed))
    conn.close()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        ns = [int(a) for a in args] or list(range(2, 9))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if any(n < 1 for n in ns):
        print("error: every n must be positive", file=sys.stderr)
        return 2
    ctx = multiprocessing.get_context("spawn")
    print(f"{'n':>3} {'dim':>6} {'nnz':>7} {'seconds':>9} {'peak_rss_mb':>11}  verdict")
    failed = False
    for n in ns:
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=rung, args=(n, send))
        child.start()
        send.close()
        try:
            dim, nnz, seconds, peak_mb, passed = receive.recv()
        except EOFError:
            child.join()
            print(f"{n:>3}  child exited with code {child.exitcode}")
            failed = True
            continue
        child.join()
        failed = failed or not passed
        print(f"{n:>3} {dim:>6} {nnz:>7} {seconds:>9.4f} {peak_mb:>11.1f}  {'pass' if passed else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

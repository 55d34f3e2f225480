"""The four benchmark workloads.

Each workload is a closed loop: one client in one process issues its
operations strictly one after another.  A workload builds its inputs from the
seed, runs whole passes, and checks every output against an expected value.
An operation ("op") is the unit of ``member_p50_ms``: one catalog member, one
ladder rung, one ``dual-files`` input chain, or one ``derive`` command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import time

import numpy as np


def coproduct_nnz(w) -> int:
    """Nonzero coproduct entries, for a dense tensor or a sparse store."""
    nnz = getattr(w.coproduct, "nnz", None)
    if nnz is not None:
        return int(nnz)
    return int(np.count_nonzero(np.asarray(w.coproduct)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Op:
    """One checked operation: its latency, verdict and any error."""

    __slots__ = ("label", "seconds", "ok", "verdict", "error")

    def __init__(self, label, seconds, ok, verdict, error=""):
        self.label = label
        self.seconds = seconds
        self.ok = ok
        self.verdict = verdict
        self.error = error


def run_op(label, fn) -> Op:
    """Time ``fn() -> (ok, verdict, detail)``; an exception fails the op."""
    start = time.perf_counter()
    try:
        ok, verdict, detail = fn()
    except Exception as exc:  # a crash is a failed op, not a crashed run
        return Op(label, time.perf_counter() - start, False, None,
                  f"{type(exc).__name__}: {exc}")
    return Op(label, time.perf_counter() - start, ok, verdict, "" if ok else detail)


def cube_ok(n, w) -> tuple[bool, str]:
    """cube_family(n) has dimension n^3 and n^4 coproduct nonzeros."""
    dim, nnz = w.dim, coproduct_nnz(w)
    ok = dim == n**3 and nnz == n**4
    return ok, f"cube_family({n}): dim {dim} nnz {nnz}, expected {n**3} and {n**4}"


class Workload:
    name = ""
    # timed passes per run at least: one where a pass fills the run
    min_passes = 1

    def __init__(self, wka, tracer, seed: int, workdir):
        self.wka = wka
        self.tracer = tracer
        self.seed = seed
        self.workdir = workdir
        self.input_files = {}

    def setup_inputs(self):
        """Build or write the inputs; repeatable, timed for ``setup_s``."""

    def run_pass(self, warmup: bool = False) -> list[Op]:
        """One pass over the inputs.

        The untimed warm-up pass (``warmup``) runs every input on
        ``catalog`` and ``derive-cube4``.  On ``ladder`` and ``dual-files`` it
        leaves out the largest input, whose one pass would add ~10-20 s to
        every run; the first timed pass then meets it cold, as a one-off CLI
        call does.
        """
        raise NotImplementedError

    def per_layer(self, passes) -> dict:
        """Workload-specific per-layer values from the traced passes."""
        return {}

    def notes(self, passes) -> dict:
        """Extra values printed with the result, outside the metric set."""
        return {}


class Catalog(Workload):
    """Build and verify all catalog members, in catalog order.

    Many small algebras beside two medium ones: the guard against a change
    that helps large inputs but adds per-call cost to small ones.
    """

    name = "catalog"
    # ~25 s of ~4.4 s passes: over three passes the machine's drift moved
    # member_p90_ms by 0.28 of its median from run to run, over six by 0.07
    min_passes = 6

    def setup_inputs(self):
        entries = self.wka.catalog()
        by_name = {e.name: e for e in entries}
        self.members = []
        for e in entries:
            if e.name.startswith("dual(") and e.name[5:-1] in by_name:
                # same work as the entry, with the benchmark's seed for dual
                primal = by_name[e.name[5:-1]]
                build = lambda p=primal: self.wka.dual(p.build(), seed=self.seed)
                self.members.append((e.name, e.name[5:-1], build))
            else:
                self.members.append((e.name, None, e.build))

    def run_pass(self, warmup=False):
        # cheap enough to warm up on every member
        dims = {}
        ops = []
        for name, primal, build in self.members:
            def op(name=name, primal=primal, build=build):
                with self.tracer.span("constructors.build"):
                    w = build()
                rep = self.wka.verify_weak_kac(w, seed=self.seed)
                dims[name] = w.dim
                ok, detail = rep.passed, f"{name}: verdict FAIL"
                if ok and name.startswith("cube-family["):
                    ok, detail = cube_ok(int(name[12:-1]), w)
                if ok and primal is not None and dims.get(primal) != w.dim:
                    ok, detail = False, f"{name}: dim {w.dim} != primal {dims.get(primal)}"
                return ok, (rep.passed, w.dim, coproduct_nnz(w)), detail

            with self.tracer.span("bench.op"):
                ops.append(run_op(name, op))
        return ops

    def notes(self, passes):
        return {"members": len(self.members)}


class Ladder(Workload):
    """verify_weak_kac on cube_family(n), n = 2..5, in ascending order.

    The dense dim^3 scaling wall.  The warm-up pass stops before cube5.
    Per-rung peak RSS is the process peak after the first run of each rung;
    rungs first run in ascending order from a fresh process.  A rung's
    ``verify_s`` is its ``verify_weak_kac`` call alone, in the latest pass.
    """

    name = "ladder"
    RUNGS = (2, 3, 4, 5)

    def __init__(self, *args):
        super().__init__(*args)
        self.rung_peak_rss_mb = {}
        self.verify_s = {}

    def run_pass(self, warmup=False):
        ops = []
        for n in self.RUNGS[:-1] if warmup else self.RUNGS:
            def op(n=n):
                with self.tracer.span("constructors.build"):
                    w = self.wka.cube_family(n)
                start = time.perf_counter()
                rep = self.wka.verify_weak_kac(w, seed=self.seed)
                self.verify_s[n] = time.perf_counter() - start
                ok, detail = cube_ok(n, w)
                if not rep.passed:
                    ok, detail = False, f"cube_family({n}): verdict FAIL"
                return ok, (rep.passed, w.dim, coproduct_nnz(w)), detail

            with self.tracer.span("bench.op"):
                ops.append(run_op(f"cube{n}", op))
            self.rung_peak_rss_mb.setdefault(n, peak_rss_mb())
        return ops

    def per_layer(self, passes):
        out = {}
        for i, n in enumerate(self.RUNGS):
            _, dim, nnz = passes[0][i].verdict or (None, 0, 0)
            out[f"ladder.cube{n}.verify_s"] = self.verify_s.get(n, 0.0)
            out[f"ladder.cube{n}.dim"] = dim
            out[f"ladder.cube{n}.nnz"] = nnz
            out[f"ladder.cube{n}.peak_rss_mb"] = self.rung_peak_rss_mb[n]
        return out


class CliWorkload(Workload):
    """Shared in-process CLI call with captured output."""

    def cli(self, command, *args) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of ``wka <command> <args>``."""
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span(f"cli.{command}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.wka.cli.main([command, *map(str, args)])
        return code, out.getvalue(), err.getvalue()


class DeriveCube4(CliWorkload):
    """``wka derive --what all`` on cube_family(4) loaded from a file.

    Derived structure dominates here (Haar conditional expectations, affine
    solves, repeated dual and Wedderburn realizations).  The CLI takes no
    seed, so this workload's input and calls are the same for every seed.
    The warm-up pass is a full pass, so the slow first call is set-up time.
    """

    name = "derive-cube4"

    def setup_inputs(self):
        path = os.path.join(self.workdir, "cube-family-4.wka")
        with self.tracer.span("constructors.build"):
            w = self.wka.cube_family(4)
        self.wka.save_wka(w, path)
        self.input_files = {os.path.basename(path): path}

    def run_pass(self, warmup=False):
        path = self.input_files["cube-family-4.wka"]

        def op():
            code, _, err = self.cli("derive", "--what", "all", path)
            return code == 0, (code,), f"derive exited {code}: {err[-400:]}"

        with self.tracer.span("bench.op"):
            return [run_op("derive", op)]


class DualFiles(CliWorkload):
    """build -> dual -> verify -> report --format json, through the CLI.

    The only workload where storage writes sit beside reads.  The twist's
    cocycle seed is the workload seed.  One operation is a whole pass over
    the four inputs: their chains take ~0.5 s to ~11 s, so a median over
    the chains of a run would sit between the slowest ``crossed 3`` and the
    fastest ``twist`` sample and follow the machine's drift on small calls.
    The warm-up pass leaves out ``cube-family 4``.
    """

    name = "dual-files"
    # two ~14 s passes: one warm pass per run spread 0.22 over ten seeds
    min_passes = 2

    def setup_inputs(self):
        self.specs = [
            ("cube-family", ("4",)),
            ("crossed", ("3",)),
            ("dual-elementary", ("1,2",)),
            ("twist", ("1,1,2", str(self.seed))),
        ]
        self.expected_dim = {}
        for c, params in self.specs:
            with self.tracer.span("constructors.build"):
                self.expected_dim[c] = self.wka.build_named(c, list(params)).dim

    def run_pass(self, warmup=False):
        self.written = []

        def op():
            verdicts, errors = [], []
            for c, params in self.specs[1:] if warmup else self.specs:
                ok, verdict, detail = self.chain(c, params)
                verdicts.append(verdict)
                if not ok:
                    errors.append(detail)
            return not errors, tuple(verdicts), "; ".join(errors)

        with self.tracer.span("bench.op"):
            return [run_op("pass", op)]

    def chain(self, c, params):
        """One input's chain of CLI calls: (ok, verdict, detail)."""
        tag = "-".join([c, *params]).replace(",", "_")
        primal = os.path.join(self.workdir, f"{tag}.wka")
        dualf = os.path.join(self.workdir, f"{tag}.dual.wka")
        self.written += [primal, dualf]
        steps = [
            ("build", (c, *params, "-o", primal)),
            ("dual", (primal, "-o", dualf)),
            ("verify", (dualf,)),
        ]
        for command, args in steps:
            code, _, err = self.cli(command, *args)
            if code != 0:
                return False, (command, code), f"{command} {c} exited {code}: {err[-400:]}"
        code, out, err = self.cli("report", "--format", "json", dualf)
        if code != 0:
            return False, ("report", code), f"report {c} exited {code}: {err[-400:]}"
        obj = json.loads(out)
        dim, want = obj["dim"], self.expected_dim[c]
        ok = obj["passed"] is True and dim == want
        return ok, (obj["passed"], dim), f"dual of {c}: passed {obj['passed']} dim {dim}, expected {want}"

    def notes(self, passes):
        files = [p for p in self.written if os.path.exists(p)]
        self.input_files = {os.path.basename(p): p for p in files}
        return {"written_mb": sum(os.path.getsize(p) for p in files) / 1e6}


WORKLOADS = {w.name: w for w in (Catalog, DeriveCube4, Ladder, DualFiles)}

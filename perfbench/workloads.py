"""The three benchmark workloads.

Each is a single-process closed loop: one caller, and every operation
starts after the previous one returns.  A workload runs in passes; one
pass is its whole list of operations, and ``run_pass`` times each
operation on its own and checks its output outside the timed interval.

A paired pass (``reference=True``) runs the same operations, on the
same inputs, on the frozen reference copy of the library in
``reference/trelliskit_ref`` (the code the benchmark was defined on), in
a second thread at the same time.  The caller pins the process to one
CPU, so the two threads take turns on it every few milliseconds and a
change in the host's speed slows both sides alike.  Each side's
latencies are then the CPU time of its own thread, and the end-to-end
metrics compare the two sides.

enumerate-shipped  the CLI's `enumerate --json --dot` on every shipped
                   carrier; fork8 dominates, so the O(w^2) pointwise
                   order, the order diagram and hasse carry the time.
search-sweep       enumerate_tnorms on ~1500 seeded small carriers, where
                   the backtracking search, check() and make_op carry it.
verify-paper       the CLI's verify-paper: classification, interior
                   constructions, rejection sampling, check() on the
                   witness path and the brute-force oracle.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

sys.path.insert(0, str(Path(__file__).with_name("reference")))

import trelliskit  # noqa: E402
import trelliskit_ref as ref  # noqa: E402
import trelliskit_ref.cli  # noqa: E402,F401
from trelliskit import cli, enumeration, relation, trellis  # noqa: E402

DATA = Path("src/trelliskit/data")
PINNED = Path(__file__).with_name("pinned.json")
OUT = Path(__file__).with_name("out")

# Carriers whose whole CLI run takes well under a second, for the smoke test.
SMALL_SHIPPED = ("pentagon", "loop8", "six_element_cycle")


@dataclass
class PassResult:
    """One pass over a workload's operations."""

    latency_s: float = 0.0  # sum of the operations' latencies
    tnorms: int = 0
    carrier_ms: list[float] = field(default_factory=list)
    ref_latency_s: float = 0.0  # the same two, on the reference copy
    ref_carrier_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def tnorms_per_s(self) -> float:
        """T-norms returned per second of the pass."""
        return self.tnorms / self.latency_s if self.latency_s else 0.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_captures = threading.local()


class _PerThread(io.TextIOBase):
    """Stands in for sys.stdout or sys.stderr: a thread inside captured()
    writes to its own buffer, any other thread to the real stream."""

    def __init__(self, key: str, stream) -> None:
        self.key, self.stream = key, stream

    def write(self, text: str) -> int:
        return (getattr(_captures, self.key, None) or self.stream).write(text)

    def flush(self) -> None:
        self.stream.flush()


@contextmanager
def captured():
    """This thread's stdout and stderr, as two StringIO buffers."""
    for key in ("stdout", "stderr"):
        if not isinstance(getattr(sys, key), _PerThread):
            setattr(sys, key, _PerThread(key, getattr(sys, key)))
    _captures.stdout, _captures.stderr = io.StringIO(), io.StringIO()
    try:
        yield _captures.stdout, _captures.stderr
    finally:
        _captures.stdout = _captures.stderr = None


class Workload:
    """A list of operations, each run by ``current`` and ``reference``.

    ``current(i, res, clock)`` runs operation i on the library under test
    and returns (output, latency in s); ``reference(i, res, clock)`` runs
    it on the reference copy and returns its latency; ``accept(i, output,
    res, tracer)`` checks the output and adds its counts to ``res``.
    Each operation is one carrier sample.
    """

    name = ""

    def __init__(self) -> None:
        self.passes = 0

    def __len__(self) -> int:
        raise NotImplementedError

    def run_pass(self, tracer=None, reference: bool = False) -> PassResult:
        """One pass, timed by wall clock; a paired pass (reference=True)
        is timed by each side's thread CPU time, and the two sides take
        turns starting first."""
        res = PassResult()
        if not reference:
            self._run_current(res, tracer, perf_counter)
        else:
            errors: list[BaseException] = []

            def side(run):
                try:
                    run(res, thread_time)
                except BaseException as exc:  # re-raised below, in the caller's thread
                    errors.append(exc)

            runs = [lambda r, c: self._run_current(r, None, c), self._run_reference]
            if self.passes % 2:
                runs.reverse()
            threads = [threading.Thread(target=side, args=(run,)) for run in runs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]
        self.passes += 1
        return res

    def _run_current(self, res: PassResult, tracer, clock) -> None:
        for i in range(len(self)):
            res.attempted += 1
            if tracer is not None:
                tracer.run_id += 1
            try:
                out, took = self.current(i, res, clock)
            except Exception:
                print(f"operation failed: {self.name} #{i}", file=sys.stderr)
                traceback.print_exc()
                res.failed += 1
                continue
            res.latency_s += took
            res.carrier_ms.append(took * 1e3)
            if not self.accept(i, out, res, tracer):
                res.failed += 1

    def _run_reference(self, res: PassResult, clock) -> None:
        for i in range(len(self)):
            took = self.reference(i, res, clock)
            res.ref_latency_s += took
            res.ref_carrier_ms.append(took * 1e3)

    def final_check(self) -> int:
        """Failures found after the timed loop."""
        return 0


class EnumerateShipped(Workload):
    """`trelliskit enumerate FILE --json --dot PATH` on every shipped file.

    The seed fixes the order of the files.  Each file's exit code,
    t-norm count and the SHA-256 of its stdout and DOT output must equal
    the values pin.py recorded in pinned.json.
    """

    name = "enumerate-shipped"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        files = sorted(DATA.glob("*.psoset"))
        if small:
            files = [f for f in files if f.stem in SMALL_SHIPPED]
        random.Random(seed).shuffle(files)
        self.files = files
        self.pinned = json.loads(PINNED.read_text())

    def __len__(self) -> int:
        return len(self.files)

    def outcome(
        self, path: Path, main=cli.main, dot_name="enumerate.dot", clock=perf_counter
    ) -> tuple[dict, float]:
        """Run a CLI's main on one file: (pinned-style outcome, latency in s)."""
        dot = OUT / dot_name
        dot.unlink(missing_ok=True)
        with captured() as (stdout, _):
            start = clock()
            code = main(["enumerate", str(path), "--json", "--dot", str(dot)])
            took = clock() - start
        text = stdout.getvalue()
        return {
            "exit_code": code,
            "count": json.loads(text)["count"] if text else None,
            "stdout_sha256": _sha(text.encode()),
            "dot_sha256": _sha(dot.read_bytes()) if dot.exists() else None,
            "stdout_bytes": len(text.encode()),
        }, took

    def current(self, i, res, clock):
        return self.outcome(self.files[i], clock=clock)

    def reference(self, i, res, clock):
        return self.outcome(self.files[i], ref.cli.main, "reference.dot", clock)[1]

    def accept(self, i, got, res, tracer):
        res.tnorms += got["count"] or 0
        if tracer is not None:
            tracer.count("cli.stdout_bytes", got["stdout_bytes"])
        if got != self.pinned.get(self.files[i].name):
            print(f"wrong output for {self.files[i]}: {got}", file=sys.stderr)
            return False
        return True


def _table_digest(ops) -> str:
    return _sha(b"".join(op.table.tobytes() for op in ops))


def _as_current(p):
    """The reference copy's psoset or trellis, rebuilt by the library under test."""
    if isinstance(p, ref.trellis.Trellis):
        return trellis.build_trellis(relation.validate_psoset(p.base.rel, p.base.names))[0]
    return relation.validate_psoset(p.rel, p.names)


class SearchSweep(Workload):
    """enumerate_tnorms on a seeded sweep of small bounded carriers.

    Carrier k has 3 + (k // 2) % 3 elements and alternates between
    random_bounded_psoset (even k) and random_trellis (odd k), so every
    seed has the same mix of sizes and kinds and only the shapes vary.
    The reference copy's generators make the carriers, so the inputs do
    not change when the library's generators do.  Every pass enumerates
    the same carriers.  After the timed loop each carrier's table list
    is compared with the reference copy's bruteforce_tnorms, the
    independent oracle.
    """

    name = "search-sweep"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        rng = random.Random(seed)
        make = (ref.generators.random_bounded_psoset, ref.generators.random_trellis)
        self.ref_carriers = [
            make[k % 2](rng, 3 + (k // 2) % 3) for k in range(30 if small else 1500)
        ]
        self.carriers = [_as_current(p) for p in self.ref_carriers]
        self.digests: list[tuple[int, str]] = []  # (carrier, digest) per operation

    def __len__(self) -> int:
        return len(self.carriers)

    def current(self, i, res, clock):
        start = clock()
        out = enumeration.enumerate_tnorms(self.carriers[i])
        return out, clock() - start

    def reference(self, i, res, clock):
        start = clock()
        ref.enumeration.enumerate_tnorms(self.ref_carriers[i])
        return clock() - start

    def accept(self, i, out, res, tracer):
        res.tnorms += out.count
        self.digests.append((i, _table_digest(out.tnorms)))
        return True

    def final_check(self) -> int:
        """Operations whose table list differs from the brute-force oracle."""
        oracle = [_table_digest(ref.bruteforce.bruteforce_tnorms(p)) for p in self.ref_carriers]
        return sum(digest != oracle[i] for i, digest in self.digests)


def _verify_paper(module, seed: int, clock) -> tuple[int, str, int, float]:
    """Run `verify-paper --seed SEED` through one copy's CLI.

    A shim on that copy's reproduction.enumerate_tnorms counts the
    t-norms the criteria find.  Returns (exit code, stdout, t-norms
    found, latency in s).
    """
    inner = module.reproduction.enumerate_tnorms
    found = 0

    def counted(*args, **kwargs):
        nonlocal found
        out = inner(*args, **kwargs)
        found += out.count
        return out

    module.reproduction.enumerate_tnorms = counted
    try:
        with captured() as (stdout, _):
            start = clock()
            code = module.cli.main(["verify-paper", "--seed", str(seed)])
            took = clock() - start
    finally:
        module.reproduction.enumerate_tnorms = inner
    return code, stdout.getvalue(), found, took


class VerifyPaper(Workload):
    """`trelliskit verify-paper --seed S`, one call per pass.

    The call must exit 0 with all ten criteria passed.  The call is the
    workload's only carrier.
    """

    name = "verify-paper"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        self.seed = seed

    def __len__(self) -> int:
        return 1

    def current(self, i, res, clock):
        code, text, found, took = _verify_paper(trelliskit, self.seed, clock)
        res.tnorms += found
        return (code, text), took

    def reference(self, i, res, clock):
        return _verify_paper(ref, self.seed, clock)[3]

    def accept(self, i, out, res, tracer):
        code, text = out
        if tracer is not None:
            tracer.count("cli.stdout_bytes", len(text.encode()))
        lines = [s for s in text.splitlines() if s.startswith("criterion")]
        if code != 0 or len(lines) != 10 or not all(": PASS" in s for s in lines):
            print(f"verify-paper --seed {self.seed} failed:\n{text}", file=sys.stderr)
            return False
        return True


WORKLOADS = {w.name: w for w in (EnumerateShipped, SearchSweep, VerifyPaper)}

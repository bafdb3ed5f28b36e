"""Shared plumbing of the benchmark: paths, timing, child processes, results.

Nothing here imports the program under test; ``run.py`` puts the
checkout's ``src`` directory on ``sys.path`` (and on ``PYTHONPATH`` for
children) only after checking that it exists.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Per-run scratch space inside the checkout (ignored by git).
WORK_ROOT = ROOT / ".perfbench_work"

#: Set-ups per run for the workloads whose set-up is cheap enough to
#: repeat; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Paper design 1 DNS + 2 WEB + 2 APP + 1 DB and its published COA.
PAPER_COUNTS = {"dns": 1, "web": 2, "app": 2, "db": 1}
PAPER_COA = "0.997072"


class OpFailure(Exception):
    """An op whose output was wrong or whose process/request failed."""


def _paper_row(row: dict) -> bool:
    return "variants" not in row and row.get("counts") == PAPER_COUNTS


def check_sweep_payload(payload: dict, count: int) -> None:
    """Design count, COA range, and the paper design's published COA."""
    rows = payload["designs"]
    if payload["design_count"] != count or len(rows) != count:
        raise OpFailure(f"sweep returned {len(rows)} of {count} designs")
    for row in rows:
        for side in ("before", "after"):
            if not 0.0 < row[side]["COA"] <= 1.0:
                raise OpFailure(f"{row['label']}: COA {row[side]['COA']}")
        if _paper_row(row) and f"{row['after']['COA']:.6f}" != PAPER_COA:
            raise OpFailure(f"paper design COA {row['after']['COA']!r}")


def check_timeline_payload(payload: dict, count: int, points: int) -> None:
    """Curves start fully available and unpatched; paper design COA."""
    rows = payload["designs"]
    if payload["design_count"] != count or len(rows) != count:
        raise OpFailure(f"timeline returned {len(rows)} of {count} designs")
    for row in rows:
        if len(row["coa"]) != points:
            raise OpFailure(f"{row['label']}: {len(row['coa'])} points")
        if row["coa"][0] != 1.0 or row["completion_probability"][0] != 0.0:
            raise OpFailure(
                f"{row['label']}: coa[0]={row['coa'][0]} "
                f"completion_probability[0]={row['completion_probability'][0]}"
            )
        if _paper_row(row) and f"{row['steady_coa']:.6f}" != PAPER_COA:
            raise OpFailure(f"paper design steady COA {row['steady_coa']!r}")


def now() -> float:
    return time.perf_counter()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def make_workdir() -> Path:
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv, err_path, timeout: float = 120.0):
    """Run *argv* to completion; ``(exit code, stdout bytes, wall s, maxrss MB)``.

    Stderr goes to *err_path*.  The child is reaped with ``wait4`` so its
    own peak RSS is known.
    """
    started = now()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        try:
            out = _read_until_eof(proc, started + timeout)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = now() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def _read_until_eof(proc, deadline: float) -> bytes:
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - now()
            if remaining <= 0:
                raise OpFailure(f"{' '.join(proc.args[-6:])} timed out")
            if not sel.select(remaining):
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    return b"".join(chunks)


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants.

    A child that exits before its own children (``repro serve`` and the
    multiprocessing resource tracker it starts, the pool workers of a
    killed server) would hand them to init, out of this run's reach.
    As subreaper the run gets them back, and :func:`reap_children`
    waits for each.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _child_pids() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids.extend(int(pid) for pid in fh.read().split())
        except FileNotFoundError:
            continue
    return pids


def reap_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker, which this process starts when
    the process executor shares memory, exits only once its pipe closes,
    so it is stopped first.  Children still running after *grace*
    seconds are killed (and killed again each second while any remain,
    since a killed child's own children come back to this process).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = now() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if now() >= deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = now() + 1.0
        time.sleep(0.01)


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over *pid* and its live descendants."""
    total_kb = 0
    pending = [pid]
    seen = set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            with open(f"/proc/{current}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            # A child is listed under the thread that forked it.
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    pending.extend(int(child) for child in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
    return total_kb / 1024.0


# -- machine fingerprint ------------------------------------------------------


def _openblas_libs() -> dict:
    """``{file name: handle}`` of every OpenBLAS loaded in this process.

    numpy and scipy each bundle their own copy.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                path
                for path in (line.split()[-1] for line in fh if line.strip())
                if "openblas" in path and ".so" in path
            }
    except OSError:
        return {}
    libs = {}
    for path in sorted(paths):
        try:
            libs[os.path.basename(path)] = ctypes.CDLL(path)
        except OSError:
            continue
    return libs


def _openblas_fn(handle, name: str):
    for prefix in ("scipy_openblas", "openblas"):
        for tail in ("64_", ""):
            fn = getattr(handle, f"{prefix}_{name}{tail}", None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its own API."""
    counts = {}
    for lib, handle in _openblas_libs().items():
        fn = _openblas_fn(handle, "get_num_threads")
        if fn is not None:
            fn.restype = ctypes.c_int
            counts[lib] = int(fn())
    return counts


#: BLAS threads for the solve-heavy in-process code the benchmark runs
#: (the ``timeline`` window and the ``cli`` cache fill).  On a shared
#: 2-CPU machine the default two-thread OpenBLAS pool busy-waits whenever
#: another tenant holds a core: 200 products of 300x300 matrices took
#: 0.18-1.16 s with two threads and 0.29-0.37 s with one.  Subprocesses
#: (``serve``, the ``cli`` commands) keep the program's default.
STEADY_BLAS_THREADS = 1


def set_blas_threads(count: int) -> None:
    """Resize every loaded OpenBLAS thread pool to *count* threads."""
    for handle in _openblas_libs().values():
        fn = _openblas_fn(handle, "set_num_threads")
        if fn is not None:
            fn.restype = None
            fn(ctypes.c_int(count))


def fingerprint() -> dict:
    """nproc, BLAS vendor/threads and the interpreter/numpy/scipy versions."""
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- results ------------------------------------------------------------------


class Tally:
    """Ops attempted/failed plus each op's latency and delivered designs.

    *unit* is the number of ops in one cycle of the workload's op mix
    (see :func:`window_rate`).
    """

    def __init__(self, unit: int = 1) -> None:
        self.unit = unit
        self.attempted = 0
        self.failed = 0
        self.ops: list[tuple[float, int]] = []
        self.errors: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [latency for latency, _ in self.ops]

    def record(self, latency: float, designs: int) -> None:
        self.attempted += 1
        self.ops.append((latency, designs))

    def fail(self, message: str, latency: float | None = None) -> None:
        self.attempted += 1
        self.failed += 1
        if latency is not None:
            self.ops.append((latency, 0))
        if len(self.errors) < 5:
            self.errors.append(message)

    def merge(self, other: "Tally") -> None:
        """Count *other*'s ops (warm-up, a second window) as attempted here."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]


#: Slices of a window whose median rate is reported.
RATE_SLICES = 3


def window_rate(tally: Tally) -> float:
    """Designs delivered per second of the window, robust to a stall.

    The window's ops, in order and in whole cycles of ``tally.unit`` ops,
    are cut into :data:`RATE_SLICES` contiguous slices; each slice's rate
    is its designs over its summed op time, and the median slice is
    reported.  A burst of contention from another tenant then costs one
    slice, not the run.
    """
    ops = tally.ops
    cycles = [ops[i:i + tally.unit] for i in range(0, len(ops), tally.unit)]
    slices = min(RATE_SLICES, len(cycles))
    rates = []
    for k in range(slices):
        part = [
            op
            for cycle in cycles[k * len(cycles) // slices:(k + 1) * len(cycles) // slices]
            for op in cycle
        ]
        seconds = sum(latency for latency, _ in part)
        rates.append(sum(designs for _, designs in part) / seconds if seconds else 0.0)
    return median(rates)


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    values = {
        "setup_s": (setup_s, "s"),
        "designs_per_s": (window_rate(tally), "1/s"),
        "op_p50_s": (median(tally.latencies), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}


def emit(tally: Tally, metrics: dict) -> None:
    for message in tally.errors:
        print(f"op failure: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()

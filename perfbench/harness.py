"""Run hygiene shared by every workload.

Each run gets private temp and cache directories inside the checkout, a
filled native-kernel build cache, and a record of the host it ran on.  The
benchmark refuses ``REPRO_*`` overrides: they select other code paths, so a
run under one would measure a different program.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 5


class BenchError(RuntimeError):
    """A run that cannot produce a valid measurement."""


def check_environment() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source under {SRC}")
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        raise BenchError(f"refusing to run with overrides set: {overrides}")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


class RunDirs:
    """Private ``TMPDIR``/``XDG_CACHE_HOME`` for one run, removed on close."""

    def __init__(self) -> None:
        self.path = os.path.join(RUNS_DIR, f"run-{os.getpid()}-{time.time_ns()}")
        self.tmp = os.path.join(self.path, "tmp")
        self.cache = os.path.join(self.path, "cache")
        os.makedirs(self.tmp)
        os.makedirs(self.cache)

    def apply(self) -> None:
        """Point this process and every child at the private directories."""
        import tempfile

        os.environ["TMPDIR"] = self.tmp
        os.environ["XDG_CACHE_HOME"] = self.cache
        pp = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = SRC + (os.pathsep + pp if pp else "")
        tempfile.tempdir = None  # re-read TMPDIR on next use
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass


_KERNEL_CHECK = (
    "import repro.jpeg2000._mq_native as m, repro.jpeg2000._t1_dec_native as d;"
    "print(int(m._fns is not None), int(d._fn is not None))"
)


def fill_kernel_cache() -> dict:
    """Compile the native kernels into this run's cache before timing.

    Returns which kernels load; a run where either fails to load would
    time the pure-Python fallback, a different program, so it is an error.
    """
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHECK], capture_output=True,
        text=True, timeout=120, check=False,
    )
    flags = out.stdout.split()
    loaded = {
        "_mq_native": flags[:1] == ["1"],
        "_t1_dec_native": flags[1:2] == ["1"],
    }
    if not all(loaded.values()):
        raise BenchError(
            f"native kernels not loaded: {loaded} {out.stderr.strip()[-500:]}"
        )
    return loaded


def host_record() -> dict:
    import numpy

    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


_PROBE = """
import sys
import numpy as np
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.params import EncoderParams
import repro.jpeg2000._mq_native as m, repro.jpeg2000._t1_dec_native as d
assert m._fns is not None and d._fn is not None, "native kernels missing"
img = (np.arange(64 * 64 * 3) % 251).astype(np.uint8).reshape(64, 64, 3)
cs = encode(img, EncoderParams(workers=int(sys.argv[1]))).codestream
assert np.array_equal(decode(cs), img)
print("ready", flush=True)
"""


def library_setup_s(workers: int) -> float:
    """Median time from spawning an interpreter to the library being ready.

    Ready means: the codec modules imported, both native kernels loaded
    from the (already filled) build cache, and one small encode and decode
    returned at ``workers``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            _out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed: {err.strip()[-500:]}")
        times.append(ready)
    times.sort()
    return times[len(times) // 2]


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_mib(root: int) -> float:
    """Summed VmHWM over ``root``'s live process tree, in MiB."""
    return sum(vm_hwm_kib(p) for p in process_tree(root)) / 1024.0


#: ``prctl`` option that re-parents orphaned descendants to the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the descendants get to end on their own before they are killed.
STOP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A child that exits before its own children (a set-up probe before its
    multiprocessing resource tracker, say) would otherwise hand them to
    init, out of reach of :func:`stop_descendants`.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError(f"prctl(PR_SET_CHILD_SUBREAPER): errno {ctypes.get_errno()}")


def _reap_children() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants() -> list[int]:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker the library's shared-memory
    dispatch starts ends only when it reads EOF on its pipe, which otherwise
    happens as this process exits, so it outlived every run.  It is stopped
    and waited for here.  Whatever else is left gets :data:`STOP_GRACE_S`
    to end, then SIGKILL.  Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    me = os.getpid()
    killed: set[int] = set()
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        _reap_children()
        rest = process_tree(me)[1:]
        if not rest or time.monotonic() > deadline + STOP_GRACE_S:
            return sorted(killed)
        if time.monotonic() > deadline:
            for pid in rest:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except OSError:
                    pass
        time.sleep(0.02)


def own_peak_mib() -> float:
    """Peak RSS of this process, the library's caller, in MiB.

    The pool workers the library forks inside a call share most of their
    pages with it: adding the largest one's peak counted the image and the
    Tier-1 stacks twice, and moved 13% from run to run with where each
    fork landed.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

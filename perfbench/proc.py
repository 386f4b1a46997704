"""Run one child process and account for it alone.

Peak RSS and CPU time come from ``os.wait4`` on the child's pid, which
reports that child only. ``getrusage(RUSAGE_CHILDREN)`` would report the
maximum RSS over every child reaped so far, so one large child would mask
every later one.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(argv, env: dict, cwd: Path, stdout: Path, stderr: Path,
              timeout_s: float) -> ChildResult:
    """Start ``argv``, wait for it to exit, and return its own resource use.

    The child is killed if it outlives ``timeout_s``; the result then
    carries ``timed_out`` and a nonzero return code.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        expired = threading.Event()

        def expire():
            expired.set()
            proc.kill()

        killer = threading.Timer(timeout_s, expire)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (for instance by SIGTERM): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # The child is reaped here; tell Popen so it does not try to wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=tuple(argv),
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=expired.is_set(),
    )

"""Peak RSS of one wide-pool ``importance --workers 2`` run under each source tree.

Usage::

    python tests/wide_pool_rss.py WORKDIR SRC [SRC ...]

Writes the wide-pool inputs of ``perfbench/inputs.py`` at the CLI matrix's
seed into WORKDIR, then runs ``importance --na worst --workers 2`` on them
once with ``PYTHONPATH=SRC`` for each tree, as the benchmark's wide-pool
workload does, and prints each child's ``ru_maxrss`` from ``os.wait4`` in
MB (KiB / 1024, as the benchmark reports it). One run per tree is a report,
not a measurement to gate on; a failed run is printed with its exit code.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from cli_matrix import ENV, ROOT, SEED


def main(work: str, *srcs: str) -> None:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import inputs
    from ensimp.scoring import CANONICAL_LEVELS

    forecasts, truth = Path(work, "wide-pool-forecasts.csv"), Path(work, "wide-pool-truth.csv")
    inputs.write_panel(inputs.WIDE_POOL, CANONICAL_LEVELS.levels, SEED, forecasts, truth)
    argv = [sys.executable, "-m", "ensimp.cli", "importance", "--forecasts", str(forecasts),
            "--truth", str(truth), "--na", "worst", "--workers", "2", "--output", os.devnull]
    for src in srcs:
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src, **ENV),
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        failed = f", exit code {proc.returncode}" if proc.returncode else ""
        print(f"{src}: wide-pool importance --workers 2, max RSS {usage.ru_maxrss / 1024:.1f} MB"
              f"{failed}")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])

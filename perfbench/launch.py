"""Starting `libopt` the way a user does, one process at a time."""
from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The `libopt` console script, plus a record of the process's own peak RSS.
# VmHWM is used because a child's ru_maxrss starts from the parent's RSS
# at fork time, which here is the benchmark's.
LAUNCH = """
import os, sys
from libopt.cli import main
try:
    code = main(prog="libopt")
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(hwm)
sys.exit(code)
"""


@dataclass
class Call:
    status: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def libopt(args: list[str], cwd: Path, env: dict[str, str], scratch: Path) -> Call:
    """Run one `libopt` process to completion; its wall time and peak RSS."""
    out_path, err_path, hwm_path = (scratch / name for name in ("stdout", "stderr", "hwm"))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        status = subprocess.call([sys.executable, "-c", LAUNCH, *args], cwd=cwd,
                                 env={**env, "PERFBENCH_HWM": str(hwm_path)},
                                 stdout=out, stderr=err)
        wall = time.perf_counter() - start
    return Call(status, wall, int(hwm_path.read_text()) / 1024,
                out_path.read_text(), err_path.read_text())


def base_env(startup: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIBOPT_")}
    env["PYTHONPATH"] = str(SRC)
    env["LIBOPT_RC"] = str(startup)
    return env

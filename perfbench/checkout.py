"""Where the program's source is, and the environment a run reports."""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"


def use_source_tree() -> None:
    """Import survquant from ``src/`` of this checkout, or exit with code 2.

    The benchmark measures the checkout it sits in, never an installed copy.
    """
    if not (SRC / "survquant" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no survquant source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import survquant

    if Path(survquant.__file__).resolve().parent != SRC / "survquant":
        sys.stderr.write(f"perfbench: survquant imported from {survquant.__file__}\n")
        raise SystemExit(2)


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref).strip()
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(),
    }

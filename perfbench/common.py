"""Shared helpers: checkout layout, environment checks, percentiles."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Root of the checkout: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Environment switches that take the program off its default path.
#: A run with any of them set would not describe what users get.
_REFUSED_EXACT = (
    "REPRO_CACHE_DIR",
    "REPRO_NO_NATIVE",
    "REPRO_NO_FAST_DES",
    "REPRO_NO_SERVE_CACHE",
    "REPRO_JOBS",
)


def refused_environment(environ=os.environ) -> list[str]:
    """Names of set environment variables that invalidate a run."""
    bad = [name for name in _REFUSED_EXACT if environ.get(name)]
    bad += sorted(
        name
        for name, value in environ.items()
        if value
        and name.startswith("REPRO_")
        and name.endswith("_MEMO_CAPACITY")
    )
    return bad


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(1, str(HERE))


def child_env(tmpdir: Path) -> dict:
    """Environment for a child process: sources on the path, own temp dir.

    A fresh temp dir per set-up makes every set-up compile the native
    kernel, so ``setup_s`` always includes it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmpdir)
    return env


def use_tmpdir(tmpdir: Path) -> None:
    """Point this process's temp files (native kernel build) at ``tmpdir``."""
    import tempfile

    tmpdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmpdir)
    tempfile.tempdir = str(tmpdir)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def tail_percentile(count: int, candidates=(0.99, 0.95, 0.9, 0.75, 0.5)):
    """Highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if count - math.ceil(q * count) >= 10:
            return q
    return None


def describe(values) -> dict:
    """Sample count, median, and the highest percentile the count supports."""
    out = {"n": len(values)}
    if values:
        out["p50"] = percentile(values, 0.5)
        q = tail_percentile(len(values))
        if q is not None:
            out[f"p{round(q * 100)}"] = percentile(values, q)
    return out


def source_digest() -> str:
    """sha256 over the program's Python sources (stands in for a revision)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def fingerprint() -> dict:
    """What the numbers describe: machine, interpreter, sources, kernels."""
    import numpy

    from repro.ml import _native

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
        "ml.native": _native.available(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}

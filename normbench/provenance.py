"""Where a result came from: commit, tree state, source hash, host."""

import hashlib
import importlib.util
import os
import platform
import subprocess


def source_sha256(src_dir):
    """sha256 over every ``.py`` file under ``src_dir``, path-sorted."""
    digest = hashlib.sha256()
    paths = sorted(
        os.path.join(dirpath, name)
        for dirpath, dirnames, filenames in os.walk(src_dir)
        for name in filenames
        if name.endswith(".py")
    )
    for path in paths:
        digest.update(os.path.relpath(path, src_dir).encode("utf-8"))
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def _git(root, *args):
    try:
        result = subprocess.run(
            ("git",) + args, cwd=root, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def collect(root, src_dir):
    """Provenance of a run from the checkout at ``root``.

    Outside a git checkout ``commit`` and ``dirty`` are ``None``; the
    ``src_repro_sha256`` still identifies the measured code exactly.
    """
    commit = status = None
    if os.path.exists(os.path.join(root, ".git")):
        commit = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_repro_sha256": source_sha256(os.path.join(src_dir, "repro")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "numpy_disabled": bool(os.environ.get("REPRO_NO_NUMPY")),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }

"""Compare the CLI's stdout, stderr and exit code in this tree with a git revision.

Runs every command of ``tests/conftest.py``'s ``CLI_COMMANDS``, plus
``verify`` at a second rate point and ``eigs`` at mu = 1 (where the family
leaves the state set), as ``python -m qslip`` twice: once on this tree's
``src/`` and once on ``src/`` of the revision, exported with ``git archive``
into a temporary directory.  For each command it prints the sha256 of
(stdout, stderr, exit code) on both sides and exits 1 if any differ.

    python tools/cli_identity.py --base HEAD~1

``--base HEAD`` compares the tree with its own last commit: with a clean
tree, an A/A run that must read identical.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA_COMMANDS = (
    ("verify", "--a", "0.3", "--b", "0.8"),
    ("eigs", "--a", "0.1", "--b", "0.9", "--mu", "1"),
)


def commands() -> tuple:
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    from conftest import CLI_COMMANDS

    return tuple(CLI_COMMANDS) + EXTRA_COMMANDS


def export(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev`` under ``dest``; ``git archive`` leaves the repository untouched."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def digest(src: Path, args: tuple, cwd: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "qslip", *args], capture_output=True, env=env, cwd=cwd)
    return hashlib.sha256(repr((run.stdout, run.stderr, run.returncode)).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_src = export(args.base, Path(tmp))
        for command in commands():
            base, tree = digest(base_src, command, tmp), digest(ROOT / "src", command, tmp)
            differ += base != tree
            print(f"{'same' if base == tree else 'DIFF'}  {base}  {tree}  {' '.join(command)}")
    print(f"{differ} command(s) differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that ``escansion scan`` output is byte-identical to a git revision's.

Run with the change in the working tree:

    python3 tools/scan_equal.py [REV]

REV (default HEAD) is exported into a temporary directory. Four
inputs are written: from ``perfbench/inputs.py``, cli_novel pool files
0-59 at 400 lines each, site_heavy rounds 0-29 and 3,000 verse lines at
seed 31; and a copy of ``tests/data/scan_guard.txt``, whose lines hold
the contraction marks, the ``h`` outside ``ch`` and the ``y`` that the
pool inputs lack. ``python -m escansion scan`` runs on each input from
both trees under LC_ALL=C.UTF-8, in seven modes, and their stdout, stderr
and exit codes are compared. The first difference is printed and the
exit code is 1; with none it is 0, and 2 when REV cannot be exported.
The directory is removed on every path. Standard library and ``tar``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (imports no escansion: both trees get one input)

MODES = {
    "tsv": [],
    "jsonl --diagnostics": ["--format", "jsonl", "--diagnostics"],
    "jsonl --target-length 8 --h-blocks-synalepha":
        ["--format", "jsonl", "--target-length", "8", "--h-blocks-synalepha"],
    # away from 11 and without diagnostics the fit counts its subset out;
    # at 12 most lines fit, where at 8 most are unfittable
    "jsonl --target-length 12": ["--format", "jsonl", "--target-length", "12"],
    "jsonl --target-length 14 --diagnostics":
        ["--format", "jsonl", "--target-length", "14", "--diagnostics"],
    "jsonl --target-length 16 --diagnostics":
        ["--format", "jsonl", "--target-length", "16", "--diagnostics"],
    "jsonl from stdin": ["--format", "jsonl"],
}


def write_inputs(directory: Path) -> list[Path]:
    texts = {
        "cli_novel.txt": [line for index in range(60)
                          for line in inputs.novel_file(index, 400)],
        "site_heavy.txt": [text for index in range(30)
                           for text, _ in inputs.site_heavy_round(index)],
        "verse.txt": [text for text, _ in
                      itertools.islice(inputs.verse_stream(31), 3000)],
        "scan_guard.txt": (ROOT / "tests" / "data" / "scan_guard.txt")
        .read_text(encoding="utf-8").splitlines(),
    }
    paths = []
    for name, lines in texts.items():
        path = directory / name
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        paths.append(path)
    return paths


def scan(tree: Path, mode: str, path: Path, cwd: Path):
    env = dict(os.environ, LC_ALL="C.UTF-8", PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "escansion", "scan", *MODES[mode]]
    if mode.endswith("from stdin"):
        with open(path, "rb") as stdin:
            proc = subprocess.run(argv, stdin=stdin, capture_output=True,
                                  cwd=cwd, env=env)
    else:
        proc = subprocess.run([*argv, str(path)], stdin=subprocess.DEVNULL,
                              capture_output=True, cwd=cwd, env=env)
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def first_difference(name: str, ours, theirs) -> str:
    if name == "exit code":
        return f"{theirs} -> {ours}"
    old, new = (text.decode("utf-8", "backslashreplace").splitlines()
                for text in (theirs, ours))
    for row, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
        if a != b:
            return f"line {row}:\n  - {a!r}\n  + {b!r}"
    return "same lines, different line ends"


def compare(rev_tree: Path, work: Path) -> int:
    for path in write_inputs(work):
        for mode in MODES:
            theirs = scan(rev_tree, mode, path, work)
            ours = scan(ROOT, mode, path, work)
            for name in ours:
                if ours[name] != theirs[name]:
                    print(f"{path.name}, {mode}: {name} differs, "
                          f"{first_difference(name, ours[name], theirs[name])}")
                    return 1
            print(f"{path.name}, {mode}: same", flush=True)
    return 0


@contextlib.contextmanager
def checkout(rev: str):
    """Export ``rev``'s committed files into a temporary directory with
    ``git archive`` and yield its root; exit 2 when it cannot be exported.
    The repository's own state is left as it is, and the directory is
    removed on every path."""
    work = Path(tempfile.mkdtemp(prefix="escansion-rev-"))
    tree = work / "tree"
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  "--format=tar", rev], capture_output=True)
        if archive.returncode:
            print(f"error: cannot export {rev!r}", file=sys.stderr)
            raise SystemExit(2)
        tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout,
                       check=True)
        yield tree
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    with (checkout(rev) as rev_tree,
          tempfile.TemporaryDirectory(prefix="scan_equal-") as work):
        status = compare(rev_tree, Path(work))
    print("no difference" if status == 0 else "outputs differ")
    return status


if __name__ == "__main__":
    sys.exit(main())

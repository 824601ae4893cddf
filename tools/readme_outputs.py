"""Byte-identity oracle: run every README command-line example and hash its outputs.

Usage, from the root of a checkout:

    python3 tools/readme_outputs.py OUTDIR

The ``dtqw ...`` lines of the "Command line" block of README.md (backslash
continuations joined, trailing comments dropped) run in order through
``dtqw.cli.main``, each into its own subdirectory ``OUTDIR/NN`` so that two
examples writing the same file name do not overwrite each other.  What an
example prints goes to ``NN/stdout.txt``.  The ``--out`` value is rewritten to
the relative ``NN`` and the examples run with OUTDIR as working directory, so
the sidecars, which echo ``--out``, do not depend on OUTDIR.

Prints one ``sha256  path`` line per file written (paths relative to OUTDIR,
sorted), then one ``exit CODE  dtqw ...`` line per example; exits 1 if any
example exited non-zero.  Two checkouts produce the same lines iff every
README example writes the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_examples(readme: str) -> list[list[str]]:
    """Argument lists of the ``dtqw`` lines in README's "Command line" block."""
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    block = re.sub(r"\\\n\s*", " ", block)
    examples = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "dtqw":
            examples.append(words[1:])
    return examples


def run_examples(outdir: str) -> list[tuple[list[str], int]]:
    """Run every README example into outdir/NN; returns (argv, exit code) pairs."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dtqw.cli import main

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        examples = readme_examples(fh.read())
    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    results = []
    try:
        for i, argv in enumerate(examples, 1):
            sub = f"{i:02d}"
            argv = [sub if prev == "--out" else a for prev, a in zip([""] + argv, argv)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            os.makedirs(sub, exist_ok=True)
            with open(os.path.join(sub, "stdout.txt"), "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
            results.append((argv, code))
    finally:
        os.chdir(cwd)
    return results


def digests(outdir: str) -> list[tuple[str, str]]:
    """(sha256, relative path) of every file under outdir, sorted by path."""
    out = []
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out.append((hashlib.sha256(fh.read()).hexdigest(),
                            os.path.relpath(path, outdir)))
    return sorted(out, key=lambda d: d[1])


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/readme_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = sys.argv[1]
    results = run_examples(outdir)
    for digest, path in digests(outdir):
        print(f"{digest}  {path}")
    for argv, code in results:
        print(f"exit {code}  dtqw {shlex.join(argv)}")
    return 0 if all(code == 0 for _, code in results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Byte-identity oracle: run every README command-line example, and the extra
cases below, and hash their outputs.

Usage, from the root of a checkout:

    python3 tools/readme_outputs.py OUTDIR
    python3 tools/readme_outputs.py OUTDIR > tests/golden/outputs.txt  # update

The ``dtqw ...`` lines of the "Command line" block of README.md (backslash
continuations joined, trailing comments dropped) run in order through
``dtqw.cli.main``, each into its own subdirectory ``OUTDIR/NN`` so that two
examples writing the same file name do not overwrite each other; the cases of
``EXTRA_EXAMPLES`` follow in ``OUTDIR/xNN``.  What an example prints goes to
``NN/stdout.txt``.  The ``--out`` value is rewritten to the relative ``NN`` and
the examples run with OUTDIR as working directory, so the sidecars, which echo
``--out``, do not depend on OUTDIR.

Prints one ``# environment {...}`` line (Python, numpy, scipy and the BLAS
build, which can change the last bits of the LAPACK and BLAS results), then
one ``sha256  path`` line per file written (paths relative to OUTDIR, sorted),
then one ``exit CODE  dtqw ...`` line per example; exits 1 if any example
exited non-zero.  Two checkouts produce the same lines iff every example
writes the same bytes.  ``tests/golden/outputs.txt`` holds these lines, and
``tests/test_cli.py::test_readme_examples_all_exit_0`` compares with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import re
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_PREFIX = "# environment "

# Cases the README does not cover: every subcommand in both --format values,
# the degree flag, a gapless band, the near-closing sweep; each under 0.5 s.
EXTRA_EXAMPLES = [
    ["band", "--theta", "-2.2", "--delta", "0.3", "--alpha", "0.4", "--beta", "-1.1",
     "--grid", "16", "--format", "json", "--out", "x"],
    ["band", "--theta", "0", "--alpha", "0.2", "--grid", "8", "--out", "x"],
    ["map", "--theta", "-0.6", "--alpha", "0.3", "--frame", "v2", "--grid", "32",
     "--format", "json", "--out", "x"],
    ["map", "--theta", "100", "--degrees", "--grid", "24", "--out", "x"],
    ["winding", "--theta", "-1.2", "--format", "json", "--out", "x"],
    ["winding", "--theta", "2.5", "--beta", "0.7", "--out", "x"],
    ["invariant", "--theta1", "-2.5", "--theta2", "0.9", "--delta", "1", "--alpha", "0.3",
     "--format", "json", "--out", "x"],
    ["invariant", "--theta", "-45", "--degrees", "--out", "x"],
    ["symmetry", "--theta", "-1.1", "--delta", "0.4", "--ring-size", "16", "--format", "json",
     "--out", "x"],
    ["symmetry", "--theta", "0.6", "--alpha", "0.7853981633974483", "--seed", "3",
     "--out", "x"],
    ["edge", "--theta1", "-1", "--theta2", "2", "--alpha", "0.5", "--ring-size", "128",
     "--format", "json", "--out", "x"],
    ["evolve", "--theta1", "-1.2", "--theta2", "0.8", "--delta", "-0.5", "--case", "overlap-one",
     "--steps", "40", "--ring-size", "128", "--format", "json", "--out", "x"],
    ["evolve", "--theta1", "-2", "--theta2", "2.5", "--alpha", "-0.4", "--beta", "1",
     "--case", "orthogonal-to-both", "--steps", "30", "--ring-size", "96", "--out", "x"],
    ["sweep", "--theta-min", "-0.0003", "--theta-max", "0.0003", "--theta-step", "0.0001",
     "--format", "json", "--out", "x"],
    ["sweep", "--theta-min", "-3.1", "--theta-max", "3.1", "--theta-step", "0.31",
     "--delta", "-2", "--alpha", "1.1", "--beta", "0.5", "--grid", "33", "--out", "x"],
]


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


def examples() -> list[tuple[str, list[str]]]:
    """(subdirectory, argument list) of every README example, NN, then of
    every extra case, xNN."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = readme_examples(fh.read())
    return ([(f"{i:02d}", argv) for i, argv in enumerate(readme, 1)]
            + [(f"x{i:02d}", argv) for i, argv in enumerate(EXTRA_EXAMPLES, 1)])


def run_examples(outdir: str) -> list[tuple[list[str], int]]:
    """Run every example into its subdirectory of outdir; returns (argv, exit
    code) pairs."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dtqw.cli import main

    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    results = []
    try:
        for sub, argv in examples():
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


def environment() -> dict:
    """What can change the last bits of an output: the Python, numpy and scipy
    versions and the BLAS build, as ``bench/worker.py`` records them, without
    the build's directories."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def oracle_lines(outdir: str) -> tuple[list[str], bool]:
    """The environment line, the digest lines and the exit lines of every
    example run into outdir, and whether every example exited 0."""
    results = run_examples(outdir)
    lines = [ENV_PREFIX + json.dumps(environment(), sort_keys=True)]
    lines += [f"{digest}  {path}" for digest, path in digests(outdir)]
    lines += [f"exit {code}  dtqw {shlex.join(argv)}" for argv, code in results]
    return lines, all(code == 0 for _, code in results)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/readme_outputs.py OUTDIR", file=sys.stderr)
        return 2
    lines, ok = oracle_lines(sys.argv[1])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The README's shell examples still run as printed.

A `$ cobarext ...` line is an example whose block, up to the next `$` line
or the end of the fence, is its output: it is compared byte for byte,
except JSON, which is compared by value because the README abbreviates some
documents onto fewer lines.  Every other `cobarext` line in an `sh` block
must exit 0."""

import json
import os
import shlex
import subprocess
import sys

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _sh_blocks(text):
    blocks, block = [], None
    for line in text.split("\n"):
        if block is None:
            if line == "```sh":
                block = []
        elif line == "```":
            blocks.append(block)
            block = None
        else:
            block.append(line)
    return blocks


def _examples():
    """(argv, printed output or None) for each cobarext line, in README order."""
    with open(README, encoding="utf-8") as fh:
        blocks = _sh_blocks(fh.read())
    out = []
    for block in blocks:
        for line in block:
            if line.startswith("$ cobarext "):
                out.append((shlex.split(line[2:], comments=True)[1:], []))
            elif line.startswith("cobarext "):
                out.append((shlex.split(line, comments=True)[1:], None))
            elif out and out[-1][1] is not None and not line.startswith("$ "):
                out[-1][1].append(line)
    return [(argv, None if shown is None else "\n".join(shown) + "\n")
            for argv, shown in out]


EXAMPLES = _examples()


def test_the_readme_has_examples_of_each_kind():
    assert sum(shown is not None for _, shown in EXAMPLES) >= 5
    assert sum(shown is None for _, shown in EXAMPLES) >= 7


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(tmp_path, argv, shown):
    r = subprocess.run([sys.executable, "-m", "cobarext", *argv], cwd=tmp_path,
                       capture_output=True, timeout=60)
    assert r.returncode == 0, r.stderr
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()
    if shown is None:
        return
    if shown.startswith("{"):
        assert json.loads(r.stdout) == json.loads(shown)
    else:
        assert r.stdout == shown.encode("utf-8")

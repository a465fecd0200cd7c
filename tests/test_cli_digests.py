"""Committed output digests: every command of cli_digests.jsonl, byte for byte.

Each line of cli_digests.jsonl holds an argv, the exit code ``cli.run``
returns for it and the sha-256 of its stdout; for exit 2 and 3 also the
sha-256 of its stderr. An argparse error prints a usage block whose width
and layout follow the terminal and the Python version, so for those (stderr
starting with "usage:") only the last line, the error itself, is hashed.
make_cli_digests.py rewrites the file, one line per command of its
``commands()`` in order; run it only when a change alters output on purpose.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from normdesign.cli import run

DIGESTS = Path(__file__).resolve().parent / "cli_digests.jsonl"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(argv: list[str]) -> dict:
    """The file's record for argv, from one in-process ``cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    record = {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue())}
    if code in (2, 3):
        text = err.getvalue()
        if text.startswith("usage:"):
            text = text.splitlines()[-1]
        record["stderr"] = _sha256(text)
    return record


def test_every_command_matches_its_digest():
    records = [json.loads(line) for line in DIGESTS.read_text("utf-8").splitlines()]
    assert len(records) > 500
    # imported here: make_cli_digests imports this module
    from make_cli_digests import commands

    # a dropped line, or a command never regenerated into the file
    assert [r["argv"] for r in records] == commands()
    changed = [r["argv"] for r in records if digest(r["argv"]) != r]
    assert not changed, f"{len(changed)} commands changed, first: {changed[:5]}"

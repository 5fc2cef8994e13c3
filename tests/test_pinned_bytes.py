"""The pinned bytes of every single command and usage error, run in-process.

``.github/command-lines.txt`` lists single commands as ``code file argv``
and ``.github/usage-lines.txt`` usage errors as ``file argv``.  CI runs the
same lines as ``python -m lensgenus.cli`` and checks their bytes against
the sha256 sums in ``.github/command-bytes.sha256`` and
``.github/usage-bytes.sha256``; here each line runs through ``main``, in a
fresh working directory, so a report that changes its bytes fails tier-1.
The sweep grids (``.github/sweep-lines.txt``) are left to CI, which also
runs them with ``--jobs 4``.
"""

import hashlib
from pathlib import Path

import pytest

from lensgenus.cli import main

GITHUB = Path(__file__).resolve().parent.parent / ".github"


def pins(name: str) -> dict[str, str]:
    """``file -> sha256`` from a ``sha256sum`` listing."""
    return {file: digest for digest, file in
            (line.split() for line in GITHUB.joinpath(name).read_text().splitlines())}


def lines(name: str, fields: int) -> list[list[str]]:
    """Each line's first ``fields`` words, then its argv as one list."""
    rows = [line.split() for line in GITHUB.joinpath(name).read_text().splitlines()]
    return [row[:fields] + [row[fields:]] for row in rows]


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


COMMAND_PINS = pins("command-bytes.sha256")
USAGE_PINS = pins("usage-bytes.sha256")
COMMAND_LINES = lines("command-lines.txt", 2)
USAGE_LINES = lines("usage-lines.txt", 1)


def exports(argv: list[str]) -> list[str]:
    """The file names that ``--export`` and ``--sidecar`` ask ``argv`` to write."""
    return [argv[i + 1] for i, word in enumerate(argv) if word in ("--export", "--sidecar")]


def test_every_pin_has_its_line():
    outputs = {f"{file}.{mode}" for _, file, _ in COMMAND_LINES for mode in ("txt", "json")}
    outputs.update(name for *_, argv in COMMAND_LINES for name in exports(argv))
    assert set(COMMAND_PINS) == outputs
    assert set(USAGE_PINS) == {f"{file}.err" for file, _ in USAGE_LINES}


@pytest.mark.parametrize("code, file, argv", COMMAND_LINES, ids=[row[1] for row in COMMAND_LINES])
def test_command_bytes(capsys, monkeypatch, tmp_path, code, file, argv):
    monkeypatch.chdir(tmp_path)
    for mode, extra in (("txt", []), ("json", ["--json"])):
        assert main(argv + extra) == int(code)
        assert sha256(capsys.readouterr().out) == COMMAND_PINS[f"{file}.{mode}"], mode
    written = exports(argv)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(written)
    for name in written:
        assert sha256(tmp_path.joinpath(name).read_bytes()) == COMMAND_PINS[name], name


@pytest.mark.parametrize("file, argv", USAGE_LINES, ids=[row[0] for row in USAGE_LINES])
def test_usage_bytes(capsys, monkeypatch, tmp_path, file, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert sha256(err) == USAGE_PINS[f"{file}.err"]
    assert list(tmp_path.iterdir()) == []

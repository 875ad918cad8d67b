"""The list of CI runs in tools/ci_runs.sh holds every command and preset.

CI reruns each listed run, runs it at --threads 2 and compares it with the
base commit, so a command or preset missing from the list has none of those
checks.  This reads the list; it does not run it.
"""

import shlex
from pathlib import Path

from rotpolariton import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ci_runs.sh"


def _runs():
    """(name, rotpol arguments) of each `run NAME COMMAND ARGS...` line."""
    lines = _PATH.read_text(encoding="utf-8").splitlines()
    words = [shlex.split(line) for line in lines if line.startswith("run ")]
    return [(w[1], w[2:]) for w in words]


def test_every_command_and_preset_runs_once_by_name():
    runs = _runs()
    names = [name for name, _ in runs]
    assert len(set(names)) == len(names), names
    assert {args[0] for _, args in runs} == set(cli._COMMANDS)
    presets = {args[args.index("--preset") + 1] for _, args in runs if "--preset" in args}
    assert presets == set(cli.PRESETS)

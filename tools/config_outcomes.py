"""Print how rotpol's config layer resolves every single-fault config.

    PYTHONPATH=SRC python tools/config_outcomes.py [SECTION.KEY ...]

A single-fault config sets one SCHEMA key (each key, or the keys named) to
one value of a fixed list, on no preset and on each preset.  For each it
prints one line, `PRESET SECTION.KEY VALUE OUTCOME`, where OUTCOME is:

    ok HASH     it resolved; HASH is the first 12 hex digits of the SHA-256
                of the resolved config as canonical JSON
    2 MESSAGE   resolve_config raised ConfigError (rotpol exits 2)
    1 MESSAGE   it raised anything else (rotpol would print a traceback)

Run it on two source trees and diff the two outputs to list every config
whose outcome moved.  It only reports: the exit code is 0 unless a key
named on the command line is not in SCHEMA.
"""

import copy
import hashlib
import json
import sys

from rotpolariton import cli
from rotpolariton.errors import ConfigError

_GRID = {"start": 0.1, "stop": 1.0, "num": 3}

# null, booleans, strings, nested lists, numbers at the edges of their
# ranges, grids (good and bad), unit mappings, carrier lists and flag lists
VALUES = [
    None, True, False, "x", "", "gaussian", "composite", "designed", "detuning", "+", "1e-8",
    [[1]], 0, -1, 1, 2.5, 8, 64, 1e-320, 1e300, float("inf"), float("-inf"), float("nan"),
    [], [0.0], [0.1, 0.5], [1.0, 1.0000001], [0.1, -0.1],
    _GRID, {**_GRID, "log": True}, {"start": -1, "stop": 1, "num": 3, "log": True},
    {**_GRID, "num": 0}, {**_GRID, "num": 2.5}, {**_GRID, "num": 200000}, {"start": 0, "stop": 1},
    {**_GRID, "num": 1000},
    {"value": 1.0, "unit": "au"}, {"value": 1.0, "unit": "eV"}, {"value": -1.0},
    [{"detuning_g": 0.0}, {"detuning_g": 1.0, "phase": 0.5}], [{"freq": 1.0}],
    [True, False], [True, True], [False],
]


def outcome(raw, preset):
    """The outcome column of one config."""
    try:
        cfg = cli.resolve_config(raw, preset=preset)
    except ConfigError as exc:
        return f"2 {exc}"
    except Exception as exc:
        return f"1 {type(exc).__name__}: {exc}"
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return "ok " + hashlib.sha256(canon.encode()).hexdigest()[:12]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    paths = [f"{section}.{key}" for section, rules in cli.SCHEMA.items() for key in rules]
    unknown = sorted(set(argv) - set(paths))
    if unknown:
        print(f"not a SCHEMA key: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for preset in [None, *sorted(cli.PRESETS)]:
        for path in argv or paths:
            section, key = path.split(".")
            for value in VALUES:
                raw = {section: {key: copy.deepcopy(value)}}
                line = outcome(raw, preset).replace("\n", " ")
                print(f"{preset or '-'} {path} {json.dumps(value)} {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

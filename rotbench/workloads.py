"""Seeded workload definitions: the `rotpol` calls each workload makes.

A workload is a list of steps.  Each step is one `rotpol` invocation: a
command, an optional preset, an optional config mapping (written to YAML for
the program to read) and the number of result items it must produce.  The
program sees only the generated configs; the seed never reaches it except as
the `--seed` value recorded in its manifest.

Detunings and bandwidths are in units of the coupling g.  Seeded draws are
stratified: a range is cut into equal strata and one value is drawn inside
each, so every seed covers the range evenly and the cost of a sequence moves
little from seed to seed, while the values themselves still change.
"""

import math
import random

WORKLOADS = ("kick_scan", "simulate_io")

# the seed whose outputs are compared against reference/seed0.json
DEFAULT_SEED = 0


def _strata(rng, lo, hi, n, log=False):
    """One uniform draw in each of n equal strata of [lo, hi)."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / n
    vals = [lo + width * (i + rng.random()) for i in range(n)]
    return [math.exp(v) for v in vals] if log else vals


def _step(command, config=None, preset=None, items=1, tag=""):
    return {"command": command, "config": config, "preset": preset,
            "items": items, "tag": tag}


def kick_scan(rng):
    """Detuning scan: a 0 g anchor plus one draw in each half of +-2 g."""
    detunings = [0.0] + _strata(rng, -2.0, 2.0, 2)
    bandwidths = [0.1, 1.0]
    cavity = [True, False]
    cfg = {"scan": {"kind": "detuning", "detunings_g": detunings,
                    "bandwidths_g": bandwidths, "cavity": cavity}}
    n = len(detunings) * len(bandwidths) * len(cavity)
    return [_step("scan", cfg, items=n, tag="kick_scan")]


def simulate_io(rng):
    """Single simulate runs: two preset anchors plus bare, dressed and designed draws.

    Propagation work grows as 1/bandwidth, so the seeded bandwidths stay in
    ranges where one draw moves the sequence's cost by a few percent.
    """
    det_bare, det_dressed = _strata(rng, -2.0, 2.0, 2)
    bw_bare, bw_dressed = _strata(rng, 0.5, 1.0, 2, log=True)
    bw_designed = rng.uniform(0.14, 0.2)
    return [
        _step("simulate", preset="bare", tag="bare_anchor"),
        _step("simulate", preset="fig4", tag="designed_anchor"),
        _step("simulate", {"system": {"cavity": False, "n_max": 0},
                           "field": {"bandwidth_g": bw_bare, "detuning_g": det_bare}},
              tag="bare"),
        _step("simulate", {"field": {"bandwidth_g": bw_dressed, "detuning_g": det_dressed}},
              tag="dressed"),
        _step("simulate", {"field": {"kind": "designed", "bandwidth_g": bw_designed}},
              tag="designed"),
    ]


_BUILDERS = {
    "kick_scan": kick_scan,
    "simulate_io": simulate_io,
}


def build(workload, seed):
    """The step list of a workload for one seed; the same seed gives the same steps."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    rng = random.Random(f"{workload}:{int(seed)}")
    return _BUILDERS[workload](rng)

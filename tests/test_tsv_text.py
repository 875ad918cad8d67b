"""The TSV writer's digit path: every float of an array as the bytes of repr."""

import importlib.util
from pathlib import Path

import numpy as np

from rotpolariton import cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_tsv_text.py"


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _ulps_around(x, k):
    """The k doubles on either side of x, and x."""
    return (np.array(x).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


def _sweep():
    """A fixed sweep of 263,447 doubles, half of them negated."""
    rng = np.random.default_rng(20180618)
    inside = np.array([1e-28, 1e16]).view(np.int64)
    # x = m 2^-(s+1), m odd, puts x 10^s = m 5^s / 2 in [1e16, 1e17) on a half
    # integer, where the two nearest 17-digit candidates tie
    ties = [np.ldexp((rng.integers(-(-2 * 10 ** 16 // 5 ** s),
                                   min(2 ** 53 - 1, 2 * 10 ** 17 // 5 ** s), 1000) | 1).astype(float),
                     -s - 1) for s in range(1, 25)]
    parts = [
        # random bit patterns over every finite exponent, and over the range
        # the digit path writes itself
        rng.integers(0, 0x7FF0000000000000, 120_000, dtype=np.int64).view(np.float64),
        rng.integers(inside[0], inside[1], 60_000).view(np.float64),
        # every power of two and of ten, and their neighbours
        _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        _neighbours([float(f"1e{k}") for k in range(-323, 309)]),
        # repr's layout edges: fixed notation from 1e-4 up to below 1e16
        np.concatenate([_ulps_around(x, 50) for x in (1e-4, 1e-5, 1e16)]),
        # subnormals, the smallest and random ones
        np.arange(1, 2001).view(np.float64),
        rng.integers(1, 1 << 52, 3000).view(np.float64),
        np.concatenate(ties),
        # short decimals
        np.array([f"{m}e{e}" for m in range(1, 1000) for e in range(-30, 16)]).astype(float),
    ]
    values = np.concatenate(parts)
    return np.where(rng.random(values.size) < 0.5, -values, values)


def test_a_sweep_of_doubles_reads_as_repr(tmp_path):
    values = _sweep()
    assert values.size >= 200_000
    width = 6
    rows = values[:values.size - values.size % width].reshape(-1, width)
    path = tmp_path / "sweep.tsv"
    cli._write_tsv(path, [f"c{k}" for k in range(width)], rows)
    cells = path.read_text().split()[1 + width:]
    want = [repr(v) for v in rows.ravel().tolist()]
    assert len(cells) == len(want)
    bad = [k for k, (a, b) in enumerate(zip(cells, want)) if a != b]
    assert not bad, f"{len(bad)} cells differ, first {cells[bad[0]]} for {want[bad[0]]}"
    # the sweep reaches the digit arithmetic, not only repr: nearly every
    # value inside its range takes it
    x = np.abs(values)
    inside = x[(x >= 1e-28) & (x < 1e16)]
    assert np.mean(cli._shortest_digits(inside)[3]) > 0.9


def test_the_tsv_text_check_passes_on_a_small_draw(capsys):
    spec = importlib.util.spec_from_file_location("check_tsv_text", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["20000", "7"]) == 0
    assert "every one written as repr" in capsys.readouterr().out

"""Check that the TSV writer's array path writes every double as repr does.

    PYTHONPATH=src python tools/check_tsv_text.py N SEED

Draws N doubles from SEED, writes them through rotpolariton.cli._write_tsv
as a float array of four columns, 262,144 values to a file, and compares
every cell with repr of its value.  Three in four doubles have a biased
exponent drawn over the range the digit path writes itself, [1e-28, 1e16);
the rest over every finite exponent, subnormals included.  Mantissa bits and
signs are uniform.  Prints the first differing cell and exits 1, or prints
the share of values the digit path wrote and exits 0.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from rotpolariton import cli

_WIDTH = 4
_BATCH = 1 << 18


def draw(rng, n):
    """n doubles: random mantissa and sign bits, a biased exponent by the module's mix."""
    # the biased exponents of 1e-28 and 1e16: 929 and 1076
    near = rng.integers(929, 1077, n)
    anywhere = rng.integers(0, 2047, n)
    expo = np.where(rng.random(n) < 0.75, near, anywhere).astype(np.uint64)
    bits = rng.integers(0, 1 << 52, n, dtype=np.uint64) | (expo << np.uint64(52))
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: check_tsv_text.py N SEED")
    n, seed = int(argv[0]), int(argv[1])
    rng = np.random.default_rng(seed)
    fast = done = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.tsv"
        while done < n:
            values = draw(rng, min(_BATCH, n - done))
            rows = np.resize(values, (-(-values.size // _WIDTH), _WIDTH))
            cli._write_tsv(path, [f"c{k}" for k in range(_WIDTH)], rows)
            cells = path.read_text().split()[1 + _WIDTH:]
            want = [repr(v) for v in rows.ravel().tolist()]
            if cells != want:
                k = next(i for i, (a, b) in enumerate(zip(cells, want)) if a != b)
                print(f"value {want[k]} ({rows.ravel()[k].hex()}) written as {cells[k]}")
                return 1
            x = np.abs(values)
            inside = x[(x >= 1e-28) & (x < 1e16)]
            fast += int(np.count_nonzero(cli._shortest_digits(inside)[3]))
            done += values.size
    print(f"{n} values, every one written as repr; the digit path wrote {fast / n:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

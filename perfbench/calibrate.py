"""A fixed amount of work that measures how fast the host runs right now.

Usage: python3 perfbench/calibrate.py SCRATCH_DIR

It does, in small, what ``simplexledger run`` does: start an interpreter and
import numpy, then for 20 "years" sort and deduplicate random 64-bit keys,
look them up in a growing sorted history, write and re-read the new ones as a
run file, count a slice of them in a Python loop and replace a JSON manifest.
Its inputs are fixed, so its CPU time changes only with the host: the
benchmark runs it next to every timed child and scales the child's CPU time
by it (see ``run.py``).  It uses no ``simplexledger`` code, so a change to the
program cannot change it.
"""

import json
import os
import sys

import numpy as np

YEARS = 20
KEYS_PER_YEAR = 20_000
COUNTED_PER_YEAR = 5_000


def main(scratch: str) -> int:
    rng = np.random.default_rng(12345)
    history = np.empty(0, dtype=np.uint64)
    for year in range(YEARS):
        keys = np.unique(rng.integers(0, 1 << 40, size=KEYS_PER_YEAR, dtype=np.uint64))
        if history.size:
            pos = np.minimum(np.searchsorted(history, keys), history.size - 1)
            keys = keys[history[pos] != keys]
        history = np.sort(np.concatenate([history, keys]))
        run_path = os.path.join(scratch, f"run{year:02d}.bin")
        keys.tofile(run_path)
        counts: dict[int, int] = {}
        for key in np.fromfile(run_path, dtype=np.uint64)[:COUNTED_PER_YEAR].tolist():
            counts[key & 255] = counts.get(key & 255, 0) + 1
        tmp = os.path.join(scratch, "manifest.tmp")
        with open(tmp, "w") as f:
            json.dump({"year": year, "counts": counts}, f)
        os.replace(tmp, os.path.join(scratch, "manifest.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

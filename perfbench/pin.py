"""Record each workload's artifact digest per seed in ``pinned.json``.

    python3 perfbench/pin.py --seeds 0-31

Runs ``corpusprep run`` once per workload and seed with ``--workers 1``,
checks the read-back like a timed iteration, and stores the digest of
cleaned, drops, vocab, merges, shards and report.  ``run.py`` then fails
every iteration of a pinned seed whose artifacts differ by a byte.  Pin
again only for a change that is meant to alter the artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)

    path = os.path.join(run.HERE, "pinned.json")
    pins = run.load_pins()
    for workload in sorted(run.JOBS):
        work = os.path.join(run.WORK, workload)
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            run.write_job(work, workload, seed)
            child = run.Child(work, deadline=time.perf_counter() + run.DEADLINE_S)
            result = run.Iteration(child, workload, {})(workers=1)
            if result["errors"]:
                print(f"{workload} seed {seed}: {'; '.join(result['errors'])}", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

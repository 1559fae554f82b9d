"""Run ``corpusprep`` in this process and report the optional modules it loaded.

    python3 scripts/check_loaded_modules.py run --config job.conf --workers 2

The arguments are corpusprep's own.  A run takes blake2b from the
``_blake2`` C module, so it never loads ``hashlib`` or OpenSSL's
``_hashlib``; ``difflib`` serves only a config error's "did you mean" hint,
and ``multiprocessing`` only a ``--workers`` above 1.  Prints one JSON line
last: the command's exit code, which of those modules are loaded, this
process's peak RSS in MB (``VmHWM`` on Linux) and the largest peak RSS of
the children it reaped (``RUSAGE_CHILDREN``): the pool workers when there is
a pool.  Linux keeps that figure across ``exec``, so without a pool it shows
what the launching process had reaped before.
Exits 0 when the command succeeded and loaded none it should not have,
else 1.
"""

from __future__ import annotations

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from corpusprep.cli import main as corpusprep  # noqa: E402

WATCHED = ("_hashlib", "hashlib", "difflib", "multiprocessing")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
    allowed = {"multiprocessing"} if workers > 1 else set()
    code = corpusprep(argv)
    loaded = [name for name in WATCHED if name in sys.modules]
    peak_mb, workers_mb = (
        resource.getrusage(who).ru_maxrss / 1024.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(json.dumps({"exit": code, "loaded": loaded, "peak_rss_mb": round(peak_mb, 2),
                      "workers_peak_rss_mb": round(workers_mb, 2)}))
    return 0 if code == 0 and set(loaded) <= allowed else 1


if __name__ == "__main__":
    sys.exit(main())

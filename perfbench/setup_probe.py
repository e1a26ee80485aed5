"""Time importing leaderlabels and parsing scene documents in a fresh process.

Reads a JSON list of scene documents on stdin, then imports the package from
the `src` directory given as the only argument and parses every document
with `scenefile.parse_scene`. Prints the seconds that took, and the median
chunk time of perfbench/calibrate.py measured right after. Nothing but the
standard library is imported before the clock starts, so numpy and scipy
load inside the timed region, as they do for a user of the package.
"""

import json
import sys
import time


def main() -> int:
    src = sys.argv[1]
    docs = json.load(sys.stdin)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from leaderlabels import scenefile

    for doc in docs:
        scenefile.parse_scene(doc)
    elapsed = time.perf_counter() - t0
    import calibrate

    chunk_s = calibrate.chunk_time(elapsed)
    print(json.dumps({"setup_s": elapsed, "chunk_s": chunk_s, "module": scenefile.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <manifest.json>

The clock starts at the import of ``walkorder.cli`` and stops when every
input measure and cone of the workload has been loaded through the CLI's own
loaders, i.e. when the first query could start.  Prints the seconds taken.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    t0 = time.perf_counter()
    from walkorder import cli

    for path in manifest["measures"]:
        cli.load_measure(path)
    for spec, dim in manifest["cones"]:
        cli.load_cone(spec, dim)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Expected store content of a grid spec, computed with the program itself.

Usage::

    python3 perfbench/grid_tool.py keys SPEC.json
    python3 perfbench/grid_tool.py lines SPEC.json INDEX...

``keys`` prints ``{"keys": [...], "numpy": VERSION}``: the spec's store keys
in expansion order.  ``lines`` prints the exact store line of each indexed
point as a JSON list, each computed here with the sweep runner's own
``execute_point``.  It runs as its own process so that the benchmark
process stays small: a child's peak RSS as the kernel reports it is never
below its parent's at spawn time.
"""

import json
import sys


def _points(spec_path):
    from repro.sweep.grid import SweepSpec

    with open(spec_path, encoding="utf-8") as fh:
        spec = SweepSpec.from_dict(json.load(fh))
    points = {}
    for point in spec.expand():
        points.setdefault(point.key(), point)
    return list(points.values())


def main(argv):
    command, spec_path, *indexes = argv
    points = _points(spec_path)
    if command == "keys":
        import numpy

        out = {"keys": [p.key() for p in points], "numpy": numpy.__version__}
    elif command == "lines":
        from repro.common.jsonutil import canonical_json
        from repro.sweep.runner import execute_point

        out = [canonical_json(execute_point(points[int(i)].to_dict())[0])
               for i in indexes]
    else:
        raise SystemExit(f"unknown command {command!r}")
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])

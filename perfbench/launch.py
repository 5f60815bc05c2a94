"""Run ``python -m MODULE ARGS...`` with the benchmark's tracing installed.

Usage: ``python3 perfbench/launch.py SPAN_DIR MODULE [ARGS...]``

The module runs as ``__main__`` exactly as ``python -m`` would run it; the
only difference is that the public entry points of each layer are wrapped
(see ``tracer.py``) and the recorded spans land in ``SPAN_DIR``.
"""

import os
import runpy
import sys

import tracer


def main() -> None:
    span_dir, module, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = tracer.install(span_dir)
    # Present the interpreter state ``python -m MODULE`` would have.
    sys.path[0] = os.getcwd()
    sys.argv = [module] + args
    token = rec.open()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        rec.close("process", token, {"module": module})


if __name__ == "__main__":
    main()

"""Time a fresh process's set-up: import monoflow, parse a config, build the problem.

    python3 benchmarks/probe_setup.py SRC_DIR CONFIG_JSON

Prints the elapsed seconds, measured from before the import.
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    src, path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import monoflow
    from monoflow.config import load_config

    if not monoflow.__file__.startswith(src):
        raise SystemExit(f"monoflow imported from {monoflow.__file__}, not from {src}")
    load_config(path).problem_instance()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()

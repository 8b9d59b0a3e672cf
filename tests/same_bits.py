"""Write every output whose bits a refactor must keep, for a `diff -r`.

    python tests/same_bits.py OUTDIR

For each reference() call of the benchmark workloads (benchmarks/workloads.py,
imported as it is) it writes the call's CSV, .summary.json and stdout, and
for each seed in CHECK_SEEDS the stdout of `monoflow check --suite ALL`.
The program is imported from the src/ next to this file.  Run it on two
checkouts and compare: `diff -r OUTDIR_A OUTDIR_B` lists every output that
changed.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK_SEEDS = [0, 3, 1385176604, 1819789398, 1141051470, 493018052]


def _call(cli, argv):
    """(exit code, stdout) of cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from monoflow import cli
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for i, call in enumerate(workload.reference()):
            stem = str(outdir / f"{workload.name}.{i}")
            Path(stem + ".json").write_text(json.dumps(call.config), encoding="utf-8")
            rc, out = _call(cli, [call.cmd, "--config", stem + ".json", "--out", stem + ".csv"])
            Path(stem + ".stdout").write_text(f"exit {rc}\n{out}", encoding="utf-8")
    for seed in CHECK_SEEDS:
        rc, out = _call(cli, ["check", "--suite", "ALL", "--seed", str(seed)])
        (outdir / f"check_ALL.{seed}.stdout").write_text(f"exit {rc}\n{out}", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

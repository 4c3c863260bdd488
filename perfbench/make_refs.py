"""Record the reference outputs that the correctness gate checks against.

Usage: python3 perfbench/make_refs.py [--inputs] [WORKLOAD ...]

Runs every recorded case of each named workload (default: all) through
the same commands the benchmark times and writes ``refs/<workload>.json``.
``--inputs`` first rewrites the fixed calibration files under ``data/``
that ``simulate_oc`` reads. Run it only at a commit whose outputs are the
reference: the references in the repository come from the code at the
commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from common import DATA, REFS, WORK, pin_threads, use_checkout_source
from workloads import WORKLOADS, _tiny_call

CALIBRATION_REPS = 500
TINY_CALIBRATION_REPS = 100


def write_inputs() -> None:
    for scenario, out, reps in (("sim_scenario.json", "sim_calibration.json", CALIBRATION_REPS),
                                ("tiny_sim_scenario.json", "tiny_sim_calibration.json",
                                 TINY_CALIBRATION_REPS)):
        _tiny_call(["calibrate", "--scenario", str(DATA / scenario), "--reps", str(reps),
                    "--threads", "1", "--out", str(DATA / out)])
        print(f"wrote {DATA / out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", action="store_true")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {list(WORKLOADS)}")
    pin_threads()
    use_checkout_source()
    if args.inputs:
        write_inputs()
    WORK.mkdir(parents=True, exist_ok=True)
    REFS.mkdir(parents=True, exist_ok=True)
    for name in args.workloads or WORKLOADS:
        wl = WORKLOADS[name]()
        work = Path(tempfile.mkdtemp(prefix=f"refs-{name}-", dir=WORK))
        try:
            wl.setup(work, 0)
            cases = []
            for case in range(wl.cases):
                ops = wl.run_unit(case)
                cases.append([op.got for op in ops])
                print(f"{name} case {case}: exits {[op.got['exit'] for op in ops]}, "
                      f"{sum(op.seconds for op in ops):.2f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(REFS / wl.ref_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "cases": cases}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

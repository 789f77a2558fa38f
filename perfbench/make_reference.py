"""Recompute perfbench/reference.json, the stored outputs of each
workload's reference operation. Run it from the repository root after a
deliberate change of what casep computes:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> None:
    run.limit_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads
    values = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make()
        work = run.WORK_DIR / f"reference-{name}"
        try:
            wl.prepare(workloads.REF_SEED, work)
            values[name] = wl.reference_values()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(name, values[name])
    workloads.REFERENCE_FILE.write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Record the outputs the benchmark checks against into ``reference.json``.

Runs every referenced program seed (0..9) of ``grid6-cli`` and
``source-prep`` once and stores the SHA-256 of each output: per grid seed the
(method, n_t, seed, accuracy) tuples, per (task, seed) preparation the bytes
of its five files. ``pilot`` needs no entry, it replays the committed
``tests/data/pilot_rot40.json``. Rerun this only after an intentional change
to what the package computes:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import PROGRAM_SEEDS, REFERENCE_PATH, Grid6Cli, SourcePrep


def main() -> int:
    fha = run.import_package()
    workdir = run.WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for cls in (Grid6Cli, SourcePrep):
            wl = cls(fha, 0, workdir, reference={cls.name: {}})
            wl.order = list(PROGRAM_SEEDS)
            digests = {}
            for i in range(len(PROGRAM_SEEDS)):
                rnd = wl.run(i)
                unexpected = [p for p in rnd.problems if "reference" not in p]
                if unexpected:
                    print("\n".join(unexpected), file=sys.stderr)
                    return 1
                digests.update(rnd.digests)
                print(f"{cls.name} seed {rnd.program_seed}: {rnd.seconds:.1f} s", flush=True)
            wl.cleanup()
            reference[cls.name] = dict(sorted(digests.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

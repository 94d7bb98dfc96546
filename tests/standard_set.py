"""Write the standard set of `gusbox estimate` reports for one source tree.

    python3 tests/standard_set.py SRC OUT

``SRC`` is a checkout's ``src`` directory. For the workloads ``tpch-join``,
``star-8`` and ``star-12`` of ``perfbench/workloads.py`` at data seeds 0-9,
this generates the inputs with ``SRC``'s ``gusbox.datagen`` and writes four
reports per input to ``OUT``, each from a ``gusbox estimate`` process run on
``SRC`` at run seed 3: JSON, ``--explain``, ``--subsample`` with the
workload's fixed spec, and ``--format text --explain``. That is 120 files.
Two trees give the same reports when ``diff -r`` of their ``OUT``
directories prints nothing. Every run must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_SEEDS = range(10)
RUN_SEED = 3
SUBSAMPLE = {"tpch-join": "l=0.5,o=0.7", "star-8": "f=0.5,d01=0.7", "star-12": "f=0.5,d01=0.7"}
MODES = {
    "json": (),
    "explain": ("--explain",),
    "subsample": ("--subsample", None),  # the workload's spec
    "text": ("--format", "text", "--explain"),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/standard_set.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for workload, generate in workloads.GENERATORS.items():
        for seed in DATA_SEEDS:
            with tempfile.TemporaryDirectory() as data:
                plan = generate(seed, Path(data))
                for mode, options in MODES.items():
                    options = [SUBSAMPLE[workload] if o is None else o for o in options]
                    report = out / f"{workload}-{seed}-{mode}.{'txt' if mode == 'text' else 'json'}"
                    subprocess.run(
                        [sys.executable, "-m", "gusbox.cli", "estimate", str(plan),
                         "--seed", str(RUN_SEED), *options, "--out", str(report)],
                        env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Record reference estimates for ``reference.json``.

    python3 perfbench/record_reference.py

For every workload and every data seed below ``REFERENCE_SEEDS``, generates
the inputs, runs `gusbox estimate` once with the benchmark's run seed and
stores ``[estimate, varianceHat]``. Run it at the commit whose results later
commits must reproduce; ``run.py`` compares every report against these
values.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import HERE, REFERENCE_SEEDS, ROOT, RUN_SEED, SRC

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (needs gusbox on the path)


def record(workload: str, seed: int) -> list[float]:
    work = HERE / ".work" / f"reference-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.GENERATORS[workload](seed, work)
        out = work / "report.json"
        subprocess.run([sys.executable, "-m", "gusbox.cli", "estimate", str(plan),
                        "--seed", str(RUN_SEED), "--out", str(out)],
                       cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        report = json.loads(out.read_text(encoding="utf-8"))
        return [report["estimate"], report["varianceHat"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ref = {"run_seed": RUN_SEED, "workloads": {
        workload: {str(seed): record(workload, seed) for seed in range(REFERENCE_SEEDS)}
        for workload in workloads.GENERATORS}}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

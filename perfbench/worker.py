"""Helper process that holds numpy and gusbox for ``run.py``.

``run.py`` spawns the timed `gusbox estimate` processes itself and imports
neither numpy nor gusbox. A child's peak RSS, read from ``wait4``, includes
the peak RSS of the process that spawned it, so the spawning process stays
small and the heavy work below runs here instead:

    python3 perfbench/worker.py WORKLOAD SEED

It prints ``{"ready": true}`` (or an error and exits 2 for an unknown
workload), then answers one JSON request per line of standard input with one
JSON line on standard output:

- ``{"cmd": "machine"}``: nproc, CPU model, Python and numpy versions;
- ``{"cmd": "setup", "dir": D}``: generates the workload into ``D`` (emptied
  first) and returns the seconds it took, a digest of the files written and
  the plan path;
- ``{"cmd": "check", "plan": P, "report": R, "run_seed": S}``: checks the
  report's ``ySample`` bit for bit against ``gusbox.oracle.exact_y_terms`` of
  the executed sample, and ``estimate*a`` against the exactly rounded sum of
  the sample's ``f`` values; returns ``[[ok, what], ...]``.

It exits when its standard input closes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy

import workloads

REL_TOL = 1e-9


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup(generate, seed: int, directory: Path) -> dict:
    shutil.rmtree(directory, ignore_errors=True)
    t0 = time.perf_counter()
    plan = generate(seed, directory)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "digest": _tree_digest(directory), "plan": str(plan)}


def check_sample(plan: Path, report_path: Path, run_seed: int) -> list:
    from gusbox.dsl import parse_plan
    from gusbox.engine import execute
    from gusbox.ingest import ingest_csv
    from gusbox.oracle import exact_y_terms

    report = json.loads(report_path.read_text(encoding="utf-8"))
    doc = parse_plan(plan.read_text(encoding="utf-8"))
    catalog = {name: ingest_csv(plan.parent / spec.path, name, spec.column_types,
                                spec.id_column)
               for name, spec in doc.tables.items()}
    relation = execute(doc.plan, catalog, master_seed=run_seed).relation
    schema = relation.schema
    oracle_y = {schema.subset_key(s): v for s, v in exact_y_terms(relation).items()}
    exact = math.fsum(row.f for row in relation.rows)
    return [
        [report["ySample"] == oracle_y,
         "ySample differs from gusbox.oracle.exact_y_terms of the sample"],
        [abs(report["estimate"] * report["a"] - exact) <= REL_TOL * abs(exact),
         "estimate*a differs from the exactly rounded sum of f"],
    ]


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload not in workloads.GENERATORS:
        print(f"error: unknown workload {workload!r}; expected one of "
              f"{sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    generate = workloads.GENERATORS[workload]
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "machine":
            answer = machine_info()
        elif request["cmd"] == "setup":
            answer = setup(generate, seed, Path(request["dir"]))
        else:
            answer = check_sample(Path(request["plan"]), Path(request["report"]),
                                  request["run_seed"])
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

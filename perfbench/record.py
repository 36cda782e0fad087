#!/usr/bin/env python3
"""Record the correctness reference of every pool op.

Usage (from the repository root)::

    python3 perfbench/record.py [WORKLOAD ...]

Runs each op of each workload's pool once through ``circulant3.cli.main``
and writes ``perfbench/reference/<workload>.json.gz``. Run it only on a
commit whose outputs are the accepted reference: the gate in ``run.py``
compares every later commit against these files. An op that exits with 2
or 3, or raises, is refused, because no workload op may fail.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads


def record(workload: str, spec_paths: dict[str, str]) -> dict:
    cli = run.import_cli()
    ops = {}
    for index in range(workloads.POOL_SIZE[workload]):
        for op in workloads.pool_ops(workload, index):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(workloads.concrete_argv(op, spec_paths))
            if rc not in (0, 1):
                raise SystemExit(f"{workload} op {op.key} exited {rc}: {err.getvalue().strip()}")
            ops[op.key] = gate.summarize(op.argv, rc, out.getvalue())
    return {"workload": workload, "ops": ops}


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        spec_paths = workloads.write_specs(Path(tmp))
        for workload in names:
            data = json.dumps(record(workload, spec_paths), separators=(",", ":")).encode()
            with open(gate.reference_path(workload), "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
                    fh.write(data)
            print(f"{workload}: {len(data)} bytes of JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

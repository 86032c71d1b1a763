"""Record the committed answer digests of every workload.

    python3 perfbench/record_digests.py [--seeds 0-19] [--workload NAME ...]

Solves each pool once, audits every answer exactly as a benchmark run does,
and writes ``perfbench/expected_digests.json``.  Rerun it only when the
workload inputs change on purpose; a solver change must reproduce the
committed digests, not rewrite them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from spread import seed_range

sys.path.insert(0, str(run.SRC))

from workloads import make_cases  # noqa: E402


def pool_digest(workload: str, seed: int) -> str:
    run.STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.STATE_DIR) as workdir:
        cases = make_cases(workload, seed, False, Path(workdir))
        checker = run.Checker(cases)
        for idx, case in enumerate(cases):
            checker.check(idx, run.attempt(case)[1])
        failed, digest = checker.finish()
    if failed:
        raise SystemExit(f"{workload} seed {seed}: {failed} failed: {checker.messages}")
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS,
                        help="record only these workloads (repeatable); others keep their entries")
    args = parser.parse_args(argv)
    table = json.loads(run.EXPECTED_DIGESTS.read_text()) if run.EXPECTED_DIGESTS.exists() else {}
    for workload in args.workload or run.WORKLOADS:
        table[workload] = {str(seed): pool_digest(workload, seed) for seed in seed_range(args.seeds)}
    run.EXPECTED_DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

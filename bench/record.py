#!/usr/bin/env python3
"""Record the pass summaries that ``bench/run.py`` checks outputs against.

    python3 bench/record.py --seeds 0-39

Run it at a commit whose outputs are known to be right.  For each workload
and seed it sets up, runs one pass, checks it and stores the summary in
``bench/expected.json``; entries for other seeds are kept.  A seed with no
entry is still checked, against its own first pass and the invariants.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import EXPECTED, OUT, SRC
from spans import NULL


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 0-39")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"record-{os.getpid()}"
    workdir.mkdir()
    try:
        for workload in WORKLOADS.values():
            for seed in args.seeds:
                state = workload.setup(seed, workdir, NULL)
                summary = workload.summarize(state,
                                             workload.run(state, NULL))
                expected.setdefault(workload.name, {})[str(seed)] = summary
                print(f"{workload.name} seed {seed}: {summary}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(dump(expected))
    return 0


def dump(expected: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name in sorted(expected):
        rows = sorted(expected[name].items(), key=lambda item: int(item[0]))
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(summary, sort_keys=True)}"
            for seed, summary in rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())

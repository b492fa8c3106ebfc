"""Record the reference outputs the benchmark checks every run against.

Usage (from the repository root):

    python3 perfbench/record.py [WORKLOAD ...]

Runs every pool entry of each named workload (all of them by default)
once and writes ``perfbench/references/<workload>.json``.  Re-record only
when a change is meant to alter results, such as a new closed-form law,
and record it as a change of its own.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy is imported

from workloads import WORKLOADS


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    import crmimo

    run.check_source(crmimo)
    for name in names:
        workload = WORKLOADS[name]
        items = {item.key: item.output for item in workload.reference_items(crmimo)}
        out = run.BENCH_DIR / "references" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        header = {"workload": name, "git_commit": run.git_commit(),
                  "src_sha256": run.source_digest()}
        lines = [f"{json.dumps(key)}: {json.dumps(items[key], sort_keys=True)}"
                 for key in sorted(items)]
        with open(out, "w") as fh:
            fh.write(json.dumps(header)[:-1] + ', "items": {\n')
            fh.write(",\n".join(lines) + "\n}}\n")
        print(f"{name}: {len(items)} reference items -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

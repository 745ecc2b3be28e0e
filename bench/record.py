#!/usr/bin/env python3
"""Record the expected outputs of every input set into ``bench/expected/``.

    python3 bench/record.py [workload ...]

Runs each op of each of the ``CLASSES`` input sets once with the program in
``src/`` and stores the numbers the correctness gate compares.  Verdicts are
not recorded: the gate always expects ``holds``, so an input set that hits a
defect of the program is reported as failed ops instead of being re-seeded.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, WORKLOAD_NAMES, use_checkout


def main(names) -> int:
    use_checkout()
    import workloads

    (BENCH / "expected").mkdir(exist_ok=True)
    for name in names or WORKLOAD_NAMES:
        workdir = OUT / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        classes = []
        try:
            for cls in range(workloads.CLASSES):
                wl = workloads.BY_NAME[name](cls, workdir, None)
                wl.setup()
                recorded = {}
                for op in wl.ops:
                    verdicts, values = wl.values(op, wl.run_op(op))
                    if any(v != workloads.HOLDS for v in verdicts):
                        print(f"warning: {name} input set {cls} {op.key}: {verdicts}")
                    recorded[op.key] = values
                classes.append(recorded)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = BENCH / "expected" / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "classes": classes}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"recorded {path} ({len(classes)} input sets)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

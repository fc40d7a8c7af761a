"""Record refs.json, the pinned expected output of every benchmark item.

    PYTHONPATH=src python3 perfbench/make_refs.py

Solver items are recorded with shards=1, as the CLI items run; the
traced run's shards=2 stage must reproduce them byte for byte.  The
references are then confirmed without wordeq by refcheck.py.  Rerun this only when a program change is meant to alter
an answer, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402


def main() -> int:
    items = {it.id: it for it in workloads.all_items()}
    runner = Runner({})
    refs = {item_id: runner.call(item) for item_id, item in sorted(items.items())}
    problems = refcheck.check_refs(list(items.values()), refs)
    for msg in problems:
        print(msg, file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record one pass's tabulated numbers per workload and seed as golden values.

    python3 perfbench/make_golden.py SEED [SEED ...]

Run it on the reference commit only: ``run.py`` fails any later run whose
table differs from these numbers by more than 1e-9. A pass that fails its
invariant checks is not recorded. Each ``golden/<workload>.json`` holds the
key list once and one value list per seed, in key order.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    status = 0
    for name in sorted(workloads.WORKLOADS):
        path = checks.GOLDEN_DIR / f"{name}.json"
        stored = json.loads(path.read_text()) if path.exists() else {"keys": None, "seeds": {}}
        for seed in args.seeds:
            w = workloads.WORKLOADS[name]()
            with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
                p = w.run(w.prepare(seed, workloads.Sizes(), Path(tmp)))
            failed, messages = checks.check_pass(name, p, None)
            if failed or messages:
                print(f"{name} seed {seed}: not recorded, checks failed: {messages[:5]}", file=sys.stderr)
                status = 1
                continue
            keys = sorted(p.table)
            if stored["keys"] is not None and stored["keys"] != keys:
                print(f"{name} seed {seed}: table keys changed; not recorded", file=sys.stderr)
                status = 1
                continue
            stored["keys"] = keys
            stored["seeds"][str(seed)] = [p.table[k] for k in keys]
            print(f"{name} seed {seed}: {len(keys)} numbers recorded")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(stored, separators=(",", ":"), sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference.json: each workload's op 0 at the reference seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted; the benchmark compares
every later run with these values.
"""

import json
import os
import tempfile

import run  # pins threads and puts src/ on the path first
import workloads


def main():
    out = {"reference_seed": workloads.REF_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for name, wl in workloads.WORKLOADS.items():
            out["workloads"][name] = wl.outputs(workloads.REF_SEED, workdir)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare two sets of gridbench -metrics JSONL dumps series by series.

Usage: python3 scripts/metricsdiff.py OLD_DIR NEW_DIR

Each directory holds one dump per figure under the same file names, e.g.
made with `gridbench -fig F -scale 0.1 -seed 1 -metrics DIR/figF.jsonl`.
Every series of an OLD dump must appear in the NEW dump with the same
family, labels and points. Per file it reports families whose "kind"
changed and families whose series exist only in the NEW dump. Exits 1
if any old series is missing or differs.
"""
import json
import os
import sys


def load(path):
    series = {}
    for line in open(path):
        s = json.loads(line)
        series[s["name"]] = s
    return series


def main(old_dir, new_dir):
    bad = 0
    for fn in sorted(os.listdir(old_dir)):
        old, new = load(os.path.join(old_dir, fn)), load(os.path.join(new_dir, fn))
        missing = [n for n in old if n not in new]
        differ = [n for n in old if n in new and any(
            old[n][k] != new[n][k] for k in ("family", "labels", "points"))]
        retyped = sorted({(old[n]["family"], old[n]["kind"], new[n]["kind"])
                          for n in old if n in new and old[n]["kind"] != new[n]["kind"]})
        added = [n for n in new if n not in old]
        print(f"{fn}: old {len(old)} series, new {len(new)}; "
              f"missing {len(missing)}, differing {len(differ)}")
        print("  re-typed: " + (", ".join(f"{f} {a}->{b}" for f, a, b in retyped) or "none"))
        print(f"  only in new ({len(added)} series): "
              + (", ".join(sorted({new[n]["family"] for n in added})) or "none"))
        for n in missing + differ:
            print("  DIFFERS " + n)
        bad += len(missing) + len(differ)
    print("every old series unchanged" if bad == 0 else f"{bad} old series missing or changed")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))

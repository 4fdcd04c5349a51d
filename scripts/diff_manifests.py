#!/usr/bin/env python3
"""Print the manifest rows whose value differs between two runs.

Usage: python scripts/diff_manifests.py OLD/manifest.csv NEW/manifest.csv

Rows are keyed by (seed, kind, name); a row present on one side only prints
with "-" for the missing value. Exits 1 when any row differs, else 0.
"""
import csv
import sys


def rows(path: str) -> dict[tuple[str, str, str], str]:
    with open(path, newline="") as fh:
        return {(r["seed"], r["kind"], r["name"]): r["value"] for r in csv.DictReader(fh)}


def main(old_path: str, new_path: str) -> int:
    old, new = rows(old_path), rows(new_path)
    changed = [key for key in sorted(old.keys() | new.keys())
               if old.get(key) != new.get(key)]
    for key in changed:
        print(",".join(key), old.get(key, "-"), new.get(key, "-"))
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))

"""Print each metric of a results file as a ratio against a previous one.

Usage: python3 perfbench/diff.py OLD.json NEW.json

Both files are records that ``run.py`` writes to ``perfbench/_results/``.
The ratio is NEW / OLD, so the base of every ratio is the older run.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rows(old: dict, new: dict) -> list[tuple[str, str, float | None, float | None, str]]:
    names = list(new["metrics"]) + [n for n in old["metrics"] if n not in new["metrics"]]
    out = []
    for name in names:
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (new["metrics"].get(name) or old["metrics"][name])["unit"]
        if a is None or b is None:
            ratio = "absent in " + ("old" if a is None else "new")
        elif a == 0:
            ratio = "same" if b == 0 else "old is 0"
        else:
            ratio = f"{b / a:.3f}"
        out.append((name, unit, a, b, ratio))
    return out


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    for label, doc in (("old", old), ("new", new)):
        rec = doc["record"]
        print(f"{label}: {doc['workload']} trace={doc['trace']} seed={rec['seed']} "
              f"sha={rec['git_sha'][:12]} python={rec['python']} numpy={rec['numpy']} "
              f"scipy={rec['scipy']} nproc={rec['nproc']}")
    print(f"{'metric':<44} {'unit':<9} {'old':>12} {'new':>12} {'new/old':>10}")
    for name, unit, a, b, ratio in rows(old, new):
        print(f"{name:<44} {unit:<9} {_fmt(a):>12} {_fmt(b):>12} {ratio:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

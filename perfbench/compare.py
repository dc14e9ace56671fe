"""Compare result files of two versions of the program.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is one `perfbench/out/results/*.json` written by run.py for the
same workload (copy them aside between versions: run.py overwrites its
result file per workload, seed and trace flag).  For every metric the table
gives the median of each side, their ratio, and for end-to-end metrics
whether the new median is worse than the base by more than the bound in
BENCHMARK.json.  The exit code is 1 when some end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def _values(docs, section: str) -> dict:
    out: dict = {}
    for doc in docs:
        for name, v in doc.get(section, {}).items():
            v = v["value"] if isinstance(v, dict) else v
            if v is not None:
                out.setdefault(name, []).append(v)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = _load(args.base), _load(args.new)
    workloads = {d["run"]["workload"] for d in base + new}
    if len(workloads) != 1:
        raise SystemExit(f"result files mix workloads: {sorted(workloads)}")
    print(f"workload {workloads.pop()}: {len(base)} base runs, {len(new)} new runs")
    regressed = False
    for section in ("end_to_end", "per_layer"):
        b, n = _values(base, section), _values(new, section)
        for name in sorted(set(b) & set(n)):
            mb, mn = statistics.median(b[name]), statistics.median(n[name])
            ratio = mn / mb if mb else float("nan")
            flag = ""
            if name in spec:
                m = spec[name]
                worse = mn > mb * (1 + m["bound"]) if m["better"] == "lower" \
                    else mn < mb * (1 - m["bound"])
                flag = f"bound {m['bound']:.2f}  " + ("REGRESSED" if worse else "ok")
                regressed |= worse
            print(f"  {name:<40} {mb:>12.5g} {mn:>12.5g}  x{ratio:<8.4g} {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())

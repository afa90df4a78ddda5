#!/usr/bin/env python3
"""Compares two result files of run.py --out against BENCHMARK.json.

    python3 bench_pipeline/compare.py BASE.json NEW.json

For every (workload, metric) present in both files it prints the two
medians with their quartiles and a verdict:

  same        exact metric (a simulation output), identical in both files
  CHANGED     exact metric that differs: the simulation computed something
              else, which a performance change must never do
  ok          within the metric's bound
  better      improved by more than the bound
  REGRESSION  worse than the bound allows
  unresolved  the spread between quartiles is wider than the bound, unless
              every NEW sample beats every BASE sample
  info        per-layer metric; these carry no bound

The simulation outputs of each file's first repetition (modelled times,
colors) are compared too. The exit code is 1 on any REGRESSION or CHANGED.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(m, base, new, bound):
    if m["exact"]:
        same = set(base["samples"]) == set(new["samples"])
        return "same" if same else "CHANGED"
    if bound is None:
        return "info"
    sign = 1.0 if m["better"] == "lower" else -1.0
    worse = sign * (new["median"] - base["median"]) / base["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    new_worst = max(new["samples"]) if sign > 0 else min(new["samples"])
    base_best = min(base["samples"]) if sign > 0 else max(base["samples"])
    if spread > bound and not sign * new_worst < sign * base_best:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if worse < -bound else "ok"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    bad = 0
    print(f"{'workload':15s} {'metric':32s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'delta':>8s}  verdict")
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            print(f"{name:15s} missing from {argv[2]}")
            bad += 1
            continue
        for key, bm in b["metrics"].items():
            nm = n["metrics"].get(key)
            if nm is None or key not in kinds:
                continue
            m = {**kinds[key], "exact": bm["exact"]}
            v = verdict(m, bm, nm, kinds[key].get("bound"))
            bad += v in ("REGRESSION", "CHANGED")
            delta = ((nm["median"] - bm["median"]) / bm["median"]
                     if bm["median"] else 0.0)
            print(f"{name:15s} {key:32s} "
                  f"{bm['median']:12.6g} [{bm['q1']:9.4g}, {bm['q3']:9.4g}] "
                  f"{nm['median']:12.6g} [{nm['q1']:9.4g}, {nm['q3']:9.4g}] "
                  f"{delta:+8.2%}  {v}")
        if b.get("exact") != n.get("exact"):
            print(f"{name:15s} simulation outputs differ: "
                  f"{b.get('exact')} vs {n.get('exact')}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Per-layer schedule tuning and policies, end to end.

1. Tune every distinct layer GEMM of ResNet50 cross-backend
   (batch-replay broad sweep, detailed top-K finalists) and show
   the per-layer winners — `repro tune --per-layer` does the same from
   the CLI.
2. Persist the winners as a *schedule book* and reload it (identical
   schedule cache keys, so a warm simulation cache stays valid).
3. Run Fig. 4 under the three schedule policies — fixed (paper
   default), heuristic (shape-driven rules), tuned (the book) — and
   compare the weighted whole-model cycle totals.

Run:  python examples/per_layer_tuning.py [--policy tiny|small] [--nm 1:4]
"""

import argparse
import tempfile
from pathlib import Path

from repro.eval import (
    ExperimentEngine,
    HeuristicPolicy,
    TunedPolicy,
    load_schedule_book,
    run_fig4,
    save_schedule_book,
    tune_per_layer,
)
from repro.nn import POLICIES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--policy", default="tiny",
                        choices=sorted(POLICIES))
    parser.add_argument("--nm", default="1:4", metavar="N:M")
    args = parser.parse_args()
    policy = POLICIES[args.policy]
    nm = tuple(int(part) for part in args.nm.split(":"))
    engine = ExperimentEngine.from_env()

    # 1. per-layer cross-backend tuning
    result = tune_per_layer("indexmac-spmm", nm, model="resnet50",
                            policy=policy, engine=engine)
    print(result.render())
    print()

    # 2. the schedule book round-trips with stable cache keys
    book_path = Path(tempfile.gettempdir()) / "per_layer_book.json"
    save_schedule_book(book_path, result.to_book())
    book = load_schedule_book(book_path)
    print(f"schedule book -> {book_path} ({len(book)} entries, "
          f"round-tripped)")
    for entry in book.entries:
        if entry.layer != "*":
            print(f"  {entry.layer:16s} {entry.schedule.describe():28s} "
                  f"cache key {entry.schedule.cache_key()[:12]}")
    print()

    # 3. fixed vs heuristic vs tuned on Fig. 4
    totals = {}
    for name, options in (("fixed", None),
                          ("heuristic", HeuristicPolicy()),
                          ("tuned", TunedPolicy(book=book))):
        fig = run_fig4(policy=policy, options=options, sparsities=(nm,))
        totals[name] = fig.total_cycles(nm)
        lo, hi = fig.speedup_range(nm)
        print(f"{name:10s} total proposed cycles "
              f"{totals[name]:14,.0f}   speedup range "
              f"{lo:.2f}x-{hi:.2f}x")
    print(f"\ntuned vs fixed: "
          f"{totals['fixed'] / totals['tuned']:.3f}x "
          f"(beat-or-match holds by construction)")
    print(f"[{engine.summary()}]")


if __name__ == "__main__":
    main()

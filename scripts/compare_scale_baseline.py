#!/usr/bin/env python3
"""Compare a fresh scale_engine run against the committed BENCH_scale.json.

Usage: compare_scale_baseline.py <baseline.json> <fresh.json>

Both files hold the rows scale_engine saves: objects with named columns
{nodes, shards, workload ("uniform"/"flash"), secs, messages,
peak_rss_mb}. Rows are keyed by (nodes, shards, workload).

For every fresh row with a committed counterpart the script prints the
wall-clock (secs) delta, and the row's `secs` and `peak_rss_mb` as a
ratio to the fresh 1-shard row of the same size and workload (the
sharding penalty) — both informational. It FAILS (exit 1) when:

* the `messages` column diverges: the message count is a pure function of
  the simulation (same seed, same protocol), so a mismatch is a
  determinism or behavior break, never noise;
* `peak_rss_mb` regresses more than RSS_TOLERANCE (15%) over the
  committed row: peak memory is reset per row by the bench, so a jump
  that size is a real memory regression, not allocator noise;
* a fresh row is missing from the baseline, so the committed trajectory
  stays in lockstep with the bench grid.

RSS improvements (fresh below baseline) never fail — they are the point.
"""

import json
import sys

RSS_TOLERANCE = 0.15


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)
    keyed = {}
    for row in rows:
        key = (int(row["nodes"]), int(row["shards"]), str(row["workload"]))
        keyed[key] = {
            "secs": float(row["secs"]),
            "messages": int(row["messages"]),
            "rss": float(row.get("peak_rss_mb", 0.0)),
        }
    return keyed


def ratio(value, one_shard):
    """`value` over the 1-shard row's, as `1.23x` (`-` if that is 0)."""
    return f"{value / one_shard:.2f}x" if one_shard else "-"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = load_rows(sys.argv[1])
    fresh = load_rows(sys.argv[2])
    failures = []
    print(f"{'nodes':>8} {'shards':>6} {'wload':>8} "
          f"{'base secs':>10} {'new secs':>9} {'delta':>8} {'rss delta':>9} "
          f"{'secs/1sh':>8} {'rss/1sh':>7}  messages")
    for key in sorted(fresh):
        nodes, shards, wload = key
        new = fresh[key]
        base = baseline.get(key)
        if base is None:
            failures.append(f"row {key} missing from the committed baseline")
            continue
        delta = (new["secs"] - base["secs"]) / base["secs"] * 100.0 if base["secs"] else 0.0
        one = fresh.get((nodes, 1, wload))
        secs_x = ratio(new["secs"], one["secs"]) if one else "-"
        rss_x = ratio(new["rss"], one["rss"]) if one else "-"
        rss_delta = (new["rss"] - base["rss"]) / base["rss"] if base["rss"] else 0.0
        verdict = "ok"
        if new["messages"] != base["messages"]:
            verdict = f"DIVERGED ({base['messages']} -> {new['messages']})"
            failures.append(
                f"row {key}: messages diverged from the baseline "
                f"({base['messages']} -> {new['messages']}) — determinism break"
            )
        if base["rss"] and rss_delta > RSS_TOLERANCE:
            verdict = f"RSS REGRESSED ({base['rss']:.1f} -> {new['rss']:.1f} MiB)"
            failures.append(
                f"row {key}: peak RSS regressed "
                f"{rss_delta * 100.0:+.1f}% over the baseline "
                f"({base['rss']:.1f} -> {new['rss']:.1f} MiB, "
                f"tolerance {RSS_TOLERANCE * 100.0:.0f}%)"
            )
        print(f"{nodes:>8} {shards:>6} {wload:>8} "
              f"{base['secs']:>10.3f} {new['secs']:>9.3f} {delta:>+7.1f}% "
              f"{rss_delta * 100.0:>+8.1f}% {secs_x:>8} {rss_x:>7}  {verdict}")
    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        sys.exit(1)
    print("\nall rows match the committed baseline "
          "(secs deltas informational; rss gated at "
          f"{RSS_TOLERANCE * 100.0:.0f}%)")


if __name__ == "__main__":
    main()

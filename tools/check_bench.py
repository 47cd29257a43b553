#!/usr/bin/env python3
"""Perf regression gate: diff a fresh bench run against the committed
baseline.

    tools/check_bench.py [--baseline BENCH_counter.json]
                         [--fresh fresh.json]
                         [--threshold 1.25]

Both inputs are the JSON arrays tools/run_bench.sh writes (the fresh
one typically from `tools/run_bench.sh --quick build /tmp/fresh.json`).
Rows are keyed by (op, impl, threads, levels); only keys present in
BOTH files are compared, so quick-mode runs (which shrink workloads
and skip rows) can never false-positive on missing rows, and rows the
baseline lacks (new benches) pass trivially.

Only the latency-critical row families gate the build:

    handoff            the 1:1 handoff chain (E10.c)
    increment_mt       the multithreaded increment matrix
    overload_storm     the admission storm (E12)
    shared_handoff     the cross-process handoff chain (E14.a)
    shared_kill_storm  the death-detector wake latency (E14.b)
    server_rpc         the shard-server open-loop RPC cost (E16)
    server_recovery    per-counter restart+restore cost (E17.a)
    server_retry_storm worst client reconnect after a kill (E17.b)

A gated family present in the fresh run but absent from the baseline
is WARNED about and skipped, never a failure: that is exactly the
state a new bench is in on the PR that introduces it, before the
regenerated baseline lands.

The fresh run and the baseline rarely come from the same machine or
the same mode (CI runs `--quick` on a shared runner; the baseline is
a full run on a dev box), and the distortion is FAMILY-SPECIFIC: a
shrunk quick workload inflates increment_mt's per-op cost by its
fixed thread-spawn overhead while barely moving the storm rows, so no
single global factor can absorb it.  The gate therefore normalizes
per family: each row's fresh/baseline ratio is compared against the
MEDIAN ratio of its own op family, and a row more than THRESHOLD x
its family median fails.  The factor is floored at 1.0 — it forgives
slowness, it never amplifies (a faster runner is gated on raw
ratios).  Machine speed and per-family quick-mode inflation move all
of a family's rows together and cancel; one row regressing relative
to its siblings does not.  The blind spot — a
change that slows an entire family uniformly — is accepted and
covered elsewhere: the committed BENCH_counter.json is regenerated by
a full run each time it changes, and the E12.b/E13 scaling benches
assert their shape in-binary.  Pass --absolute for a raw
same-machine, same-mode diff.

Everything else (the E12.b/E13 scaling rows) is
recorded for trend-reading but deliberately not gated: single-core CI
runners are too noisy for wide tables.
"""

import argparse
import json
import sys

GATED_OPS = (
    "handoff",
    "increment_mt",
    "overload_storm",
    "shared_handoff",
    "shared_kill_storm",
    "server_rpc",
    "server_recovery",
    "server_retry_storm",
)


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            rows = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    if not isinstance(rows, list):
        sys.exit(f"check_bench: {path}: expected a JSON array of rows")
    out = {}
    for row in rows:
        if not isinstance(row, dict) or "op" not in row:
            continue
        key = (
            row.get("op"),
            row.get("impl"),
            row.get("threads"),
            row.get("levels", 0),
        )
        out[key] = float(row.get("ns_per_op", 0.0))
    return out


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="BENCH_counter.json")
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--threshold", type=float, default=1.25)
    ap.add_argument(
        "--absolute",
        action="store_true",
        help="gate on raw ratios instead of normalizing by the median "
        "(only meaningful for same-machine, same-mode runs)",
    )
    args = ap.parse_args()

    baseline = load_rows(args.baseline)
    fresh = load_rows(args.fresh)

    rows = []
    fresh_gated_ops = set()
    for key, fresh_ns in sorted(fresh.items()):
        if key[0] not in GATED_OPS:
            continue
        fresh_gated_ops.add(key[0])
        base_ns = baseline.get(key)
        if base_ns is None or base_ns <= 0.0 or fresh_ns <= 0.0:
            continue
        rows.append((key, base_ns, fresh_ns, fresh_ns / base_ns))

    # A gated family the committed baseline has never seen (a bench
    # that landed before its baseline row did) is a warning, not a
    # KeyError or a gate failure: new families land in two steps —
    # first the bench, then the regenerated baseline picks them up.
    baseline_ops = {key[0] for key in baseline}
    for op in GATED_OPS:
        if op in fresh_gated_ops and op not in baseline_ops:
            print(
                f"check_bench: WARNING — gated family '{op}' has no rows "
                "in the baseline; skipping it (regenerate the baseline "
                "to gate it)"
            )

    if not fresh_gated_ops:
        sys.exit(
            "check_bench: the fresh run recorded no gated rows at all — "
            "wrong file, or the benches did not record any of: "
            + "/".join(GATED_OPS)
        )
    if not rows:
        print(
            "check_bench: no gated rows in common with the baseline — "
            "every gated family was skipped; nothing to gate"
        )
        return

    family_speed = {}
    for op in GATED_OPS:
        ratios = [r[3] for r in rows if r[0][0] == op]
        if not ratios:
            continue
        # The factor only forgives machine/mode slowness: floored at
        # 1.0 so a run on a *faster* machine (family median < 1) is
        # gated on raw ratios instead of punishing rows that merely
        # matched the baseline while their siblings sped up.
        family_speed[op] = (
            1.0 if args.absolute else max(median(ratios), 1.0)
        )
        if not args.absolute:
            print(f"check_bench: {op} family speed factor (median ratio) "
                  f"{family_speed[op]:.2f}x")

    failures = []
    for key, base_ns, fresh_ns, ratio in rows:
        rel = ratio / family_speed[key[0]]
        marker = "FAIL" if rel > args.threshold else "ok"
        print(
            f"{marker:4} {key[0]:16} {key[1]:44.44} t={key[2]} "
            f"{base_ns:10.1f} -> {fresh_ns:10.1f} ns/op  "
            f"({ratio:.2f}x raw, {rel:.2f}x normalized)"
        )
        if rel > args.threshold:
            failures.append((key, base_ns, fresh_ns, rel))

    print(f"check_bench: {len(rows)} gated rows compared, "
          f"{len(failures)} over {args.threshold:.2f}x normalized")
    if failures:
        for key, base_ns, fresh_ns, rel in failures:
            print(
                f"  REGRESSION {key}: {base_ns:.1f} -> {fresh_ns:.1f} ns/op "
                f"({rel:.2f}x over its family's speed factor)",
                file=sys.stderr,
            )
        sys.exit(1)


if __name__ == "__main__":
    main()

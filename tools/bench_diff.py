#!/usr/bin/env python3
"""Diff two benchmark snapshots: bench JSON before and after a change.

Reads the ``benchmarks`` records that ``bench/alloc_microbench --json``
(BENCH_ALLOC.json) and ``bench/fault_recovery`` (BENCH_FAULT.json) write,
and ``bench/scenario_run`` output (any snapshot with a ``scenarios``
list; see below).

Compares each benchmark's throughput and the metrics counters of a
*before* and an *after* snapshot, prints a delta table, and exits non-zero
when any benchmark regressed by more than the allowed threshold — which is
what lets CI run it as a perf-smoke gate:

    build/bench/alloc_microbench --benchmark_filter=SteadyAllocs --json=BEFORE.json
    ... apply change, rebuild ...
    build/bench/alloc_microbench --benchmark_filter=SteadyAllocs --json=AFTER.json
    tools/bench_diff.py BEFORE.json AFTER.json --max-regression 20

A record's throughput is whatever key ends in ``_per_sec``; a record
without one (google-benchmark's, from alloc_microbench) is rated at
1e9 / ``real_ns_per_iter`` iterations per second.  A record with neither
(fault_recovery's, which time nothing) has no rate to diff.

``--require-speedup NAME:FACTOR`` additionally fails unless the named
benchmark got at least FACTOR times faster — used to assert headline
improvements (e.g. ``--require-speedup BM_HomogeneousDpSteadyAllocs:2.0``).

``--require-zero NAME:METRIC`` fails unless benchmark NAME in the *after*
snapshot carries METRIC with the exact value 0 — used to gate hard
correctness properties that a bench reports as a counter, e.g.
``--require-zero fault_drill_switchover:steady_outage_rate`` (survivable
placements must ride out a backup-covered single failure with zero
steady-epoch outage).

The allocs_per_call field, when present on both sides, is a hard gate:
any increase fails regardless of the threshold (the zero-allocation
steady state is a correctness property, not a throughput number).

Scenario runs (``bench/scenario_run --out``) carry a ``scenarios`` list
whose entries hold a ``wall_s`` and a ``cells`` list with one ``wall_s``
per cell.  Scenarios are keyed by name and cells by scenario name plus
cell label, with ``@<axis value>`` appended for a cell on a sweep axis (a
key still repeated within one snapshot gets a ``#2``, ``#3`` suffix).
Both are diffed as speedups (before wall_s / after wall_s, so + is
faster, as for the benchmarks), and --max-regression applies to the
per-scenario rows: a scenario fails when its speedup falls below
1 - PCT/100, the same throughput drop a benchmark is allowed.  Cell rows
are informational, because the cells of one sweep run concurrently and
their wall-clock depends on scheduling.  A scenario whose ``config_hash``
differs between the snapshots is a warning, not a failure.

scenario_run and fault_recovery snapshots record their host CPU count as
a top-level ``hardware_threads``.  Two snapshots whose counts differ get a
warning, not a failure: their parallel numbers are not comparable.

``--list`` prints the benchmark and scenario names a snapshot carries
(useful for picking --require-speedup targets) and exits 0.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def rate_of(bench):
    """(key, rate): the field ending in _per_sec, else iterations per second
    from real_ns_per_iter, else (None, None)."""
    for key, value in bench.items():
        if key.endswith("_per_sec"):
            return key, value
    ns = bench.get("real_ns_per_iter")
    if ns:
        return "iters_per_sec", 1e9 / ns
    return None, None


def fmt_rate(value):
    return f"{value:,.0f}" if value is not None else "-"


def unique_key(table, key):
    """`key`, or `key#2`, `key#3`, ... if `table` already holds it."""
    if key not in table:
        return key
    suffix = 2
    while f"{key}#{suffix}" in table:
        suffix += 1
    return f"{key}#{suffix}"


def scenario_tables(snapshot):
    """(scenarios, cells) of a scenario_run snapshot.

    scenarios maps the scenario name to its entry; cells maps
    "<scenario>/<cell label>[@<axis value>]" to the cell entry.
    """
    scenarios = {}
    cells = {}
    for scenario in snapshot.get("scenarios", []):
        name = unique_key(scenarios, scenario.get("name", "?"))
        scenarios[name] = scenario
        for cell in scenario.get("cells", []):
            key = f"{name}/{cell.get('label', '?')}"
            if cell.get("axis_index", -1) >= 0:
                key += f"@{cell.get('axis_value', 0):g}"
            cells[unique_key(cells, key)] = cell
    return scenarios, cells


def wall_rows(before, after):
    """(key, before wall_s, after wall_s, speedup) over both tables' keys.

    speedup is None unless both sides carry a positive wall_s.
    """
    rows = []
    for key in sorted(before.keys() | after.keys()):
        b_wall = before.get(key, {}).get("wall_s")
        a_wall = after.get(key, {}).get("wall_s")
        speedup = b_wall / a_wall if b_wall and a_wall else None
        rows.append((key, b_wall, a_wall, speedup))
    return rows


def fmt_seconds(value):
    return f"{value:.3f}" if value is not None else "-"


def delta_note(key, speedup, before, after):
    """The delta column: the speedup as a signed percentage, or why not."""
    if speedup:
        return f"{(speedup - 1.0) * 100.0:+.1f}%"
    if key not in before:
        return "(added)"
    if key not in after:
        return "(removed)"
    return "(missing)"


def print_wall_table(title, rows, before, after):
    width = max([len(title)] + [len(r[0]) for r in rows])
    print(
        f"\n{title:<{width}}  {'wall_s before':>14}  {'wall_s after':>14}  "
        "delta"
    )
    for key, b_wall, a_wall, speedup in rows:
        print(
            f"{key:<{width}}  {fmt_seconds(b_wall):>14}  "
            f"{fmt_seconds(a_wall):>14}  "
            f"{delta_note(key, speedup, before, after)}"
        )


def list_snapshot(path, snapshot):
    print(f"{path}:")
    benches = snapshot.get("benchmarks", [])
    for bench in benches:
        key, rate = rate_of(bench)
        rate_note = f"  {key}={fmt_rate(rate)}" if key else ""
        print(f"  bench      {bench['name']}{rate_note}")
    scenarios, _ = scenario_tables(snapshot)
    for name, scenario in scenarios.items():
        print(
            f"  scenario   {name}  wall_s={fmt_seconds(scenario.get('wall_s'))}"
            f"  cells={len(scenario.get('cells', []))}"
            f"  config_hash={scenario.get('config_hash', '?')}"
        )
    if not benches and not scenarios:
        print("  (no benchmarks)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="baseline snapshot (JSON)")
    parser.add_argument(
        "after",
        nargs="?",
        help="candidate snapshot (JSON; optional with --list)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail if any benchmark slows down by more than PCT%% "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--require-speedup",
        action="append",
        default=[],
        metavar="NAME:FACTOR",
        help="fail unless benchmark NAME is at least FACTOR times faster",
    )
    parser.add_argument(
        "--require-zero",
        action="append",
        default=[],
        metavar="NAME:METRIC",
        help="fail unless benchmark NAME's METRIC is exactly 0 in the "
        "after snapshot",
    )
    parser.add_argument(
        "--show-metrics",
        action="store_true",
        help="also print the counter diff (always checked for allocs)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the benchmarks and scenarios in the snapshot(s) and exit",
    )
    args = parser.parse_args()

    if args.list:
        list_snapshot(args.before, load(args.before))
        if args.after:
            list_snapshot(args.after, load(args.after))
        return 0
    if args.after is None:
        parser.error("after snapshot is required unless --list is given")

    before = load(args.before)
    after = load(args.after)
    before_benches = {b["name"]: b for b in before.get("benchmarks", [])}
    after_benches = {b["name"]: b for b in after.get("benchmarks", [])}

    # Snapshots are only apples-to-apples when they measured the same
    # scenario configuration (fabric, workload, seed, epsilon).  A config
    # hash mismatch is a warning, not a failure: diffing across
    # configurations is sometimes exactly what the user wants to do.
    b_scn = before.get("scenario")
    a_scn = after.get("scenario")
    if (
        b_scn
        and a_scn
        and b_scn.get("config_hash") != a_scn.get("config_hash")
    ):
        print(
            "WARNING: scenario config differs between snapshots "
            f"(before: {b_scn.get('name', '?')}"
            f"@{b_scn.get('config_hash', '?')}, "
            f"after: {a_scn.get('name', '?')}"
            f"@{a_scn.get('config_hash', '?')}); "
            "deltas may reflect the workload, not the change",
            file=sys.stderr,
        )

    # Parallel numbers (scenario wall_s under --threads) are only comparable
    # between hosts with the same CPU count; a mismatch is a warning for
    # the same reason.
    b_hw = before.get("hardware_threads")
    a_hw = after.get("hardware_threads")
    if b_hw is not None and a_hw is not None and b_hw != a_hw:
        print(
            "WARNING: hardware_threads differs between snapshots "
            f"(before: {b_hw}, after: {a_hw}); "
            "parallel deltas may reflect the host, not the change",
            file=sys.stderr,
        )

    required = {}
    for spec in args.require_speedup:
        name, _, factor = spec.partition(":")
        if not factor:
            parser.error(f"--require-speedup needs NAME:FACTOR, got {spec!r}")
        required[name] = float(factor)

    b_scenarios, b_cells = scenario_tables(before)
    a_scenarios, a_cells = scenario_tables(after)
    for name in sorted(b_scenarios.keys() & a_scenarios.keys()):
        b_hash = b_scenarios[name].get("config_hash")
        a_hash = a_scenarios[name].get("config_hash")
        if b_hash and a_hash and b_hash != a_hash:
            print(
                f"WARNING: scenario {name} config differs between snapshots "
                f"(before: {b_hash}, after: {a_hash}); its wall_s delta may "
                "reflect the workload, not the change",
                file=sys.stderr,
            )

    failures = []
    rows = []
    for name in before_benches.keys() | after_benches.keys():
        b = before_benches.get(name)
        a = after_benches.get(name)
        if b is None or a is None:
            rows.append((name, rate_of(b or {})[1], rate_of(a or {})[1], None))
            continue
        b_allocs = b.get("allocs_per_call")
        a_allocs = a.get("allocs_per_call")
        if b_allocs is not None and a_allocs is not None and a_allocs > b_allocs:
            failures.append(
                f"{name}: allocs_per_call grew {b_allocs} -> {a_allocs}"
            )
        _, b_rate = rate_of(b)
        _, a_rate = rate_of(a)
        if not b_rate or a_rate is None:
            continue
        speedup = a_rate / b_rate
        rows.append((name, b_rate, a_rate, speedup))
        if speedup < 1.0 - args.max_regression / 100.0:
            failures.append(
                f"{name}: {(1.0 - speedup) * 100.0:.1f}% slower "
                f"(allowed {args.max_regression:.1f}%)"
            )
        if name in required and speedup < required[name]:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below required "
                f"{required[name]:.2f}x"
            )
    for name in required:
        if name not in before_benches or name not in after_benches:
            failures.append(f"{name}: required benchmark missing from snapshot")

    scenario_rows = wall_rows(b_scenarios, a_scenarios)
    for name, b_wall, a_wall, speedup in scenario_rows:
        if speedup and speedup < 1.0 - args.max_regression / 100.0:
            failures.append(
                f"scenario {name}: wall_s {b_wall:.3f} -> {a_wall:.3f} s, "
                f"{(1.0 - speedup) * 100.0:.1f}% slower "
                f"(allowed {args.max_regression:.1f}%)"
            )

    for spec in args.require_zero:
        name, _, metric = spec.partition(":")
        if not metric:
            parser.error(f"--require-zero needs NAME:METRIC, got {spec!r}")
        bench = after_benches.get(name)
        if bench is None:
            failures.append(
                f"{name}: required benchmark missing from after snapshot"
            )
        elif metric not in bench:
            failures.append(f"{name}: metric {metric!r} missing")
        elif bench[metric] != 0:
            failures.append(f"{name}.{metric} = {bench[metric]} (required 0)")

    width = max((len(r[0]) for r in rows), default=4)
    if rows or not scenario_rows:  # a scenario-only diff has no benchmarks
        print(
            f"{'benchmark':<{width}}  {'before/s':>14}  {'after/s':>14}  delta"
        )
    for name, b_rate, a_rate, speedup in sorted(rows):
        delta = delta_note(name, speedup, before_benches, after_benches)
        print(
            f"{name:<{width}}  {fmt_rate(b_rate):>14}  {fmt_rate(a_rate):>14}  "
            f"{delta}"
        )

    if scenario_rows:
        print_wall_table("scenario", scenario_rows, b_scenarios, a_scenarios)
        cell_rows = wall_rows(b_cells, a_cells)
        if cell_rows:
            print_wall_table("cell", cell_rows, b_cells, a_cells)

    if args.show_metrics:
        # Keys present on only one side (e.g. a counter family introduced by
        # the candidate build, like fault/*) are reported, never a KeyError:
        # a new metric must not break the CI perf gate on its first run.
        b_counters = before.get("metrics", {}).get("counters", {})
        a_counters = after.get("metrics", {}).get("counters", {})
        names = sorted(b_counters.keys() | a_counters.keys())
        if names:
            cwidth = max(len(n) for n in names)
            print(f"\n{'counter':<{cwidth}}  {'before':>14}  {'after':>14}")
            for name in names:
                if name not in b_counters:
                    note = "  (added)"
                elif name not in a_counters:
                    note = "  (removed)"
                else:
                    note = ""
                print(
                    f"{name:<{cwidth}}  {b_counters.get(name, '-'):>14}  "
                    f"{a_counters.get(name, '-'):>14}{note}"
                )

    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

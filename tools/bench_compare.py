#!/usr/bin/env python3
"""Compare a bench_interp JSON run against the committed baseline.

Wall-clock numbers are machine-dependent, so the gate checks two things that are
not:
  * the deterministic VM counters (tlb_*/icache_* averages per run) must stay
    within --tolerance of the baseline — a blown hit rate or an invalidation storm
    is a correctness-adjacent regression even when the box is fast enough to hide
    it;
  * the fast-over-slow speedup ratios (engines measured in the same process on
    the same machine) must stay above their floors and within --tolerance of the
    baseline's ratios: the block-cache interpreter at --min-speedup (3x) and the
    template-JIT tier at --min-jit-speedup (6x). Both rows run with repetitions;
    the gate reads their median aggregate (the "<name>_median" row) and prints
    the spread of the repetitions beside it, since a single run can swing by
    ±5-10 % on a shared host. The JIT gate enforces itself only when the run
    actually compiled blocks (jit_compiled > 0) — a host that cannot run
    generated code falls back to the block cache, and gating the fallback at 6x
    would punish the architecture, not the change.

Usage: bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.20]
                                                   [--min-speedup 3.0]
                                                   [--min-jit-speedup 6.0]
       bench_compare.py --smp-scaling CONTENTION.json [--min-smp-scaling 2.5]
       bench_compare.py --manifest-warm MANIFEST.json [--max-warm-ratio 0.10]
       bench_compare.py --remote REMOTE.json [--max-cached-overhead 0.20]

The second form gates the SMP cores-vs-throughput curve exported by
bench_contention's BM_SmpScaling rows: the cores=4 instruction rate must be at
least --min-smp-scaling times the cores=1 rate (raised from 2.0 to 2.5
once the JIT tier shrank per-block dispatch overhead). The gate reads the host CPU
count from the JSON context and relaxes itself when the box cannot physically
show the scaling (halved floor on 2-3 CPUs, recorded-but-not-gated on 1).

The third form gates stable linking's warm-start win from bench_manifest's
BM_ManifestWarmStart row: warm-start resolution time must be at most
--max-warm-ratio of cold, and the warm run must actually have installed
manifest resolutions (manifest_hits > 0).

The fourth form gates distributed shared segments from bench_remote's
BM_RemoteSegmentAccess row: once pages are resident, re-reading a mounted
segment must cost at most (1 + --max-cached-overhead) times the plain local
attach, and the cold pass must actually have fetched pages over the wire
(pages_fetched > 0).

Exit codes: 0 all gates pass, 1 regression, 2 input unreadable.
"""

import argparse
import json
import sys


def read_json(path):
    """Reads |path| as JSON; exits 2 with a clear message when unreadable.

    Unreadable input (missing file, truncated JSON) is an infrastructure
    problem, not a measured regression — keep the exit codes distinct so CI
    logs tell the two apart at a glance.
    """
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror or e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
        sys.exit(2)

# Counters whose values are properties of the workload, not the machine.
# (jit_arena_bytes is deliberately absent: emitted-code size shifts with every
# template tweak and is a property of the emitter, not the workload.)
DETERMINISTIC_COUNTERS = (
    "tlb_hits",
    "tlb_misses",
    "tlb_flushes",
    "icache_hits",
    "icache_misses",
    "icache_invalidations",
    "jit_compiled",
    "jit_chained",
    "jit_deopts",
    "jit_bailouts",
)


def load_benchmarks(path):
    return read_json(path).get("benchmarks", [])


def family(row):
    """BM_InterpSpeedup for "BM_InterpSpeedup/repeats:5_median" and the like."""
    return row.get("run_name", row["name"]).split("/")[0]


def median_row(rows, name):
    for b in rows:
        if family(b) == name and b.get("aggregate_name") == "median":
            return b
    return None


def within(old, new, tolerance):
    if old == 0:
        return new == 0
    return abs(new - old) <= tolerance * abs(old)


def check_smp_scaling(path, min_scaling):
    """Gates the BM_SmpScaling cores-vs-throughput curve in |path|."""
    data = read_json(path)
    num_cpus = data.get("context", {}).get("num_cpus", 1)
    benches = {b["name"]: b for b in data.get("benchmarks", [])}

    def rate(cores):
        for name, b in benches.items():
            if name.startswith(f"BM_SmpScaling/{cores}"):
                return b.get("items_per_second")
        return None

    one, four = rate(1), rate(4)
    # Tell the two failure shapes apart: an absent series means the bench did not
    # run (or exported under another name); a zero cores=1 rate means it ran but
    # measured nothing to scale against (throttled host, broken counter).
    missing = [f"cores={c}" for c, r in ((1, one), (4, four)) if r is None]
    if missing:
        print(f"FAIL BM_SmpScaling: {' and '.join(missing)} series missing "
              f"from {path}", file=sys.stderr)
        return 1
    if one <= 0:
        print(f"FAIL BM_SmpScaling: cores=1 throughput is {one} in {path}; "
              "nothing to scale against (throttled host or broken run?)",
              file=sys.stderr)
        return 1
    ratio = four / one
    if num_cpus >= 4:
        floor = min_scaling
    elif num_cpus >= 2:
        floor = min_scaling / 2  # the host has half the cores the guest asked for
    else:
        print(f"skip BM_SmpScaling: host has {num_cpus} cpu(s); curve recorded "
              f"(cores=4 / cores=1 = {ratio:.2f}x) but not gated")
        return 0
    ok = ratio >= floor
    print(f"{'ok  ' if ok else 'FAIL'} BM_SmpScaling: cores=4 {four:.4g} insn/s "
          f"vs cores=1 {one:.4g} insn/s -> {ratio:.2f}x "
          f"(floor {floor:.2f}x, host cpus {num_cpus})")
    if not ok:
        print(f"\nSMP scaling {ratio:.2f}x below floor {floor:.2f}x",
              file=sys.stderr)
        return 1
    return 0


def check_manifest_warm(path, max_ratio):
    """Gates stable linking's warm-over-cold ratio from bench_manifest."""
    # UseManualTime appends "/manual_time" to the registered name; accept both.
    benches = {b["name"].split("/")[0]: b
               for b in read_json(path).get("benchmarks", [])}
    row = benches.get("BM_ManifestWarmStart")
    if row is None:
        print(f"FAIL BM_ManifestWarmStart: row missing from {path}",
              file=sys.stderr)
        return 1
    cold, warm = row.get("cold_ns"), row.get("warm_ns")
    if cold is None or warm is None:
        print(f"FAIL BM_ManifestWarmStart: cold_ns/warm_ns missing from {path}",
              file=sys.stderr)
        return 1
    if cold <= 0:
        print(f"FAIL BM_ManifestWarmStart: cold_ns is {cold}; nothing to "
              "compare against (broken run?)", file=sys.stderr)
        return 1
    hits = row.get("manifest_hits", 0)
    if hits <= 0:
        print("FAIL BM_ManifestWarmStart: the warm run installed no manifest "
              f"resolutions (manifest_hits={hits}) — it was not warm at all",
              file=sys.stderr)
        return 1
    ratio = warm / cold
    ok = ratio <= max_ratio
    print(f"{'ok  ' if ok else 'FAIL'} BM_ManifestWarmStart: warm {warm:.4g} ns "
          f"vs cold {cold:.4g} ns -> {100 * ratio:.1f}% "
          f"(ceiling {100 * max_ratio:.0f}%, manifest_hits {hits})")
    if not ok:
        print(f"\nwarm start at {100 * ratio:.1f}% of cold exceeds the "
              f"{100 * max_ratio:.0f}% ceiling", file=sys.stderr)
        return 1
    return 0


def check_remote(path, max_overhead):
    """Gates bench_remote's cached-over-local ratio."""
    # UseManualTime appends "/manual_time" to the registered name; accept both.
    benches = {b["name"].split("/")[0]: b
               for b in read_json(path).get("benchmarks", [])}
    row = benches.get("BM_RemoteSegmentAccess")
    if row is None:
        print(f"FAIL BM_RemoteSegmentAccess: row missing from {path}",
              file=sys.stderr)
        return 1
    local, cold, cached = (row.get("local_ns"), row.get("cold_ns"),
                           row.get("cached_ns"))
    if local is None or cold is None or cached is None:
        print("FAIL BM_RemoteSegmentAccess: local_ns/cold_ns/cached_ns missing "
              f"from {path}", file=sys.stderr)
        return 1
    if local <= 0:
        print(f"FAIL BM_RemoteSegmentAccess: local_ns is {local}; nothing to "
              "compare against (broken run?)", file=sys.stderr)
        return 1
    fetched = row.get("pages_fetched", 0)
    if fetched <= 0:
        print("FAIL BM_RemoteSegmentAccess: the cold pass fetched no pages "
              f"(pages_fetched={fetched}) — it never went over the wire",
              file=sys.stderr)
        return 1
    ratio = cached / local
    ceiling = 1.0 + max_overhead
    ok = ratio <= ceiling
    print(f"{'ok  ' if ok else 'FAIL'} BM_RemoteSegmentAccess: cached "
          f"{cached:.4g} ns vs local {local:.4g} ns -> {ratio:.2f}x "
          f"(ceiling {ceiling:.2f}x; cold {cold:.4g} ns, "
          f"{fetched:.0f} pages fetched)")
    if not ok:
        print(f"\ncached re-access at {ratio:.2f}x of local exceeds the "
              f"{ceiling:.2f}x ceiling", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--min-jit-speedup", type=float, default=6.0)
    parser.add_argument("--smp-scaling", metavar="CONTENTION_JSON",
                        help="gate the BM_SmpScaling curve in this file instead "
                             "of comparing against a baseline")
    parser.add_argument("--min-smp-scaling", type=float, default=2.5)
    parser.add_argument("--manifest-warm", metavar="MANIFEST_JSON",
                        help="gate bench_manifest's warm-over-cold ratio in "
                             "this file instead of comparing against a baseline")
    parser.add_argument("--max-warm-ratio", type=float, default=0.10)
    parser.add_argument("--remote", metavar="REMOTE_JSON",
                        help="gate bench_remote's cached-over-local ratio in "
                             "this file instead of comparing against a baseline")
    parser.add_argument("--max-cached-overhead", type=float, default=0.20)
    args = parser.parse_args()

    if args.smp_scaling:
        return check_smp_scaling(args.smp_scaling, args.min_smp_scaling)
    if args.manifest_warm:
        return check_manifest_warm(args.manifest_warm, args.max_warm_ratio)
    if args.remote:
        return check_remote(args.remote, args.max_cached_overhead)
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required unless --smp-scaling is given")

    base_rows = load_benchmarks(args.baseline)
    cur_rows = load_benchmarks(args.current)
    # Counters are compared per run; aggregate rows (mean, stddev, cv) summarize
    # repetitions whose counters are identical anyway.
    base = {b["name"]: b for b in base_rows if b.get("run_type") != "aggregate"}
    cur = {b["name"]: b for b in cur_rows if b.get("run_type") != "aggregate"}
    failures = []

    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failures.append(f"{name}: missing from current run")
            continue
        for counter in DETERMINISTIC_COUNTERS:
            if counter not in b:
                continue
            old, new = b[counter], c.get(counter, 0.0)
            ok = within(old, new, args.tolerance)
            print(f"{'ok  ' if ok else 'FAIL'} {name}.{counter}: "
                  f"baseline={old:.1f} current={new:.1f}")
            if not ok:
                failures.append(f"{name}.{counter}: {old:.1f} -> {new:.1f}")

    def gate_speedup(name, min_floor, require_jit):
        bench = median_row(cur_rows, name)
        if bench is None or "speedup" not in bench:
            failures.append(f"{name}.speedup: median aggregate missing from current "
                            "run (was it run with repetitions?)")
            return
        speedup = bench["speedup"]
        runs = [b["speedup"] for b in cur_rows
                if family(b) == name and b.get("run_type") != "aggregate"]
        spread = (f"median of {len(runs)}, spread {min(runs):.2f}x-{max(runs):.2f}x"
                  if runs else "median")
        if require_jit and bench.get("jit_compiled", 0) <= 0:
            # The tier never engaged (non-x86-64 host or hardened mmap): the run
            # fell back to the block cache, which has its own gate. Record, don't
            # gate — but only for the JIT row; the interpreter has no such out.
            print(f"skip {name}.speedup: no blocks compiled on this host "
                  f"(ratio recorded at {speedup:.2f}x, {spread}, not gated)")
            return
        base_median = median_row(base_rows, name)
        base_speedup = base_median.get("speedup") if base_median else None
        floor = min_floor
        if base_speedup is not None:
            floor = max(floor, base_speedup * (1.0 - args.tolerance))
        ok = speedup >= floor
        print(f"{'ok  ' if ok else 'FAIL'} {name}.speedup: "
              f"current={speedup:.2f}x ({spread}) floor={floor:.2f}x "
              f"(baseline={f'{base_speedup:.2f}x' if base_speedup is not None else 'n/a'})")
        if not ok:
            failures.append(f"{name} speedup {speedup:.2f}x below floor {floor:.2f}x")

    gate_speedup("BM_InterpSpeedup", args.min_speedup, require_jit=False)
    gate_speedup("BM_JitSpeedup", args.min_jit_speedup, require_jit=True)

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall comparisons within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

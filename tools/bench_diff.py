#!/usr/bin/env python3
"""Validate and diff the BENCH_E<n>.json files the bench binaries emit.

Schema (efd-bench-v1), produced by efd::telemetry::BenchEmitter:

    {
      "schema": "efd-bench-v1",
      "experiment": "E14",
      "git": "<git describe --always --dirty>",
      "benchmarks": [
        {"name": "E14_Parallel/4",
         "counters": {"states": 188474.0, ...}},
        ...
      ],
      "tables": [
        {"title": "...", "columns": "...", "rows": ["...", ...]},
        ...
      ]
    }

Also validates efd-campaign-v1 documents (tools/efd_campaign --out): a run
header (seed, plans_per_target, monitors) plus one entry per campaign target
with its verdict, plan mix and violation list (schema in EXPERIMENTS.md E15).
--validate dispatches on the document's "schema" field.

Usage:
    bench_diff.py --validate FILE...
        Schema-check each file: exit 1 on the first invalid one.

    bench_diff.py BASELINE_DIR CANDIDATE_DIR
        Compare every BENCH_*.json present in both directories; exit 1 on
        any failure below. The experiments' tables are the gate: a table
        whose title, columns or any row differs from the baseline, or that
        exists on one side only, fails the diff, and the report names the
        experiment, the table and the row. Two counter rules also fail it:
        a counter whose name contains "hit_rate" (the tiered dedup store's
        per-tier hit rates, higher is better) dropping by more than 10%,
        and one containing "allocs_per" (heap traffic, lower is better)
        rising by more than 10% and by more than an absolute epsilon, so
        0 -> ~0 noise never trips. Other counters are reported when they
        differ but never fail the diff: they are workload-shape figures.
        The files carry no timings; perfbench/ is the timed benchmark.

The committed baselines live in bench/baseline/ (one run of all 17 bench
binaries); tools/bench_smoke.sh diffs every fresh run against them.
"""

import argparse
import json
import os
import sys

SCHEMA = "efd-bench-v1"
CAMPAIGN_SCHEMA = "efd-campaign-v1"
FARM_SCHEMA = "efd-campaign-farm-v1"
# Relative change (percent) beyond which a marked counter fails the diff.
THRESHOLD_PCT = 10.0
# "hit_rate" covers the tiered dedup store's per-tier hit rates: higher is
# better (a drop means duplicates migrated to a slower tier). Spill byte/sig
# counts deliberately carry NO marker — they are workload-shape figures,
# reported when they differ but never a failure.
HIGHER_BETTER_MARKERS = ("hit_rate",)
# Counters where smaller is better (heap traffic): an *increase* beyond the
# threshold is the regression. ALLOC_EPSILON absorbs jitter around zero —
# since the respawn-path fix the sweep hot loop performs no steady-state
# allocations at all, so the bar is a tight 0.002 allocs/step: enough for
# a few one-off allocations amortized over a pass, far below any real
# per-state allocation creeping back in.
LOWER_BETTER_MARKERS = ("allocs_per",)
ALLOC_EPSILON = 0.002
# Experiments whose benches carry the allocation probe, each with the name
# prefix of the rows that report it (E15's monitor rows do not);
# --validate requires the counter on those rows so a silently dropped probe
# cannot pass the smoke test.
ALLOC_PROBED_EXPERIMENTS = {"E13": "", "E14": "", "E15": "E15_Campaign"}
# Experiments that must exercise the tiered dedup store: --validate requires
# at least one benchmark with the per-tier counters, so silently dropping the
# tiered row (and its spill coverage) cannot pass the smoke test.
TIER_COUNTER_EXPERIMENTS = ("E14",)
TIER_COUNTER_KEYS = ("recent_hit_rate", "mem_hit_rate", "spill_bytes")


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def validate_campaign_doc(path, doc):
    def check(cond, msg):
        if not cond:
            fail(f"{path}: {msg}")

    check(isinstance(doc.get("git"), str) and doc["git"], "missing git describe")
    check(isinstance(doc.get("seed"), int), "seed must be an integer")
    check(isinstance(doc.get("plans_per_target"), int) and doc["plans_per_target"] > 0,
          "plans_per_target must be a positive integer")
    check(isinstance(doc.get("monitors"), bool), "monitors must be a boolean")
    targets = doc.get("targets")
    check(isinstance(targets, list) and targets, "targets must be a non-empty array")
    seen = set()
    for t in targets:
        check(isinstance(t, dict), "target entry is not an object")
        name = t.get("target")
        check(isinstance(name, str) and name, "target without a name")
        check(name not in seen, f"duplicate target {name!r}")
        seen.add(name)
        for key in ("scenario", "algorithm"):
            check(isinstance(t.get(key), str) and t[key], f"{name}: missing {key}")
        for key in ("expect_clean", "verdict_ok"):
            check(isinstance(t.get(key), bool), f"{name}: {key} must be a boolean")
        for key in ("plans", "clean_plans", "violations", "safety_violations",
                    "wait_free_violations", "starvation_observations", "total_steps",
                    "rehearsal_steps", "monitored_steps", "max_own_steps_to_decide"):
            check(isinstance(t.get(key), int) and t[key] >= 0,
                  f"{name}: {key} must be a non-negative integer")
        mix = t.get("plan_mix")
        check(isinstance(mix, dict), f"{name}: plan_mix must be an object")
        for key in ("fd_fault", "storm", "trigger", "burst", "link"):
            check(isinstance(mix.get(key), int) and mix[key] >= 0,
                  f"{name}: plan_mix.{key} must be a non-negative integer")
        viols = t.get("violation_list")
        check(isinstance(viols, list), f"{name}: violation_list must be an array")
        check(len(viols) == t["violations"],
              f"{name}: violation_list length != violations count")
        for v in viols:
            check(isinstance(v, dict), f"{name}: violation entry is not an object")
            check(isinstance(v.get("plan_seed"), int), f"{name}: violation without plan_seed")
            check(isinstance(v.get("plan"), str) and v["plan"].startswith("plan-v1"),
                  f"{name}: violation plan is not a plan-v1 line")
            for key in ("safety", "wait_free", "shrunk_replay_ok"):
                check(isinstance(v.get(key), bool), f"{name}: violation {key} must be a boolean")
            for key in ("tape_steps", "shrunk_steps"):
                check(isinstance(v.get(key), int) and v[key] >= 0,
                      f"{name}: violation {key} must be a non-negative integer")


def load_stream(path):
    """Loads either one JSON document or a JSONL stream (the farm's stdout:
    one soak record per line). Returns a list of documents."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(f"{path}: {e}")
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        pass
    docs = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: {e}")
    if not docs:
        fail(f"{path}: no JSON documents")
    return docs


def validate_farm_doc(path, doc):
    """One efd-campaign-farm-v1 record: a streaming "soak" interval snapshot
    or the end-of-run "final" document (same shape; EXPERIMENTS.md E18)."""
    def check(cond, msg):
        if not cond:
            fail(f"{path}: {msg}")

    check(isinstance(doc.get("git"), str) and doc["git"], "missing git describe")
    check(doc.get("mode") in ("soak", "final"), "mode must be 'soak' or 'final'")
    check(isinstance(doc.get("seed"), int), "seed must be an integer")
    for key in ("workers", "batch"):
        check(isinstance(doc.get(key), int) and doc[key] > 0,
              f"{key} must be a positive integer")
    for key in ("monitors", "shrink", "mutate", "drained"):
        check(isinstance(doc.get(key), bool), f"{key} must be a boolean")
    for key in ("elapsed_s", "plans_per_s"):
        check(isinstance(doc.get(key), (int, float)) and doc[key] >= 0,
              f"{key} must be a non-negative number")
    for key in ("plans", "clean", "violations", "novel", "duplicates", "shrunk",
                "shrink_replays_ok", "mutated", "external", "coverage_sigs",
                "total_steps", "batches"):
        check(isinstance(doc.get(key), int) and doc[key] >= 0,
              f"{key} must be a non-negative integer")
    check(doc["novel"] + doc["duplicates"] <= doc["violations"],
          "novel + duplicates exceeds violations")
    check(doc["clean"] + doc["violations"] == doc["plans"],
          "clean + violations != plans")
    corpus = doc.get("corpus")
    check(isinstance(corpus, dict), "corpus must be an object")
    check(isinstance(corpus.get("dir"), str), "corpus.dir must be a string")
    for key in ("size", "aliases", "seeded", "quarantined"):
        check(isinstance(corpus.get(key), int) and corpus[key] >= 0,
              f"corpus.{key} must be a non-negative integer")
    targets = doc.get("targets")
    check(isinstance(targets, list) and targets, "targets must be a non-empty array")
    seen = set()
    for t in targets:
        check(isinstance(t, dict), "target entry is not an object")
        name = t.get("target")
        check(isinstance(name, str) and name, "target without a name")
        check(name not in seen, f"duplicate target {name!r}")
        seen.add(name)
        check(isinstance(t.get("expect_clean"), bool),
              f"{name}: expect_clean must be a boolean")
        for key in ("plans", "clean", "safety_violations", "wait_free_violations",
                    "novel", "duplicates", "starvation_observations", "coverage_sigs",
                    "mutated", "external", "total_steps"):
            check(isinstance(t.get(key), int) and t[key] >= 0,
                  f"{name}: {key} must be a non-negative integer")


def validate_doc(path, doc, require_alloc_probe=True):
    def check(cond, msg):
        if not cond:
            fail(f"{path}: {msg}")

    check(isinstance(doc, dict), "top level is not an object")
    if doc.get("schema") == CAMPAIGN_SCHEMA:
        validate_campaign_doc(path, doc)
        return
    if doc.get("schema") == FARM_SCHEMA:
        validate_farm_doc(path, doc)
        return
    check(doc.get("schema") == SCHEMA,
          f"schema is {doc.get('schema')!r}, want {SCHEMA!r}, {CAMPAIGN_SCHEMA!r}"
          f" or {FARM_SCHEMA!r}")
    check(isinstance(doc.get("experiment"), str) and doc["experiment"], "missing experiment name")
    check(isinstance(doc.get("git"), str) and doc["git"], "missing git describe")
    benches = doc.get("benchmarks")
    check(isinstance(benches, list) and benches, "benchmarks must be a non-empty array")
    seen = set()
    for b in benches:
        check(isinstance(b, dict), "benchmark entry is not an object")
        name = b.get("name")
        check(isinstance(name, str) and name, "benchmark without a name")
        check(name not in seen, f"duplicate benchmark name {name!r}")
        seen.add(name)
        counters = b.get("counters")
        check(isinstance(counters, dict) and counters,
              f"{name}: counters must be a non-empty object")
        for k, v in counters.items():
            check(isinstance(v, (int, float)), f"{name}: counter {k!r} is not numeric")
        probed = ALLOC_PROBED_EXPERIMENTS.get(doc.get("experiment"))
        if require_alloc_probe and probed is not None and name.startswith(probed):
            check("allocs_per_step" in counters,
                  f"{name}: missing allocs_per_step counter "
                  f"(experiment {doc['experiment']} carries the allocation probe)")
    if require_alloc_probe and doc.get("experiment") in TIER_COUNTER_EXPERIMENTS:
        check(any(all(k in b.get("counters", {}) for k in TIER_COUNTER_KEYS)
                  for b in benches),
              f"no benchmark carries the tiered dedup counters "
              f"{TIER_COUNTER_KEYS} (experiment {doc['experiment']} must "
              f"exercise the tiered store)")
    tables = doc.get("tables")
    check(isinstance(tables, list), "tables must be an array")
    for t in tables:
        check(isinstance(t.get("title"), str) and t["title"], "table without a title")
        rows = t.get("rows")
        check(isinstance(rows, list), "table rows must be an array")
        for r in rows:
            check(isinstance(r, str), "table row is not a string")
    titles = [t["title"] for t in tables]
    check(len(titles) == len(set(titles)), "duplicate table titles")


def is_lower_better(counter_name):
    return any(m in counter_name for m in LOWER_BETTER_MARKERS)


def is_higher_better(counter_name):
    return not is_lower_better(counter_name) and any(
        m in counter_name for m in HIGHER_BETTER_MARKERS)


def diff_tables(exp, base, cand):
    """One report line per difference between two documents' tables."""
    def show(row):
        return "(no row)" if row is None else row

    out = []
    base_tables = {t["title"]: t for t in base["tables"]}
    cand_tables = {t["title"]: t for t in cand["tables"]}
    for title in base_tables:
        if title not in cand_tables:
            out.append(f'TABLE {exp} "{title}": missing from the candidate')
    for title in cand_tables:
        if title not in base_tables:
            out.append(f'TABLE {exp} "{title}": not in the baseline')
    for title, b in base_tables.items():
        c = cand_tables.get(title)
        if c is None:
            continue
        if b.get("columns") != c.get("columns"):
            out.append(f'TABLE {exp} "{title}": columns differ\n'
                       f'  baseline:  {b.get("columns")}\n  candidate: {c.get("columns")}')
        brows, crows = b["rows"], c["rows"]
        for i in range(max(len(brows), len(crows))):
            old = brows[i] if i < len(brows) else None
            new = crows[i] if i < len(crows) else None
            if old != new:
                out.append(f'TABLE {exp} "{title}": row {i + 1} differs\n'
                           f'  baseline:  {show(old)}\n  candidate: {show(new)}')
    return out


def diff_dirs(base_dir, cand_dir):
    base_files = {f for f in os.listdir(base_dir)
                  if f.startswith("BENCH_") and f.endswith(".json")}
    cand_files = {f for f in os.listdir(cand_dir)
                  if f.startswith("BENCH_") and f.endswith(".json")}
    common = sorted(base_files & cand_files)
    if not common:
        fail(f"no BENCH_*.json files common to {base_dir} and {cand_dir}")
    for only, where in ((base_files - cand_files, "baseline"),
                        (cand_files - base_files, "candidate")):
        for f in sorted(only):
            print(f"note: {f} present only in {where}")

    table_diffs = 0
    regressions = 0
    for fname in common:
        base = load(os.path.join(base_dir, fname))
        cand = load(os.path.join(cand_dir, fname))
        # Baselines may predate the allocation probe; only --validate (used by
        # tools/bench_smoke.sh on freshly emitted files) insists on it.
        validate_doc(os.path.join(base_dir, fname), base, require_alloc_probe=False)
        validate_doc(os.path.join(cand_dir, fname), cand, require_alloc_probe=False)
        if CAMPAIGN_SCHEMA in (base.get("schema"), cand.get("schema")):
            print(f"note: {fname} is an {CAMPAIGN_SCHEMA} document; not diffable, skipping")
            continue
        for line in diff_tables(cand["experiment"], base, cand):
            print(line)
            table_diffs += 1
        base_by_name = {b["name"]: b for b in base["benchmarks"]}
        for b in cand["benchmarks"]:
            ref = base_by_name.get(b["name"])
            if ref is None:
                print(f"note: {fname}: {b['name']} has no baseline")
                continue
            for key, val in sorted(b["counters"].items()):
                if key not in ref["counters"]:
                    continue
                old = ref["counters"][key]
                if old == val:
                    continue
                pct = (val - old) / abs(old) * 100 if old else float("inf")
                tag = f"{fname}: {b['name']} {key}: {old:g} -> {val:g} ({pct:+.1f}%)"
                if is_higher_better(key) and pct < -THRESHOLD_PCT:
                    print(f"REGRESSION {tag}")
                    regressions += 1
                elif (is_lower_better(key) and val > old + ALLOC_EPSILON
                      and pct > THRESHOLD_PCT):
                    print(f"REGRESSION {tag}")
                    regressions += 1
                else:
                    print(f"  {tag}")
    if table_diffs or regressions:
        print(f"bench_diff: {table_diffs} table difference(s), {regressions} counter "
              f"regression(s) beyond {THRESHOLD_PCT:g}%", file=sys.stderr)
        return 1
    print("bench_diff: tables identical, no counter regressions")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--validate", action="store_true",
                    help="schema-check the given files instead of diffing directories")
    ap.add_argument("paths", nargs="+",
                    help="files (--validate) or BASELINE_DIR CANDIDATE_DIR")
    args = ap.parse_args()

    if args.validate:
        for path in args.paths:
            docs = load_stream(path)
            for doc in docs:
                validate_doc(path, doc)
            print(f"{path}: OK" + (f" ({len(docs)} records)" if len(docs) > 1 else ""))
        return 0
    if len(args.paths) != 2:
        fail("diff mode takes exactly two directories (or use --validate)")
    return diff_dirs(args.paths[0], args.paths[1])


if __name__ == "__main__":
    sys.exit(main())

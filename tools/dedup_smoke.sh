#!/usr/bin/env sh
# Tiered dedup store smoke check (ctest -L dedup): the same sweep through the
# unbudgeted in-memory store and through a RAM-capped tiered store must
# report IDENTICAL semantic counters (states, terminal runs, unique
# signatures) — the tiers only move where duplicates are found — while the
# tiered run must actually exercise the disk (spills > 0) and must leave
# nothing behind in its spill directory. The in-memory 1-thread run's tier
# hits must add up to its duplicates. The same sweep at 4 threads, through
# both store shapes, must reproduce the 1-thread counters, and its tier hits
# must add up to its own duplicates (each inserting thread counts in a slot
# of its own, so the counts stay exact at any thread count). Also checks
# that a spill failure ends the sweep at 1 and 4 threads with exit 6 and a
# diagnostic, that the capped mem-only configuration degrades to a
# lower-bound verdict (exit 3) instead of pretending to certify, that an
# out-of-range --mem-mb is a usage error, and that the sweep ignores store
# variables in its environment: the flags are its only store inputs.
#
# usage: dedup_smoke.sh <efd_dedup_sweep-binary> [workdir]
set -eu

sweep="$1"
work="${2:-$(mktemp -d)}"
mkdir -p "$work"
spill="$work/spill"
mkdir -p "$spill"

# Sweep small enough for sanitizer builds, big enough to force spill traffic
# through a 1 MiB budget (the (5,2) level-2 sweep holds ~103k signatures).
common="--n 5 --set-k 2 --level 2 --max-states 400000"

# Field extractor: first occurrence wins ("states" also prefixes
# "states_per_s", so match the quoted key exactly).
field() { # file key
  sed -n "s/^.*\"$2\": \([0-9-][0-9]*\).*$/\1/p" "$1" | head -1
}

$sweep $common --tiers mem --mem-mb 0 --out "$work/mem.json"
$sweep $common --tiers tiered --mem-mb 1 --spill-dir "$spill" --out "$work/tiered.json"

grep -q '"schema": "efd-dedup-sweep-v1"' "$work/mem.json" || {
  echo "FAIL: mem.json is not an efd-dedup-sweep-v1 document" >&2
  exit 1
}

for key in states terminal_runs dedup_queries dedup_misses dedup_hits; do
  a="$(field "$work/mem.json" $key)"
  b="$(field "$work/tiered.json" $key)"
  [ -n "$a" ] && [ "$a" = "$b" ] || {
    echo "FAIL: semantic counter $key diverged: mem=$a tiered=$b" >&2
    exit 1
  }
done

# The 1-thread sweep runs on the tiered store too: with no disk tier every
# duplicate is answered by tier 0 or by a shard, and tier 0 answers some.
recent="$(field "$work/mem.json" recent_hits)"
memhits="$(field "$work/mem.json" mem_hits)"
hits="$(field "$work/mem.json" dedup_hits)"
[ "${recent:-0}" -gt 0 ] && [ $((recent + memhits)) -eq "$hits" ] || {
  echo "FAIL: 1-thread mem run tiers: recent_hits=$recent + mem_hits=$memhits," \
    "want dedup_hits=$hits with recent_hits > 0" >&2
  exit 1
}

# The parallel frontier: in-memory (tier 0 over unbudgeted shards) and
# tiered stores at 4 threads must report the 1-thread mem run's counters.
$sweep $common --threads 4 --tiers mem --mem-mb 0 --out "$work/mem_x4.json"
$sweep $common --threads 4 --tiers tiered --mem-mb 1 --spill-dir "$spill" \
  --out "$work/tiered_x4.json"
for run in mem_x4 tiered_x4; do
  for key in states terminal_runs dedup_queries dedup_misses; do
    a="$(field "$work/mem.json" $key)"
    b="$(field "$work/$run.json" $key)"
    [ -n "$a" ] && [ "$a" = "$b" ] || {
      echo "FAIL: $run counter $key diverged from the 1-thread mem run: x1=$a $run=$b" >&2
      exit 1
    }
  done
  recent="$(field "$work/$run.json" recent_hits)"
  memhits="$(field "$work/$run.json" mem_hits)"
  coldhits="$(field "$work/$run.json" cold_hits)"
  hits="$(field "$work/$run.json" dedup_hits)"
  [ -n "$recent" ] && [ -n "$memhits" ] && [ -n "$coldhits" ] &&
    [ $((recent + memhits + coldhits)) -eq "$hits" ] || {
    echo "FAIL: $run tiers: recent_hits=$recent + mem_hits=$memhits +" \
      "cold_hits=$coldhits, want dedup_hits=$hits" >&2
    exit 1
  }
done

spills="$(field "$work/tiered.json" spills)"
[ "${spills:-0}" -gt 0 ] || {
  echo "FAIL: tiered sweep under a 1 MiB cap never spilled (spills=$spills)" >&2
  exit 1
}

grep -q '"verdict": "clean"' "$work/tiered.json" || {
  echo "FAIL: tiered sweep did not certify the level" >&2
  exit 1
}

# Spill files are unlinked at creation and the mkdtemp'd directory is removed
# with the store: an out-of-core sweep must leave the spill root pristine.
leftover="$(find "$spill" -mindepth 1 | head -5)"
[ -z "$leftover" ] || {
  echo "FAIL: spill root not cleaned up:" >&2
  echo "$leftover" >&2
  exit 1
}

# A spill that fails ends the sweep with a diagnostic, at one thread and at
# four: with --spill-dir naming a missing directory the first spill cannot
# make the store's directory, so the sweep must exit 6 with a `diskset:`
# line on stderr and create nothing, and must not hang (a shard left making
# room would stall every later insert into it).
missing="$work/missing"
for threads in 1 4; do
  out="$work/missing_x$threads.json"
  err="$work/missing_x$threads.err"
  rm -rf "$missing" "$out"
  rc=0
  timeout 120 $sweep $common --threads $threads --tiers tiered --mem-mb 1 \
    --spill-dir "$missing" --out "$out" >/dev/null 2>"$err" || rc=$?
  [ "$rc" -eq 6 ] || {
    echo "FAIL: --threads $threads sweep into a missing spill dir exited $rc," \
      "want 6 (124: timed out)" >&2
    exit 1
  }
  grep -q 'diskset:' "$err" || {
    echo "FAIL: --threads $threads failed spill printed no diskset: line:" >&2
    cat "$err" >&2
    exit 1
  }
  [ ! -e "$missing" ] && [ ! -e "$out" ] || {
    echo "FAIL: --threads $threads failed spill created $missing or $out" >&2
    exit 1
  }
done

# Capped mem-only: must stop early and say so (exit 3 = lower bound), never
# report a certified level.
rc=0
$sweep $common --tiers mem --mem-mb 1 --out "$work/capped.json" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || {
  echo "FAIL: capped mem-only sweep exited $rc, want 3 (lower bound)" >&2
  exit 1
}
grep -q '"mem_exhausted": true' "$work/capped.json" || {
  echo "FAIL: capped sweep did not latch mem_exhausted" >&2
  exit 1
}
capped_states="$(field "$work/capped.json" states)"
full_states="$(field "$work/mem.json" states)"
[ "$capped_states" -lt "$full_states" ] || {
  echo "FAIL: capped sweep explored $capped_states states, full sweep $full_states" >&2
  exit 1
}

# A MiB budget whose byte count would wrap size_t is a usage error (exit 2),
# as is one strtoll cannot represent.
for mb in 17592186044417 99999999999999999999; do
  rc=0
  $sweep $common --tiers mem --mem-mb "$mb" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || {
    echo "FAIL: --mem-mb $mb exited $rc, want 2 (usage error)" >&2
    exit 1
  }
done

# The tier names are mem and tiered; any other, the retired alias disk
# included, is a usage error (exit 2).
rc=0
$sweep $common --tiers disk >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || {
  echo "FAIL: --tiers disk exited $rc, want 2 (usage error)" >&2
  exit 1
}

# No environment variable shapes the store: the plain sweep (no store flags)
# with a malformed tier name and a 1 MiB cap exported must run the default
# unbudgeted in-memory store and report the mem run's counters.
rc=0
EFD_DEDUP_TIERS=bogus EFD_DEDUP_MEM_MB=1 $sweep $common --out "$work/env.json" >/dev/null || rc=$?
[ "$rc" -eq 0 ] || {
  echo "FAIL: sweep with EFD_DEDUP_TIERS=bogus EFD_DEDUP_MEM_MB=1 exported exited $rc, want 0" >&2
  exit 1
}
grep -q '"mem_budget_bytes": 0,' "$work/env.json" || {
  echo "FAIL: exported EFD_DEDUP_MEM_MB reached the store's budget" >&2
  exit 1
}
for key in states terminal_runs dedup_queries dedup_misses dedup_hits; do
  a="$(field "$work/mem.json" $key)"
  b="$(field "$work/env.json" $key)"
  [ -n "$a" ] && [ "$a" = "$b" ] || {
    echo "FAIL: semantic counter $key diverged under exported store variables:" \
      "mem=$a env=$b" >&2
    exit 1
  }
done

echo "dedup_smoke: OK (states=$full_states, spills=$spills, capped=$capped_states+)"

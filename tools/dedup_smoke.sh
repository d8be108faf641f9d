#!/usr/bin/env sh
# Tiered dedup store smoke check (ctest -L dedup): the same sweep through the
# plain in-memory store and through a RAM-capped tiered store must report
# IDENTICAL semantic counters (states, terminal runs, unique signatures) —
# the tiers only move where duplicates are found — while the tiered run must
# actually exercise the disk (spills > 0) and must leave nothing behind in
# its spill directory. The same sweep at 4 threads, through both store
# shapes, must reproduce the 1-thread counters. Also checks the capped
# mem-only configuration degrades to a lower-bound verdict (exit 3) instead
# of pretending to certify.
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

# The parallel frontier: plain (tier 0 over unbudgeted shards) and tiered
# stores at 4 threads must report the 1-thread plain run's counters.
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

# Run files are unlinked at mmap time and the mkdtemp'd directory is removed
# with the store: an out-of-core sweep must leave the spill root pristine.
leftover="$(find "$spill" -mindepth 1 | head -5)"
[ -z "$leftover" ] || {
  echo "FAIL: spill root not cleaned up:" >&2
  echo "$leftover" >&2
  exit 1
}

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

echo "dedup_smoke: OK (states=$full_states, spills=$spills, capped=$capped_states+)"

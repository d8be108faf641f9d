#!/usr/bin/env sh
# Campaign farm smoke check (ctest -L campaign): the `serve` daemon must
#
#  1. run a short bounded soak over all targets, persist its novel findings
#     into a content-hashed corpus, and emit schema-valid
#     efd-campaign-farm-v1 soak records (checked with bench_diff.py
#     --validate when python3 is available);
#  2. RESUME: a restart over the same corpus with the same seed must
#     classify every known finding as a duplicate — zero novel findings;
#  3. DRAIN: an unbounded serve must exit 0 on SIGINT with the in-flight
#     batch completed and the final record stamped "drained": true.
# Steps 4-6 check queue submissions, flag validation, and that malformed
# corpus tapes are quarantined, never fatal.
#
# usage: farm_smoke.sh <efd_campaign-binary> [workdir]  (efd_repro beside it)
set -eu

campaign="$1"
work="${2:-$(mktemp -d)}"
script_dir="$(cd "$(dirname "$0")" && pwd)"
rm -rf "$work"
mkdir -p "$work"
corpus="$work/corpus"

# Small plan budget + small batches keep this viable under sanitizers while
# still crossing several batch boundaries per phase. The torn-commit target
# (tw) is excluded for the same reason as in campaign_smoke.sh.
targets="--target cons --target ksa --target ren --target p1c \
  --target synth --target bcf --target brn"

# --- 1: bounded soak populates the corpus ---------------------------------
"$campaign" serve --seed 42 --max-plans 112 --batch 28 --workers 4 \
  --soak-interval 0.2 --corpus "$corpus" --out "$work/final1.json" \
  $targets > "$work/soak1.jsonl"

grep -q '"schema":"efd-campaign-farm-v1"' "$work/soak1.jsonl" || {
  echo "FAIL: soak stream carries no efd-campaign-farm-v1 records" >&2
  exit 1
}
grep -q '"mode":"final"' "$work/soak1.jsonl" || {
  echo "FAIL: soak stream is missing the final record" >&2
  exit 1
}
ls "$corpus"/*.tape >/dev/null 2>&1 || {
  echo "FAIL: the soak persisted no corpus tapes" >&2
  exit 1
}
# Top-level counters sit at 2-space indent; per-target ones (which MAY be
# zero for the clean targets) at 6 — anchor so only the totals match.
grep -q '^  "novel": 0,' "$work/final1.json" && {
  echo "FAIL: first soak reported zero novel findings" >&2
  exit 1
}

if command -v python3 >/dev/null 2>&1; then
  python3 "$script_dir/bench_diff.py" --validate "$work/soak1.jsonl" "$work/final1.json"
fi

# --- 2: restart-with-corpus resumes, not rediscovers ----------------------
"$campaign" serve --seed 42 --max-plans 112 --batch 28 --workers 4 \
  --soak-interval 0.2 --corpus "$corpus" --out "$work/final2.json" \
  $targets > "$work/soak2.jsonl"

grep -q '^  "novel": 0,' "$work/final2.json" || {
  echo "FAIL: restart over the persisted corpus reported novel findings" >&2
  exit 1
}
grep -q '^  "duplicates": 0,' "$work/final2.json" && {
  echo "FAIL: restart classified no finding as duplicate" >&2
  exit 1
}

# --- 3: SIGINT drains gracefully ------------------------------------------
"$campaign" serve --seed 7 --batch 16 --workers 4 --soak-interval 0.2 \
  --corpus "$work/corpus_drain" --out "$work/final3.json" \
  $targets > "$work/soak3.jsonl" &
pid=$!
sleep 2
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" != "0" ]; then
  echo "FAIL: SIGINT drain exited $rc, want 0" >&2
  exit 1
fi
grep -q '^  "drained": true,' "$work/final3.json" || {
  echo "FAIL: drained serve did not stamp drained:true" >&2
  exit 1
}

# --- 4: external queue submissions are executed ---------------------------
# A regular file works as a pre-filled queue (the FIFO reader polls any
# O_NONBLOCK-readable fd); malformed lines must be dropped, not fatal.
{
  echo "# comment"
  echo "cons plan-v1; storm 10 0"
  echo "cons this-is-not-a-plan"
  echo "nosuchtarget plan-v1"
  echo "synth plan-v1; burst 0 1 q4294967297"
  echo "synth plan-v1; burst 5 20 p1"
} > "$work/queue"
"$campaign" serve --seed 3 --max-plans 28 --batch 28 --workers 4 \
  --queue "$work/queue" --corpus "$work/corpus_q" --out "$work/final4.json" \
  $targets > "$work/soak4.jsonl"
grep -q '^  "external": 2,' "$work/final4.json" || {
  echo "FAIL: queue submissions were not executed (want external: 2)" >&2
  exit 1
}

# --- 5: malformed numeric flags are usage errors ---------------------------
# Each bad value exits 2 before the farm starts. The bounding flag placed
# before it (--duration 1 or --max-plans 1) keeps a regression that accepts
# the value from running unbounded: it would exit 0 after the bound instead.
for bad in "--duration 1 --max-plans 1e3" "--duration 1 --max-plans -1" \
           "--max-plans 1 --workers 0" "--max-plans 1 --workers 4x" \
           "--max-plans 1 --batch 0" "--max-plans 1 --batch -2" \
           "--max-plans 1 --duration nan" "--max-plans 1 --duration -1" \
           "--max-plans 1 --soak-interval inf" "--max-plans 1 --soak-interval 1s" \
           "--max-plans 1 --seed 1.5" "--max-plans 1 --seed -1"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is flags and their values
  "$campaign" serve --target cons --corpus "$work/corpus_bad" \
    --out "$work/bad.json" $bad > /dev/null 2>&1 || rc=$?
  if [ "$rc" != "2" ]; then
    echo "FAIL: serve $bad exited $rc, want 2 (usage)" >&2
    exit 1
  fi
done

# --- 6: a corpus of malformed tapes is quarantined, not fatal --------------
# The fixtures plus a value literal 50,000 vectors deep: every tape efd_repro
# rejects as malformed (exit 3) is quarantined, the rest are indexed.
bad="$work/corpus_malformed"
mkdir -p "$bad"
cp "$script_dir"/../tests/corpus/malformed/*.tape "$bad"/
deep="$(printf '%50000s' '' | tr ' ' '[')$(printf '%50000s' '' | tr ' ' ']')"
awk -v fd="fd 0 1 $deep" '/^steps /{print fd} {print}' \
  "$script_dir/../tests/corpus/synth_write_race_min.tape" > "$bad/deep_literal.tape"
rejected=""
for tape in "$bad"/*.tape; do
  rc=0
  "$(dirname "$campaign")/efd_repro" replay "$tape" > /dev/null 2>&1 || rc=$?
  if [ "$rc" = "3" ]; then rejected="$rejected $(basename "$tape")"; fi
done
n_bad=$(echo $rejected | wc -w)
n_ok=$(($(ls "$bad"/*.tape | wc -l) - n_bad))
"$campaign" serve --seed 1 --max-plans 28 --batch 28 --workers 4 --corpus "$bad" \
  --out "$work/final6.json" $targets > /dev/null || {
  echo "FAIL: serve over a malformed corpus exited nonzero, want 0" >&2
  exit 1
}
for name in $rejected; do
  [ -f "$bad/quarantine/$name" ] || { echo "FAIL: $name was not quarantined" >&2; exit 1; }
done
grep -q "^    \"quarantined\": $n_bad\$" "$work/final6.json" &&
  grep -q "^    \"seeded\": $n_ok,\$" "$work/final6.json" &&
  [ -f "$bad/unknown_scenario.tape" ] || {
  echo "FAIL: want $n_bad tapes quarantined, $n_ok (unknown_scenario.tape) indexed" >&2
  exit 1
}

echo "farm smoke ok: $work"

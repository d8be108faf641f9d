#!/usr/bin/env sh
# Campaign smoke check (ctest -L campaign): a small fixed-seed sweep over all
# campaign targets must end with every verdict met — clean targets clean,
# seeded-buggy targets caught with a verified shrunk tape — and must emit a
# well-formed efd-campaign-v1 document. Small N keeps this fast enough to run
# under EFD_SANITIZE=address/thread builds, where the full sweep would not be.
#
# usage: campaign_smoke.sh <efd_campaign-binary> [workdir]
set -eu

campaign="$1"
work="${2:-$(mktemp -d)}"
script_dir="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$work"
out="$work/campaign_smoke.json"

# Exit 0 is the verdict line: nonzero means a clean target violated or a
# seeded bug escaped. The torn-commit target (tw) is excluded: its bug fires
# in only ~4% of plans, so a seeded 8-plan sweep cannot reliably catch it —
# it is covered by test_campaign's checker tests and the full E15 sweep.
"$campaign" run --seed 42 --plans 8 --save-dir "$work/pending" --out "$out" \
  --target cons --target ksa --target ren --target p1c \
  --target synth --target bcf --target brn

# The document must pass the efd-campaign-v1 schema check (every target's
# verdict, plan mix and violation list) and list the consensus target.
python3 "$script_dir/bench_diff.py" --validate "$out"
grep -q '"schema": "efd-campaign-v1"' "$out" || {
  echo "FAIL: $out is not an efd-campaign-v1 document" >&2
  exit 1
}
grep -q '"target": "cons"' "$out" || {
  echo "FAIL: $out is missing the consensus target" >&2
  exit 1
}

# Violation tapes of the seeded-buggy targets must exist and carry the plan
# provenance line.
found=0
for tape in "$work"/pending/*.tape; do
  [ -e "$tape" ] || continue
  found=1
  head -1 "$tape" | grep -q '^efd-tape-v1$' || {
    echo "FAIL: $tape is not an efd-tape-v1 artifact" >&2
    exit 1
  }
done
if [ "$found" = "0" ]; then
  echo "FAIL: the seeded-buggy targets produced no violation tapes" >&2
  exit 1
fi
grep -lq '^plan plan-v1' "$work"/pending/*.tape || {
  echo "FAIL: no violation tape carries a plan provenance line" >&2
  exit 1
}
grep -lq '^finding ' "$work"/pending/*.tape || {
  echo "FAIL: no violation tape carries a finding verdict line" >&2
  exit 1
}

# An unwritable save-dir must fail up front with the distinct IO exit code
# (7), not silently drop tapes plan by plan. A plain file blocks the
# create_directories call on every platform, root or not.
touch "$work/not_a_dir"
rc=0
"$campaign" run --seed 42 --plans 1 --target cons \
  --save-dir "$work/not_a_dir/pending" --out "$work/unused.json" 2>/dev/null || rc=$?
if [ "$rc" != "7" ]; then
  echo "FAIL: malformed save-dir exited $rc, want 7" >&2
  exit 1
fi

# Numeric flags take whole, in-range tokens only: anything else is a usage
# error (exit 2) before a single plan runs.
for bad in "--plans 3x" "--plans 0" "--plans -1" "--plans 99999999999" \
           "--seed foo" "--seed 7x" "--seed -5" "--seed 99999999999999999999"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$campaign" run --target cons --save-dir "$work/bad_pending" \
    --out "$work/bad.json" $bad 2>/dev/null || rc=$?
  if [ "$rc" != "2" ]; then
    echo "FAIL: run $bad exited $rc, want 2 (usage)" >&2
    exit 1
  fi
done

echo "campaign smoke ok: $out"

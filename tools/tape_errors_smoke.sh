#!/usr/bin/env sh
# Malformed-tape triage contract: every fixture in tests/corpus/malformed/
# must fail `efd_repro replay` with the DOCUMENTED exit code (3 = parse,
# 4 = IO, 5 = unknown scenario; 6 for a fault the tape's world cannot take)
# and a one-line diagnostic on stderr —
# scripted triage sorts tapes by these codes, so they are part of the CLI's
# stable interface (see the exit-code table in efd_repro.cpp).
#
# usage: tape_errors_smoke.sh <efd_repro-binary> <malformed-corpus-dir>
set -u

repro="$1"
dir="$2"
fail=0

expect_code() {
  tape="$1"
  want="$2"
  err=$("$repro" replay "$tape" 2>&1 >/dev/null)
  got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL: $tape exited $got, want $want" >&2
    fail=1
    return
  fi
  if [ -z "$err" ]; then
    echo "FAIL: $tape produced no diagnostic" >&2
    fail=1
    return
  fi
  if [ "$(printf '%s\n' "$err" | wc -l)" != "1" ]; then
    echo "FAIL: $tape diagnostic is not one line:" >&2
    printf '%s\n' "$err" >&2
    fail=1
    return
  fi
  echo "ok: $(basename "$tape") -> $got ($err)"
}

for tape in "$dir"/*.tape; do
  case "$(basename "$tape")" in
    unknown_scenario.tape) expect_code "$tape" 5 ;;
    *) expect_code "$tape" 3 ;;
  esac
done

expect_code "$dir/does-not-exist.tape.missing" 4

# Replay is strict: a well-formed tape whose link fault its world cannot take
# fails with "any other error" (6) instead of replaying without the fault.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# A drop charge on a register world, which has no links.
"$repro" record synth_write_race --seed 1 -o "$tmpdir/rec.tape" >/dev/null
awk '/^steps /{print "linkfaults drop 0 ch[0][1] 1"} {print}' "$tmpdir/rec.tape" \
  > "$tmpdir/register_link.tape"
expect_code "$tmpdir/register_link.tape" 6
# A drop charge on a link the 3x3 FloodMin world does not have.
"$repro" record mp_floodmin_lossy_raw --seed 1 -o "$tmpdir/rec.tape" >/dev/null
sed 's/ch\[0\]\[1\]/ch[7][7]/' "$tmpdir/rec.tape" > "$tmpdir/unknown_link.tape"
expect_code "$tmpdir/unknown_link.tape" 6

# `print` must fail identically: the parse happens before any replay.
"$repro" print "$dir/truncated.tape" >/dev/null 2>&1
if [ $? != 3 ]; then
  echo "FAIL: print truncated.tape did not exit 3" >&2
  fail=1
fi

# Numeric flags take whole, in-range tokens only: a malformed seed or round
# count is a usage error (2), decided before any scenario runs or any tape
# is read.
expect_usage() {
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" != "2" ]; then
    echo "FAIL: '$*' exited $got, want 2 (usage)" >&2
    fail=1
    return
  fi
  echo "ok: $* -> 2"
}
expect_usage "$repro" record synth_write_race -o /dev/null --seed 7x
expect_usage "$repro" record synth_write_race -o /dev/null --seed -7
expect_usage "$repro" record synth_write_race -o /dev/null --seed 99999999999999999999
expect_usage "$repro" shrink "$dir/truncated.tape" -o /dev/null --max-rounds -3
expect_usage "$repro" shrink "$dir/truncated.tape" -o /dev/null --max-rounds 0
expect_usage "$repro" shrink "$dir/truncated.tape" -o /dev/null --max-rounds 2x

exit $fail

#!/bin/sh
# Smoke-run one bench binary, check the JSON it emits, and diff its tables
# against the committed baseline.
#
# Usage: bench_smoke.sh BENCH_BINARY EXPERIMENT BASELINE_DIR
#   BENCH_BINARY  path to a bench executable (bench/bench_e<k>_*)
#   EXPERIMENT    the E<n> tag the binary writes (BENCH_E<n>.json)
#   BASELINE_DIR  directory of committed baselines (bench/baseline)
#
# Checks that the binary rejects an argument (exit 2, no file written), runs
# it once into a scratch directory (EFD_BENCH_JSON_DIR), then:
#  1. schema-checks the resulting file with tools/bench_diff.py --validate;
#  2. checks that stdout holds only tables: every non-blank line is a
#     recorded table's "=== title ===" line, its columns line or a line of
#     one of its rows, and every row is a whole line of stdout, so no row
#     runs into the output that follows it. E13 has no table, so it must
#     print nothing;
#  3. diffs the file against BASELINE_DIR/BENCH_<n>.json with bench_diff.py:
#     a changed table row (or allocation/hit-rate regression) fails;
#  4. changes one row in a copy of the file and checks that the diff then
#     exits 1 and names the experiment, the table and the row (skipped for
#     an experiment without table rows).
# Used by the `telemetry`-labeled ctest smoke tests (bench/CMakeLists.txt).
set -eu

bin=$1
exp=$2
baseline_dir=$3

script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
diff_py="$script_dir/bench_diff.py"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

mkdir "$tmpdir/rejected"
rc=0
EFD_BENCH_JSON_DIR="$tmpdir/rejected" "$bin" --any-argument > /dev/null 2>&1 || rc=$?
if [ "$rc" != "2" ] || [ -n "$(ls "$tmpdir/rejected")" ]; then
    echo "bench_smoke: $bin given an argument exited $rc; want 2 and no file written" >&2
    exit 1
fi

EFD_BENCH_JSON_DIR="$tmpdir" "$bin" > "$tmpdir/stdout.txt"

json="$tmpdir/BENCH_$exp.json"
if [ ! -f "$json" ]; then
    echo "bench_smoke: $bin did not write BENCH_$exp.json" >&2
    exit 1
fi
python3 "$diff_py" --validate "$json"

python3 - "$json" "$tmpdir/stdout.txt" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    doc = json.load(f)
with open(sys.argv[2], encoding="utf-8") as f:
    text = f.read()
out = "\n" + text
allowed = set()
bad = 0
for t in doc["tables"]:
    allowed.add(f'=== {t["title"]} ===')
    allowed.add(t["columns"])
    for r in t["rows"]:
        allowed.update(r.split("\n"))
        if "\n" + r + "\n" not in out:
            print(f'bench_smoke: {doc["experiment"]} "{t["title"]}": row is not a whole '
                  f"line of stdout: {r!r}", file=sys.stderr)
            bad += 1
for i, line in enumerate(text.split("\n"), 1):
    if line.strip() and line not in allowed:
        print(f'bench_smoke: {doc["experiment"]} stdout line {i} is not part of a '
              f"recorded table: {line!r}", file=sys.stderr)
        bad += 1
sys.exit(1 if bad else 0)
EOF

baseline="$baseline_dir/BENCH_$exp.json"
if [ ! -f "$baseline" ]; then
    echo "bench_smoke: no baseline $baseline (EXPERIMENTS.md says how to regenerate it)" >&2
    exit 1
fi
mkdir "$tmpdir/baseline"
cp "$baseline" "$tmpdir/baseline/"
python3 "$diff_py" "$tmpdir/baseline" "$tmpdir"

python3 - "$diff_py" "$tmpdir/baseline" "$json" "$tmpdir/changed" <<'EOF'
import json, os, subprocess, sys
diff_py, base_dir, path, changed_dir = sys.argv[1:]
with open(path, encoding="utf-8") as f:
    doc = json.load(f)
table = next((t for t in doc["tables"] if t["rows"]), None)
if table is None:
    print(f"bench_smoke: {doc['experiment']} has no table rows; changed-row check skipped")
    sys.exit(0)
table["rows"][0] += " (changed)"
row = table["rows"][0]
os.makedirs(changed_dir)
with open(os.path.join(changed_dir, os.path.basename(path)), "w", encoding="utf-8") as f:
    json.dump(doc, f)
p = subprocess.run([sys.executable, diff_py, base_dir, changed_dir],
                   capture_output=True, text=True)
report = p.stdout + p.stderr
unnamed = [s for s in (doc["experiment"], table["title"], row) if s not in report]
if p.returncode != 1 or unnamed:
    print(f"bench_smoke: a changed row must fail the diff and be named; got exit "
          f"{p.returncode}, report missing {unnamed}:\n{report}", file=sys.stderr)
    sys.exit(1)
print(f"bench_smoke: a changed {doc['experiment']} row fails the diff as expected")
EOF

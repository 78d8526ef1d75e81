#!/bin/sh
# bench/trend.sh — performance trajectory across bench runs.
#
# Diffs the BENCH_*.json snapshots of the current run against the copies
# stored by the previous invocation (bench/results/trend/), prints the
# per-metric deltas, then stores the current snapshots for next time.
#
# Usage, from the repository root (or anywhere):
#   dune exec bench/main.exe -- micro_telemetry micro_incremental
#   sh bench/trend.sh                 # diff + record every BENCH_*.json
#   sh bench/trend.sh BENCH_telemetry.json   # a subset
set -eu

cd "$(dirname "$0")/.."
store=bench/results/trend
mkdir -p "$store"

if [ "$#" -gt 0 ]; then
  files="$*"
else
  files=$(ls BENCH_*.json 2>/dev/null || true)
fi
if [ -z "$files" ]; then
  echo "trend: no BENCH_*.json snapshots in $(pwd) (run the bench first)" >&2
  exit 1
fi

have_python=0
command -v python3 >/dev/null 2>&1 && have_python=1

for f in $files; do
  [ -f "$f" ] || { echo "trend: $f not found" >&2; exit 1; }
  name=$(basename "$f" .json)
  prev="$store/$name.prev.json"
  if [ ! -f "$prev" ]; then
    echo "$name: first snapshot recorded (nothing to diff against)"
  elif [ "$have_python" = 1 ]; then
    python3 - "$prev" "$f" "$name" <<'EOF'
import json, sys

prev_file, cur_file, name = sys.argv[1:4]
with open(prev_file) as fh:
    prev = json.load(fh)
with open(cur_file) as fh:
    cur = json.load(fh)

def leaves(obj, path=""):
    """Flatten to {dotted.path: numeric leaf}."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(leaves(v, f"{path}.{k}" if path else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            # label list entries by their own "name"-ish field when present
            tag = v.get("workload") or v.get("name") if isinstance(v, dict) else None
            out.update(leaves(v, f"{path}[{tag or i}]"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[path] = float(obj)
    return out

p, c = leaves(prev), leaves(cur)
changed = []
for k in sorted(c):
    if k not in p:
        changed.append((k, None, c[k]))
    elif p[k] != c[k]:
        changed.append((k, p[k], c[k]))

print(f"{name}: {len(changed)} metric(s) changed since the previous run")
for k, old, new in changed:
    if old is None:
        print(f"  {k:48s} (new) {new:g}")
    else:
        rel = f" ({100.0 * (new - old) / old:+.1f}%)" if old != 0 else ""
        print(f"  {k:48s} {old:g} -> {new:g}{rel}")
EOF
  else
    # no python3: show whether anything changed at all
    if cmp -s "$prev" "$f"; then
      echo "$name: unchanged since the previous run"
    else
      echo "$name: changed since the previous run (install python3 for per-metric deltas)"
    fi
  fi
  cp "$f" "$prev"
done

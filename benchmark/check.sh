#!/usr/bin/env sh
# Benchmark self-check: format, build, lints, unit tests, a --quick smoke
# run of every workload in both modes (scaled-down, a few seconds), and a
# schema check that BENCHMARK.json and the binary's --list name exactly the
# same workloads and metrics. Run from anywhere; writes only under
# benchmark/out/ and cargo's target directory.
#
# The root scripts/check.sh does not call this yet: that file is outside
# this benchmark's paths, and hooking it in is a one-line change there.
set -eu
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo build --release --offline --manifest-path "$manifest"
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest"

bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

for trace in 0 1; do
    results=$(bench run --seed 1 --quick --trace "$trace" | grep '^{')
    total=$(printf '%s\n' "$results" | wc -l)
    good=$(printf '%s\n' "$results" | grep -c '"correct": true, ' || true)
    if [ "$total" -ne 5 ] || [ "$good" -ne 5 ]; then
        echo "check.sh: --quick --trace $trace: $good of $total results correct, want 5 of 5" >&2
        exit 1
    fi
done
test -s benchmark/out/playback_wire.trace.jsonl

bench --list > benchmark/out/list.txt
python3 - benchmark/out/list.txt <<'EOF'
import json, sys

manifest = json.load(open("BENCHMARK.json"))
listed = {"workload": set(), "end_to_end": set(), "per_layer": set()}
for line in open(sys.argv[1]):
    kind, *fields = line.split()
    listed[kind].add(tuple(fields))

declared = {
    "workload": {(w["name"],) for w in manifest["workloads"]},
    "end_to_end": {
        (m["name"], m["unit"], m["better"], repr(float(m["bound"])))
        for m in manifest["end_to_end"]
    },
    "per_layer": {(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]},
}
listed["end_to_end"] = {(n, u, b, repr(float(x))) for n, u, b, x in listed["end_to_end"]}
bad = False
for kind in listed:
    for only, where in ((listed[kind] - declared[kind], "--list"), (declared[kind] - listed[kind], "BENCHMARK.json")):
        for item in sorted(only):
            print(f"check.sh: {kind} {' '.join(item)} is only in {where}", file=sys.stderr)
            bad = True
sys.exit(1 if bad else 0)
EOF

echo "benchmark/check.sh: all green"

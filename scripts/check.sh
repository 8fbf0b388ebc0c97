#!/usr/bin/env sh
# Full pre-merge check: formatting, release build, tests, warning-free
# clippy, and a smoke run of the bench harnesses (--quick: scaled-down
# workloads, nothing written, so recorded BENCH_*.json stay untouched).
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release
cargo test -q
# Workspace invariant checker (hard gate): panic-path, wire-protocol,
# lock-order, hygiene, blocking, and stats passes over the tree. Exit 1
# on any finding. The JSON document (every active finding plus every
# reasoned escape hatch) is archived for auditing; the gate itself stays
# the exit code. The timing assertion keeps the whole-workspace lint —
# call graph and all — under 5 s so it stays cheap enough to run first.
mkdir -p bench_out
lint_start=$(date +%s%N)
cargo run --release -q -p dvw-lint -- --format json > bench_out/lint_findings.json
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "dvw-lint: full workspace in ${lint_ms} ms (findings archived to bench_out/lint_findings.json)"
test "$lint_ms" -lt 5000
cargo clippy --workspace --all-targets -- -D warnings
# Chaos pass: seeded fault schedules against live servers. The proptest
# shim seeds from the test name (PROPTEST_SEED unset), so these replay
# identically every run;
# PROPTEST_CASES pins the round count and RUST_BACKTRACE locates any
# failure inside the storm.
PROPTEST_CASES=32 RUST_BACKTRACE=1 cargo test -q -p dvw-dlib --test chaos
# Reply round trips must be flat across sizes (the pre-PR-12 send path
# stalled ≥ 40 ms between 8 KiB and one MSS); release mode, as served.
cargo test -q --release -p dvw-dlib --test reply_latency
RUST_BACKTRACE=1 cargo test -q --test chaos_resync
# Disk chaos: seeded read faults (transient, torn, bit flips, one dead
# timestep) under live looped playback; recovery counters must match the
# injected schedule exactly and a clean disk must report all zeros.
PROPTEST_CASES=32 RUST_BACKTRACE=1 cargo test -q --test disk_chaos
cargo run --release -p dvw-bench --bin bench_trace -- --quick
# Scalar-vs-batch streakline bitwise equality under a pinned case count
# (the batch kernel is only as good as this proptest says it is).
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-tracer --test streak_equiv
# The one-sweep streamline kernel (k1 reuse, grid->physical map fused
# into the velocity sample) bit-identical to the verbatim trace-then-map oracle,
# per point in tracer and as encoded frame bytes in windtunnel.
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-tracer -p dvw-windtunnel --test streamline_equiv
# Chunk codec (3-D Lorenzo, bit-packed): write->read bitwise identical
# whatever the bit patterns (NaN payloads, -0.0, denormals), equal to its
# straight-line reference encoder at every chunk shape, canonical, and
# truncation/corruption rejected by name, never mis-decoded. Once at the
# default seed here, once at the fresh seed below.
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-flowfield --test codec_roundtrip
# Wire point codec: bit-exact round trip on arbitrary bit patterns, equal
# to its straight-line reference encoder, inside its size bounds, canonical,
# and a named error on every truncation or malformed byte; then bit flips in
# traced frames (full, keyframe, delta) rejected or re-encoded exactly. Once
# at the default seed, once at a fresh one (echoed, so a failure replays).
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-dlib --test point_codec
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --test wire_fuzz
seed=$(date +%s%N)
echo "wire and field codecs: fresh PROPTEST_SEED=$seed"
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-flowfield --test codec_roundtrip
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-dlib --test point_codec
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --test wire_fuzz
# Renderer: the concurrent two-eye anaglyph (and the client's display path
# over borrowed paths) bit-identical to the sequential oracle, every
# colour byte and Z bit; then the committed golden PPMs (six from
# `figures`, one from the quickstart example) reproduced byte for byte.
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-vr -p dvw-windtunnel --test render_equiv
root=$(pwd)
figs=$(mktemp -d)
cargo run --release -q -p dvw-bench --bin figures -- "$figs" > /dev/null
cargo build --release -q --example quickstart
(cd "$figs" && "$root/target/release/examples/quickstart" > /dev/null)
for f in bench_out/*.ppm; do cmp "$f" "$figs/$(basename "$f")"; done
rm -rf "$figs"
# The end-to-end harness: its own fmt/clippy/unit tests, a --quick smoke
# of all five workloads in both modes, and BENCHMARK.json <-> --list.
sh benchmark/check.sh

echo "check.sh: all green"

#!/usr/bin/env sh
# Full pre-merge check: formatting, release build, tests, warning-free
# clippy, the seeded chaos and equality passes (the frame-ahead twin
# servers among them), the golden images, and a --quick smoke of the
# end-to-end benchmark (scaled-down workloads).
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release
cargo test -q
# Blocking-while-locked checker (hard gate): no guard held across a
# blocking call in the service-path crates, found through the workspace
# call graph. Exit 1 on any finding. The timing assertion keeps it under
# 5 s so it stays cheap enough to run first.
lint_start=$(date +%s%N)
cargo run --release -q -p dvw-lint
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "dvw-lint: full workspace in ${lint_ms} ms"
test "$lint_ms" -lt 5000
cargo clippy --workspace --all-targets -- -D warnings
# Service-path lint levels: a panic or a silent integer truncation in the
# non-test code of these crates is a dropped frame for every client under
# the serial dispatcher. Each exception carries #[expect(.., reason)].
gate="-D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
  -D clippy::todo -D clippy::unimplemented -D clippy::cast_possible_truncation
  -D clippy::cast_possible_wrap -D clippy::allow_attributes_without_reason"
# shellcheck disable=SC2086 # $gate is a flag list
cargo clippy -q --no-deps -p dvw-dlib -p dvw-windtunnel -p dvw-storage -p dvw-tracer \
  -p dvw-flowfield --lib --bins -- $gate
# ...and its failing case: tests/clippy_bad seeds one violation of each
# lint (and of the workspace lint table); clippy must reject it and name
# every one.
# shellcheck disable=SC2086
if found=$(cargo clippy -q --offline --manifest-path tests/clippy_bad/Cargo.toml \
  --target-dir target/clippy_bad --message-format json -- $gate); then
  echo "clippy accepted tests/clippy_bad"
  exit 1
fi
for code in clippy::unwrap_used clippy::expect_used clippy::panic clippy::todo \
  clippy::unimplemented clippy::cast_possible_truncation clippy::cast_possible_wrap \
  clippy::allow_attributes_without_reason unfulfilled_lint_expectations \
  clippy::undocumented_unsafe_blocks clippy::dbg_macro clippy::print_stderr \
  unused_must_use E0133; do
  echo "$found" | grep -q "\"code\":{\"code\":\"$code\"" ||
    { echo "tests/clippy_bad: clippy did not report $code"; exit 1; }
done
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
# Scalar-vs-batch streakline bitwise equality under a pinned case count
# (the batch kernel, and the blend pair it interleaves straight from the
# AoS timesteps, are only as good as this proptest says they are). Once
# at the default seed here, once at the fresh seed below.
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-tracer --test streak_equiv
# The frame ahead changes no byte: twin servers over one store take the
# same random calls from two clients, one running the dispatcher's idle
# hook (trace the next playback frame) after every call; every reply must
# be byte-identical. Once here, once at the fresh seed below.
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --lib frame_ahead_twin
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
# Wire point codec: bit-exact round trip on arbitrary u32 triples, equal
# to its straight-line reference encoder, inside its size bounds, canonical,
# and a named error on every truncation or malformed byte; the path lattice
# idempotent and within q/2 on arbitrary f32 triples (NaN, infinities, -0.0,
# far out of bounds) at every accepted exponent; then bit flips in traced
# frames (full, keyframe, delta) and bit flips or an appended byte in every
# command, frame/delta request, hello reply and lattice-edge frame, rejected
# or re-encoded exactly. Once at the default seed, once at a fresh one
# (echoed, so a failure replays).
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-dlib --test point_codec
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --test lattice
PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --test wire_fuzz
seed=$(date +%s%N)
echo "wire and field codecs, renderer, streak pair, frame-ahead twins: fresh PROPTEST_SEED=$seed"
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-flowfield --test codec_roundtrip
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-dlib --test point_codec
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --test lattice
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-vr -p dvw-windtunnel --test render_equiv
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --test wire_fuzz
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-tracer --test streak_equiv
PROPTEST_SEED=$seed PROPTEST_CASES=64 RUST_BACKTRACE=1 cargo test -q --release -p dvw-windtunnel --lib frame_ahead_twin
# Renderer: the concurrent two-eye anaglyph (and the client's display path
# over borrowed paths) bit-identical to the sequential oracle, every
# colour byte and Z bit, over frames whose clears touch only what was
# drawn (also at the fresh seed above); then the committed golden PPMs
# (six from `figures`, one from the quickstart example) reproduced byte
# for byte.
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

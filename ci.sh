#!/usr/bin/env bash
# CI gate for the workspace. Runs the formatter check, clippy with warnings
# denied, the rustdoc gate (broken intra-doc links and missing docs fail the
# build), tier-1 verify (release build + tests of every crate, each once), and — when
# invoked with --bench — the benches that refresh BENCH_log.json /
# BENCH_macro.json. What decides a performance change is benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude serde --exclude serde_derive --exclude proptest

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q
# Tier-1 covers every crate of ours, mar-net's real-process fault scripts
# included; what is left of the workspace is the vendored proptest stand-in.
cargo test -q -p proptest
# The decoders' hostile-input tests once more in the release profile: what
# they guard is profile-dependent (stack frames shrink, overflow checks are
# compiled out), so debug alone does not show it.
cargo test -q --release -p mar-wire -p mar-simnet
# Likewise the three suites whose failure mode is "an agent is never
# scheduled": the mole's check of its `ready` set against the store is a
# debug assertion, and release is the profile the benchmark measures.
cargo test -q --release -p mar-platform --test smoke --test crash_window_props \
    --test step_path_cache_props
# And the two record suites: release compiles out the cross-check of a sealed
# log's savepoint bytes in `ResidentLog::materialize`, so the properties are
# what holds the number there, and the allocator calls of a hop that cannot
# pay for a compaction pass are counted in the profile the benchmark runs.
cargo test -q --release -p mar-core --test resident_record_props --test record_reader_props
# The canonical benchmark's own suite (smoke run, closed-form step and money
# checks, seed reproducibility): a core change that trips the benchmark's
# output checks fails here and not in the pipeline.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> example smoke stage (all five examples, release)"
for ex in quickstart travel_agency ecommerce_cash systems_management failure_storm; do
    echo "    --example $ex"
    cargo run -q --release --example "$ex" > /dev/null
done

echo "==> distributed smoke stage: driver + 2 node hosts over UDS"
# The travel-agency fleet end to end across three real processes. A wedged
# process must fail CI, not hang it: every PID is reaped with a timeout and
# the driver's own settlement deadline bounds the run.
smoke_dir=$(mktemp -d)
smoke_sock="unix:$smoke_dir/driver.sock"
timeout -k 5 120 target/release/mar-driver --socket "$smoke_sock" --hosts 2 \
    --scenario travel --seed 11 --agents 4 --deadline-secs 600 \
    > "$smoke_dir/driver.out" 2> "$smoke_dir/driver.err" &
driver_pid=$!
timeout -k 5 150 target/release/mar-node-host --socket "$smoke_sock" --host-id 0 \
    --wal-dir "$smoke_dir/h0" 2> /dev/null &
host0_pid=$!
timeout -k 5 150 target/release/mar-node-host --socket "$smoke_sock" --host-id 1 \
    --wal-dir "$smoke_dir/h1" 2> /dev/null &
host1_pid=$!
smoke_ok=1
wait "$driver_pid" || smoke_ok=0
wait "$host0_pid" || smoke_ok=0
wait "$host1_pid" || smoke_ok=0
if [[ "$smoke_ok" != 1 ]] || ! grep -q '^settled=true$' "$smoke_dir/driver.out" \
    || ! grep -q '^money USD=12000$' "$smoke_dir/driver.out"; then
    echo "distributed smoke stage FAILED; driver output:"
    cat "$smoke_dir/driver.out" "$smoke_dir/driver.err" || true
    rm -rf "$smoke_dir"
    exit 1
fi
echo "    settled: $(grep -c '^report ' "$smoke_dir/driver.out") reports, money USD=12000"
rm -rf "$smoke_dir"

echo "==> chaos smoke stage: mar-fleet with a scripted mid-run SIGKILL"
# The supervised deployment end to end: mar-fleet spawns the driver and both
# hosts, SIGKILLs host 1 after the driver's 60th lockstep window (of ~140),
# restarts it with backoff, and the run must still settle on the exact
# crash-free answer — with the kill having landed: one restart of host 1,
# nobody given up on, nothing left unfired. `timeout` backstops the
# supervisor's own fleet deadline.
chaos_dir=$(mktemp -d)
chaos_ok=1
timeout -k 5 150 target/release/mar-fleet --socket "unix:$chaos_dir/fleet.sock" \
    --hosts 2 --scenario travel --seed 11 --agents 6 \
    --io-timeout-secs 1 --wal-root "$chaos_dir/wal" --kill 60:1 \
    > "$chaos_dir/fleet.out" 2> "$chaos_dir/fleet.err" || chaos_ok=0
if [[ "$chaos_ok" != 1 ]] || ! grep -q '^settled=true$' "$chaos_dir/fleet.out" \
    || ! grep -q '^money USD=12000$' "$chaos_dir/fleet.out" \
    || ! grep -q '^mar-fleet: driver exit=Some(0) restarts={0: 0, 1: 1} gave_up=\[\] unfired=\[\]' \
        "$chaos_dir/fleet.err"; then
    echo "chaos smoke stage FAILED; fleet output:"
    cat "$chaos_dir/fleet.out" "$chaos_dir/fleet.err" || true
    rm -rf "$chaos_dir"
    exit 1
fi
echo "    $(grep '^mar-fleet: driver exit' "$chaos_dir/fleet.err" | head -1)"
rm -rf "$chaos_dir"

if [[ "${1:-}" == "--bench" ]]; then
    echo "==> cargo bench -p mar-bench (writes BENCH_log.json / BENCH_macro.json)"
    # An arm that measures a number with a floor asserts it itself (the
    # 4-shard critical-path speedup stays >= 2x), so a failed floor fails
    # this stage.
    cargo bench -p mar-bench
fi

echo "ci: all green"

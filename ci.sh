#!/usr/bin/env bash
# CI gate for the workspace. Runs the formatter check, clippy with warnings
# denied, the rustdoc gate (broken intra-doc links and missing docs fail the
# build), tier-1 verify (release build + tests of every crate, each once), and — when
# invoked with --bench — the benches that refresh BENCH_log.json /
# BENCH_macro.json, diffed against the committed baselines by bench_diff.
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
# Tier-1 covers the workspace's default members (facade + in-process
# crates); the rest of the workspace — mar-net (real processes, wall-clock
# chaos), mar-bench and the vendored proptest stand-in — runs here, once.
cargo test -q -p mar-net -p mar-bench -p proptest
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
cargo build -q --release -p mar-net
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
# hosts, SIGKILLs host 1 mid-run, restarts it with backoff, and the run must
# still settle on the exact crash-free answer. `timeout` backstops the
# supervisor's own fleet deadline.
chaos_dir=$(mktemp -d)
chaos_ok=1
timeout -k 5 150 target/release/mar-fleet --socket "unix:$chaos_dir/fleet.sock" \
    --hosts 2 --scenario travel --seed 11 --agents 6 --window-delay-us 3000 \
    --io-timeout-secs 1 --wal-root "$chaos_dir/wal" --kill 400:1 \
    > "$chaos_dir/fleet.out" 2> "$chaos_dir/fleet.err" || chaos_ok=0
if [[ "$chaos_ok" != 1 ]] || ! grep -q '^settled=true$' "$chaos_dir/fleet.out" \
    || ! grep -q '^money USD=12000$' "$chaos_dir/fleet.out"; then
    echo "chaos smoke stage FAILED; fleet output:"
    cat "$chaos_dir/fleet.out" "$chaos_dir/fleet.err" || true
    rm -rf "$chaos_dir"
    exit 1
fi
echo "    $(grep '^mar-fleet: driver exit' "$chaos_dir/fleet.err" | head -1)"
rm -rf "$chaos_dir"

if [[ "${1:-}" == "--bench" ]]; then
    echo "==> cargo bench -p mar-bench (writes BENCH_log.json / BENCH_macro.json)"
    baseline_dir=$(mktemp -d)
    trap 'rm -rf "$baseline_dir"' EXIT
    # Baseline = the *committed* reports (HEAD), so repeated local runs
    # cannot ratchet the baseline; fall back to the working copy only if a
    # report was never committed.
    for f in BENCH_log.json BENCH_macro.json; do
        if ! git show "HEAD:$f" > "$baseline_dir/$f" 2>/dev/null; then
            if [[ -f "$f" ]]; then cp "$f" "$baseline_dir/$f"; fi
        fi
    done
    cargo bench -p mar-bench
    echo "==> bench trend check against committed baselines"
    # --require pins coverage: each tracked benchmark family must appear in
    # the fresh report (a refactor that drops one fails, instead of passing
    # an empty diff).
    cargo run --release -q -p mar-bench --bin bench_diff -- \
        "$baseline_dir/BENCH_log.json" BENCH_log.json --max-regression 3.0 \
        --require "record/lazy_decode/" --require "record/splice_encode/" \
        --require "log/" --require "planner/"
    # The sharded-kernel arm is gated by a floor, not a trend: the 1k-agent
    # fleet's critical-path speedup at 4 shards must stay >= 2x. The e10
    # floor is the 3 record writes every step commit batches; macro_sim.rs
    # asserts the exact count (3 per barrier, plus folded deltas, plus the
    # transaction id floor once per 64 ids) itself.
    cargo run --release -q -p mar-bench --bin bench_diff -- \
        "$baseline_dir/BENCH_macro.json" BENCH_macro.json --max-regression 3.0 \
        --require "e1_forward/" --require "e9_resident/" --require "e8_fleet/" \
        --require "e10_stable/" --require "e11_itinerary/" --require "e12_net/" \
        --require "e13_chaos/" \
        --min-derived "e8_fleet/agents1000/speedup_shards4:2.0" \
        --min-derived "e13_chaos/kill_uds/restarts:1.0" \
        --min-derived "e10_stable/steady_state/commit_reduction:3.0" \
        --min-derived "e11_itinerary/warm_fleet/byte_reduction:2.0"
fi

echo "ci: all green"

#!/usr/bin/env bash
# CI gate for the workspace. Runs the formatter check, clippy with warnings
# denied, the rustdoc gate (broken intra-doc links and missing docs fail the
# build), tier-1 verify (release build + tests of every crate, each once), the
# suites whose failure shows only in the release profile, the experiment tables
# and the example and real-process smoke stages. What decides a performance
# change is benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check
# The benchmark package is its own workspace, so `--all` and `--workspace`
# do not reach it: it is formatted and linted by its manifest.
cargo fmt --manifest-path benchmark/Cargo.toml --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

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
# compiled out), so debug alone does not show it. With them the allocator
# counts of the two crates, in the profile the benchmark runs: the kernel
# trace's (`trace_alloc`: fewer than 64 calls more traced than untraced, at
# any run length) and a callback's (`trace_alloc`: the shard's command list
# is reused, so 1,000 and 2,000 timer callbacks make fewer than 64 calls),
# and an encode's (`encode_alloc`: a warm `to_bytes` asks once and returns no
# slack, `encoded_size` asks never, a buffer grown past 64 KiB is released,
# a nested encode encodes correctly).
cargo test -q --release -p mar-wire -p mar-simnet
# Likewise the three suites whose failure mode is "an agent is never
# scheduled": the mole's check of its `ready` set against the store is a
# debug assertion, and release is the profile the benchmark measures. With
# them the typed-op suite, which is the check that every compensation a typed
# op derives is registered (the entry kind is looked up there), and the
# report readers' sweep, whose `MoleMsg` inputs include the `Tx` frame a
# node decodes for every hop: an allocation bound is profile-dependent, as
# for the decoders above. And the shard-count equivalence suite, which
# compares whole traces: the threaded engine merges the shards' trace
# buffers, and release is the profile the benchmark runs. And a warmed
# hop's allocator calls per committed step (`hop_alloc`), which depend on
# the profile as every allocator count does.
cargo test -q --release -p mar-platform --test smoke --test crash_window_props \
    --test step_path_cache_props --test typed_ops_props --test report_reader_props \
    --test shard_equivalence_props --test hop_alloc
# And the commit path's crash suites: the WAL's equality with the reference
# backend under crash schedules, and its cleaner's bound on a fleet that
# queues several agents a node; the 2PC host's crash sweep, whose
# coordinator commits a prepared branch with unforced deletes and whose last
# participant decides; the resource managers' model property, whose
# prepared deltas are written once, outlive folds and are redone in doubt;
# and the store's isolation model, whose refusals name the holder no-wait
# 2PL reports.
cargo test -q --release -p mar-platform --test stable_backend_props --test wal_cleaner_bound
cargo test -q --release -p mar-txn --test twopc_sim --test store_model_props --test lock_model_props
# A bank transfer's allocator calls, counted in the profile the benchmark
# runs: equal on a ledger of 100 and of 10,000 accounts, and at most 30.
cargo test -q --release -p mar-resources --test alloc_calls
# And the two record suites: release compiles out the cross-check of a sealed
# log's savepoint bytes in `ResidentLog::materialize`, so the properties are
# what holds the number there, and the allocator calls of a hop that cannot
# pay for a compaction pass, of a lazy parse, a spliced encode and savepoint
# removal are counted in the profile the benchmark runs.
# With them the batch planner's suite: the planners are generic over the
# record they run on, and release is the profile the benchmark measures.
cargo test -q --release -p mar-core --test resident_record_props --test record_reader_props \
    --test planner_batch_props
# And the socket protocol in the profile the benchmark measures: the session
# codec's sweep (the byte fields' `TAG_BYTES` lengths included) and the
# socket fleet's equality with its in-process twin.
cargo test -q --release -p mar-net --test hostile_frames --test distributed_equivalence
# And the file-backed hosts under kills, in the release profile: the fault
# plans drop a host's volatile state and rebuild it from its WAL files, whose
# barriers reach the device only at the kernel's output-commit syncs.
cargo test -q --release -p mar-net --test fault_plan_props
# The sharded kernel's one wall-clock floor: 4 shards at least halve the
# critical path of a 1000-agent fleet. A timing of optimised code, so it is
# ignored in debug and runs here.
cargo test -q --release -p mar-bench --test shard_floor
# The canonical benchmark's own suite (smoke run, closed-form step and money
# checks, seed reproducibility): a core change that trips the benchmark's
# output checks fails here and not in the pipeline.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> paper experiment stage: every report table (E1–E12), release"
# Every experiment end to end in the profile the benchmark measures, held to
# EXPERIMENTS.md byte for byte: a panic or a moved number fails here.
cargo test -q --release -p mar-bench --test experiments

echo "==> example smoke stage (all five examples, release)"
for ex in quickstart travel_agency ecommerce_cash systems_management failure_storm; do
    echo "    --example $ex"
    cargo run -q --release --example "$ex" > /dev/null
done

# A host's WAL directory holds segment files only, at most three per node
# (`wal::MAX_LIVE_SEGMENTS`): no checkpoint image, no temporary file.
check_wal_dir() {
    local dir=$1 seg node count
    if compgen -G "$dir/*.ckpt" > /dev/null || compgen -G "$dir/*.tmp" > /dev/null; then
        echo "WAL directory $dir holds a checkpoint or temporary file:"
        ls -l "$dir"
        return 1
    fi
    if ! compgen -G "$dir/node-*.seg" > /dev/null; then
        echo "WAL directory $dir holds no segment"
        ls -l "$dir"
        return 1
    fi
    for seg in "$dir"/node-*.seg; do
        node=${seg##*/node-}
        node=${node%%.*}
        count=$(compgen -G "$dir/node-$node.*.seg" | wc -l)
        if (( count > 3 )); then
            echo "WAL directory $dir holds $count segments of node $node:"
            ls -l "$dir"
            return 1
        fi
    done
}

echo "==> distributed smoke stage: driver + 2 node hosts over UDS, + 3 over TCP"
# The travel-agency fleet end to end across real processes. A wedged
# process must fail CI, not hang it: every PID is reaped with a timeout and
# the driver's own settlement deadline bounds the run. With three hosts most
# lockstep windows have work on only some of them, so the TCP run is the
# real-process check that a window goes only to the hosts it concerns.
smoke_fleet() {
    local socket=$1 hosts=$2 smoke_dir pids h smoke_ok=1
    smoke_dir=$(mktemp -d)
    timeout -k 5 120 target/release/mar-driver --socket "$socket" --hosts "$hosts" \
        --scenario travel --seed 11 --agents 4 --deadline-secs 600 \
        > "$smoke_dir/driver.out" 2> "$smoke_dir/driver.err" &
    pids=($!)
    for ((h = 0; h < hosts; h++)); do
        timeout -k 5 150 target/release/mar-node-host --socket "$socket" --host-id "$h" \
            --wal-dir "$smoke_dir/h$h" 2> /dev/null &
        pids+=($!)
    done
    for pid in "${pids[@]}"; do
        wait "$pid" || smoke_ok=0
    done
    if [[ "$smoke_ok" == 1 ]] && grep -q '^settled=true$' "$smoke_dir/driver.out" \
        && grep -q '^money USD=12000$' "$smoke_dir/driver.out"; then
        for ((h = 0; h < hosts; h++)); do
            check_wal_dir "$smoke_dir/h$h" || smoke_ok=0
        done
    else
        smoke_ok=0
    fi
    if [[ "$smoke_ok" != 1 ]]; then
        echo "distributed smoke stage FAILED ($hosts hosts, $socket); driver output:"
        cat "$smoke_dir/driver.out" "$smoke_dir/driver.err" || true
        rm -rf "$smoke_dir"
        return 1
    fi
    echo "    $hosts hosts over ${socket%%:*}: $(grep -c '^report ' "$smoke_dir/driver.out") reports, money USD=12000"
    rm -rf "$smoke_dir"
}
uds_dir=$(mktemp -d)
smoke_fleet "unix:$uds_dir/driver.sock" 2 || exit 1
rm -rf "$uds_dir"
# A free port for the driver: the hosts need the address before it binds.
tcp_port=$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])')
smoke_fleet "tcp:127.0.0.1:$tcp_port" 3 || exit 1

echo "==> chaos smoke stage: mar-fleet with a scripted mid-run SIGKILL"
# The supervised deployment end to end: mar-fleet spawns the driver and both
# hosts, SIGKILLs host 1 after the driver's 60th lockstep window (of ~119),
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
        "$chaos_dir/fleet.err" \
    || ! check_wal_dir "$chaos_dir/wal/host0" || ! check_wal_dir "$chaos_dir/wal/host1"; then
    echo "chaos smoke stage FAILED; fleet output:"
    cat "$chaos_dir/fleet.out" "$chaos_dir/fleet.err" || true
    rm -rf "$chaos_dir"
    exit 1
fi
echo "    $(grep '^mar-fleet: driver exit' "$chaos_dir/fleet.err" | head -1)"
rm -rf "$chaos_dir"

echo "ci: all green"

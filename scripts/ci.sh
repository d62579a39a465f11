#!/usr/bin/env bash
# CI gate: hermetic offline build, full test suite, and a 2-thread campaign smoke
# run verified bit-identical against serial execution.
#
# The workspace has zero crates.io dependencies, so everything here must succeed
# with no network and no registry cache. CARGO_NET_OFFLINE=1 turns any accidental
# reintroduction of an external dependency into a hard failure.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

echo "== [1/14] offline release build =="
cargo build --release --workspace

echo "== [2/14] clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== [3/14] rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== [4/14] test suite (every crate's unit, doc and integration tests) =="
cargo test -q --workspace

echo "== [5/14] benchmark package tests (its mirror must match the simulator) =="
cargo test --offline --manifest-path libra-benchmark/Cargo.toml

echo "== [6/14] trace-export smoke (emit, then validate with the in-repo parser) =="
cargo run --release --bin libra-sim -- run AAt --frames 1 \
    --trace-out target/ci_trace.json --report-json target/ci_report.json
cargo run --release --bin libra-sim -- trace-check target/ci_trace.json

echo "== [7/14] 2-thread campaign smoke (parallel == serial, bit-identical) =="
cargo run --release --bin libra-sim -- campaign --frames 1 --threads 2 --verify

echo "== [8/14] heap-vs-scan event-loop differential smoke (metrics bit-identical) =="
cargo run --release --bin libra-sim -- run CCS --frames 2 --event-loop scan \
    --report-json target/ci_eventloop_scan.json
cargo run --release --bin libra-sim -- run CCS --frames 2 --event-loop heap \
    --report-json target/ci_eventloop_heap.json
cmp target/ci_eventloop_scan.json target/ci_eventloop_heap.json

echo "== [9/14] par-vs-heap event-loop differential smoke (2 worker threads, metrics bit-identical) =="
cargo run --release --bin libra-sim -- run CCS --frames 2 --event-loop par --sim-threads 2 \
    --report-json target/ci_eventloop_par.json
cmp target/ci_eventloop_heap.json target/ci_eventloop_par.json

echo "== [10/14] kill-and-resume smoke (poison one job, resume, metrics bit-identical) =="
# Reference: an uninterrupted sweep (no checkpoint so it cannot collide).
cargo run --release --bin libra-sim -- campaign --frames 1 --threads 2 \
    --no-checkpoint --report-json target/ci_campaign_ref.json
# Poisoned: LIBRA_FAULT (the env form) panics job 5, --retries 0 makes the
# failure stick, and the run exits non-zero by design — assert exactly that.
# The checkpoint is JSON, so this gate resumes the JSON encoding and gate 11
# the binary one.
rm -f target/ci_campaign.ckpt
if LIBRA_FAULT=panic:5 cargo run --release --bin libra-sim -- campaign --frames 1 \
    --threads 2 --retries 0 --ckpt-format json --checkpoint target/ci_campaign.ckpt \
    --report-json target/ci_campaign_poisoned.json; then
    echo "ERROR: poisoned campaign was expected to exit non-zero" >&2
    exit 1
fi
# Resume: only the poisoned job re-runs; the final report must be bit-identical
# to the uninterrupted reference.
cargo run --release --bin libra-sim -- campaign --frames 1 --threads 2 \
    --resume target/ci_campaign.ckpt --report-json target/ci_campaign_resumed.json
cmp target/ci_campaign_ref.json target/ci_campaign_resumed.json

echo "== [11/14] binary-checkpoint kill-and-resume (torn sidecar healed byte-identically) =="
# Reference: a serial sweep writing the default binary sidecar (job order is
# deterministic at --threads 1, so the file is byte-reproducible).
rm -f target/ci_campaign_ref.ckptb target/ci_campaign_cut.ckptb
cargo run --release --bin libra-sim -- campaign --frames 1 --threads 1 \
    --checkpoint target/ci_campaign_ref.ckptb >/dev/null
# Simulate a crash after the second append: keep the 36-byte header plus two
# complete length-prefixed frames. (od honours host byte order; the format is
# little-endian, as are all supported CI hosts.)
off=36
for _ in 1 2; do
    len=$(od -An -tu4 -j "$off" -N 4 target/ci_campaign_ref.ckptb | tr -d ' ')
    off=$((off + 4 + len))
done
head -c "$off" target/ci_campaign_ref.ckptb > target/ci_campaign_cut.ckptb
# Resume appends the missing suffix in the same serial order; the healed
# sidecar must be byte-identical to the uninterrupted reference.
cargo run --release --bin libra-sim -- campaign --frames 1 --threads 1 \
    --resume target/ci_campaign_cut.ckptb >/dev/null
cmp target/ci_campaign_ref.ckptb target/ci_campaign_cut.ckptb

echo "== [12/14] three-driver equality at 64 RU x 8 cores (scan == heap == par@2, every counter) =="
# The same sweep under each event-loop driver (the env form, as the benchmark
# passes it): the three reports must be byte-identical, which compares every
# simulated counter of every job.
for mode in scan heap par; do
    LIBRA_EVENT_LOOP=$mode LIBRA_SIM_THREADS=2 \
        cargo run --release --bin libra-sim -- campaign --frames 1 --rus 64 --cores 8 \
        --threads 2 --no-checkpoint --report-json "target/ci_drivers_$mode.json" >/dev/null
done
cmp target/ci_drivers_scan.json target/ci_drivers_heap.json
cmp target/ci_drivers_heap.json target/ci_drivers_par.json

echo "== [13/14] campaign service smoke (serve/submit on loopback, 2 workers, report byte-identical to serial campaign) =="
# Reference: a plain single-process 4-job sweep.
cargo run --release --bin libra-sim -- campaign --frames 1 --take 4 --threads 1 \
    --no-checkpoint --report-json target/ci_serve_ref.json >/dev/null
# Coordinator on an ephemeral port (printed in the "listening on" line), one
# connection, two worker processes.
rm -f target/ci_serve_listen.log
cargo run --release --bin libra-sim -- serve --addr 127.0.0.1:0 --workers 2 --once \
    > target/ci_serve_listen.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" target/ci_serve_listen.log && break
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/serve: listening on \([0-9.:]*\) .*/\1/p' target/ci_serve_listen.log)
if [ -z "$SERVE_ADDR" ]; then
    echo "ERROR: coordinator never reported its address" >&2
    cat target/ci_serve_listen.log >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
cargo run --release --bin libra-sim -- submit --addr "$SERVE_ADDR" --frames 1 --take 4 \
    --report-json target/ci_serve_report.json
wait "$SERVE_PID"
# The sharded report must be byte-identical to the single-process one.
cmp target/ci_serve_ref.json target/ci_serve_report.json

echo "== [14/14] mechanism sweep smoke (re+wasp campaign, serial == 2-thread bit-identical) =="
# The mechanism axes must compose with the campaign driver deterministically:
# the same re+wasp sweep on 1 and 2 threads writes byte-identical reports
# (per-job cycles, DRAM and cache counters under RE discards + WaSP reorders).
cargo run --release --bin libra-sim -- campaign --frames 2 --take 4 --threads 1 \
    --mechanism re+wasp --no-checkpoint \
    --report-json target/ci_mech_serial.json >/dev/null
cargo run --release --bin libra-sim -- campaign --frames 2 --take 4 --threads 2 \
    --mechanism re+wasp --no-checkpoint \
    --report-json target/ci_mech_thr2.json >/dev/null
cmp target/ci_mech_serial.json target/ci_mech_thr2.json

echo "ci.sh: all gates passed"

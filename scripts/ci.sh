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

echo "== [1/17] offline release build =="
cargo build --release --workspace

echo "== [2/17] clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== [3/17] rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== [4/17] test suite (every crate's unit, doc and integration tests) =="
cargo test -q --workspace

echo "== [5/17] benchmark package tests (its mirror must match the simulator) =="
cargo test --offline --manifest-path libra-benchmark/Cargo.toml

echo "== [6/17] trace-export smoke (emit, then validate with the in-repo parser) =="
cargo run --release --bin libra-sim -- run AAt --frames 1 \
    --trace-out target/ci_trace.json --report-json target/ci_report.json
cargo run --release --bin libra-sim -- trace-check target/ci_trace.json

echo "== [7/17] 2-thread campaign smoke (parallel == serial, bit-identical) =="
cargo run --release --bin libra-sim -- campaign --frames 1 --threads 2 --verify

echo "== [8/17] heap-vs-scan event-loop differential smoke (metrics bit-identical) =="
# CCS under LIBRA, and CuT under Rendering Elimination on a static camera: RE
# discards most tiles and Early-Z sees the rest.
cargo run --release --bin libra-sim -- run CCS --frames 2 --event-loop scan \
    --report-json target/ci_eventloop_scan.json
cargo run --release --bin libra-sim -- run CCS --frames 2 --event-loop heap \
    --report-json target/ci_eventloop_heap.json
cmp target/ci_eventloop_scan.json target/ci_eventloop_heap.json
cargo run --release --bin libra-sim -- run CuT --frames 3 --mechanism re --event-loop scan \
    --report-json target/ci_eventloop_re_scan.json
cargo run --release --bin libra-sim -- run CuT --frames 3 --mechanism re --event-loop heap \
    --report-json target/ci_eventloop_re_heap.json
cmp target/ci_eventloop_re_scan.json target/ci_eventloop_re_heap.json

echo "== [9/17] par-vs-heap event-loop differential smoke (2 worker threads, metrics bit-identical) =="
cargo run --release --bin libra-sim -- run CCS --frames 2 --event-loop par --sim-threads 2 \
    --report-json target/ci_eventloop_par.json
cmp target/ci_eventloop_heap.json target/ci_eventloop_par.json
cargo run --release --bin libra-sim -- run CuT --frames 3 --mechanism re --event-loop par \
    --sim-threads 2 --report-json target/ci_eventloop_re_par.json
cmp target/ci_eventloop_re_heap.json target/ci_eventloop_re_par.json

echo "== [10/17] kill-and-resume smoke (poison one job, resume, metrics bit-identical) =="
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

echo "== [11/17] binary-checkpoint kill-and-resume (torn sidecar healed byte-identically) =="
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

echo "== [12/17] three-driver equality at 64 RU x 8 cores (scan == heap == par@2, every counter) =="
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

echo "== [13/17] campaign service smoke (serve/submit on loopback, 2 workers, one killed; report byte-identical to serial campaign, checkpoint resumable) =="
# Reference: a plain single-process 4-job sweep.
cargo run --release --bin libra-sim -- campaign --frames 1 --take 4 --threads 1 \
    --no-checkpoint --report-json target/ci_serve_ref.json >/dev/null
# Coordinator on an ephemeral port (printed in the "listening on" line), one
# connection, two worker processes; the worker assigned job 1 is killed once,
# and every adopted result is appended to the coordinator's checkpoint.
rm -f target/ci_serve_listen.log target/ci_serve.ckptb
cargo run --release --bin libra-sim -- serve --addr 127.0.0.1:0 --workers 2 --once \
    --kill-worker 1 --checkpoint target/ci_serve.ckptb > target/ci_serve_listen.log 2>&1 &
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
    --report-json target/ci_serve_report.json | tee target/ci_serve_submit.log
wait "$SERVE_PID"
grep -q "absorbed 1 worker crash" target/ci_serve_submit.log
# The sharded report must be byte-identical to the single-process one, crash
# and respawn included.
cmp target/ci_serve_ref.json target/ci_serve_report.json
# The coordinator's checkpoint resumes in a plain campaign: all 4 jobs are
# adopted, none re-run, and the report is unchanged.
cargo run --release --bin libra-sim -- campaign --frames 1 --take 4 --threads 1 \
    --resume target/ci_serve.ckptb --report-json target/ci_serve_resumed.json \
    | tee target/ci_serve_resume.log
grep -q "adopted 4 completed job(s)" target/ci_serve_resume.log
cmp target/ci_serve_ref.json target/ci_serve_resumed.json

echo "== [14/17] mechanism sweep smoke (re+wasp campaign, serial == 2-thread bit-identical) =="
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

echo "== [15/17] benchmark end to end (--smoke, then --smoke --trace 1; every pass succeeds, every mirror matches) =="
# Gate 5 runs only the benchmark's unit tests; this drives it against the CLI
# it times: --profile's CSV columns, --ckpt-format json and --resume, submit's
# progress lines, report byte-identity across passes, and the traced run's
# mirror against Campaign::run_one. Each exits non-zero unless every pass
# succeeds and every trace.mirror_ok is 1. No timing is judged here.
cargo run --release --offline --manifest-path libra-benchmark/Cargo.toml -- --smoke
cargo run --release --offline --manifest-path libra-benchmark/Cargo.toml -- --smoke --trace 1

echo "== [16/17] the idle-core helper changes no byte (one CPU, no helper == every CPU) =="
# A raster phase runs an idle-priority helper thread beside the event loop
# when more than one CPU is available. Pinned to one CPU, available
# parallelism is 1 and no helper starts: the reports of the two runs of each
# command must be byte-identical. The campaigns cover 2 (the run), 8 and 64
# Raster Units, where the helper asks for different numbers of tiles ahead.
if ! command -v taskset >/dev/null 2>&1; then
    echo "ERROR: gate 16 needs taskset (util-linux) to pin the simulator to one CPU" >&2
    exit 1
fi
SIM=target/release/libra-sim
for pin in one every; do
    if [ "$pin" = one ]; then pre=(taskset -c 0); else pre=(); fi
    LIBRA_HOSTPROF=1 "${pre[@]}" "$SIM" run CuT --frames 3 --mechanism re \
        --report-json "target/ci_helper_run_$pin.json" > "target/ci_helper_run_$pin.log"
    "${pre[@]}" "$SIM" campaign --rus 64 --cores 8 --frames 2 --take 2 --threads 1 \
        --no-checkpoint --report-json "target/ci_helper_campaign_$pin.json" >/dev/null
    "${pre[@]}" "$SIM" campaign --rus 8 --cores 8 --frames 2 --take 4 --threads 1 \
        --no-checkpoint --report-json "target/ci_helper_campaign8_$pin.json" >/dev/null
done
# The pinned run had no helper; the unpinned one had it wherever there is a
# second CPU.
grep -q "helper in 0 of 3 phase(s)" target/ci_helper_run_one.log
if [ "$(nproc)" -gt 1 ]; then
    grep -q "helper in 3 of 3 phase(s)" target/ci_helper_run_every.log
fi
cmp target/ci_helper_run_one.json target/ci_helper_run_every.json
cmp target/ci_helper_campaign_one.json target/ci_helper_campaign_every.json
cmp target/ci_helper_campaign8_one.json target/ci_helper_campaign8_every.json

echo "== [17/17] results do not depend on the build profile (dev == release, every counter) =="
# `cargo test` runs the simulator built in the dev profile; the CLI and the
# benchmark run the release build. A floating-point value that the optimiser
# folds at compile time in one profile and computes at run time in the other
# can differ in its last bit, and move every count downstream of it. The two
# binaries' reports of the whole suite must be byte-identical.
cargo build --bin libra-sim
target/debug/libra-sim campaign --frames 1 --threads 2 --no-checkpoint \
    --report-json target/ci_profile_dev.json >/dev/null
target/release/libra-sim campaign --frames 1 --threads 2 --no-checkpoint \
    --report-json target/ci_profile_release.json >/dev/null
cmp target/ci_profile_dev.json target/ci_profile_release.json

echo "ci.sh: all gates passed"

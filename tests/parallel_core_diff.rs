//! Differential conformance suite for the raster phase's three event-loop
//! drivers.
//!
//! The linear scan loop (`LIBRA_EVENT_LOOP=scan`) is the executable
//! specification, the indexed heap driver is the production serial core, and
//! the epoch-barrier parallel driver (`par`) must reproduce both *bit for bit*
//! — same cycles, same DRAM traffic, same heatmaps, same micro-event counts,
//! same trace streams — at every worker count, across workloads from both
//! suite halves and every scheduler variant. A divergence between scan and
//! heap means the heap's `(ready_cycle, stable id)` tie-break no longer
//! matches the scan's first-minimum selection; one between heap and par means
//! the parallel driver's `(gate, RU)` commit order no longer matches the
//! serial head-merge. Either MUST be fixed in the driver, never papered over
//! by regenerating goldens. The scan-vs-heap trace streams are compared in
//! `tests/event_loop_diff.rs`; the traced run here holds par to the heap.
//!
//! Everything lives in one `#[test]` because the mode and thread-count
//! overrides are process-global: parallel test threads toggling them would
//! race each other.

use libra_repro::prelude::*;

const FRAMES: u32 = 2;
const WORKLOADS: [&str; 4] = ["AAt", "AnB", "CCS", "GrT"];
const PAR_THREADS: [usize; 3] = [1, 2, 4];

fn kinds() -> [(&'static str, SchedulerKind); 5] {
    [
        ("Hilbert", SchedulerKind::Hilbert),
        ("Libra", SchedulerKind::Libra),
        ("Scanline", SchedulerKind::Scanline),
        ("SingleZOrder", SchedulerKind::SingleZOrder),
        ("StaticSupertile4", SchedulerKind::StaticSupertile(4)),
    ]
}

/// `simulate_sequence` under `mode` (and, for par, `threads` workers).
fn run(
    mode: EventLoopMode,
    threads: Option<usize>,
    cfg: &GpuConfig,
    kind: SchedulerKind,
    p: &BenchmarkProfile,
) -> SequenceStats {
    event_loop::set_mode(Some(mode));
    event_loop::set_sim_threads(threads);
    let s = simulate_sequence(cfg, kind, p, FRAMES);
    event_loop::set_sim_threads(None);
    event_loop::set_mode(None);
    s
}

/// Asserts `got` equals `want` — targeted checks first, so a divergence names
/// the counter that moved instead of dumping two whole `SequenceStats`.
fn assert_same(want: &SequenceStats, got: &SequenceStats, what: &str) {
    assert_eq!(
        want.total_cycles(),
        got.total_cycles(),
        "total cycles diverged for {what}"
    );
    assert_eq!(
        want.total_dram_accesses(),
        got.total_dram_accesses(),
        "DRAM accesses diverged for {what}"
    );
    assert_eq!(want.frames.len(), got.frames.len());
    for (i, (wf, gf)) in want.frames.iter().zip(&got.frames).enumerate() {
        assert_eq!(wf.dram, gf.dram, "DramStats diverged for {what} frame {i}");
        assert_eq!(
            wf.heatmap, gf.heatmap,
            "tile heatmap diverged for {what} frame {i}"
        );
        assert_eq!(
            wf.micro_events, gf.micro_events,
            "micro-event count diverged for {what} frame {i}"
        );
    }
    // Then the exhaustive check: every FrameStats field, bit for bit.
    assert!(
        want == got,
        "SequenceStats diverged for {what} (per-field checks passed; diff the \
         remaining FrameStats fields)"
    );
}

#[test]
fn parallel_core_is_bit_identical_to_both_serial_drivers() {
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let profiles: Vec<BenchmarkProfile> = suite()
        .into_iter()
        .filter(|p| WORKLOADS.contains(&p.abbrev))
        .collect();
    assert_eq!(
        profiles.len(),
        WORKLOADS.len(),
        "differential workloads must exist"
    );

    for p in &profiles {
        for (label, kind) in kinds() {
            let what = format!("{}/{label}", p.abbrev);
            let scan = run(EventLoopMode::Scan, None, &cfg, kind, p);
            let heap = run(EventLoopMode::Heap, None, &cfg, kind, p);
            assert_same(&scan, &heap, &format!("{what} heap vs scan"));
            for threads in PAR_THREADS {
                let par = run(EventLoopMode::Par, Some(threads), &cfg, kind, p);
                assert_same(&heap, &par, &format!("{what} at par@{threads}"));
            }
        }
    }

    // One traced configuration: the cycle-level event streams (spans and
    // instants, in emission order) must match the serial stream at every
    // worker count — trace emission happens only on the coordinator thread,
    // so track IDs and event order are invariant under --sim-threads.
    let traced = |mode: EventLoopMode, threads: Option<usize>| -> Trace {
        event_loop::set_mode(Some(mode));
        event_loop::set_sim_threads(threads);
        trace::start();
        let mut sim = GpuSimulator::new(cfg.clone(), SchedulerKind::Libra);
        sim.render_sequence(&profiles[0], FRAMES);
        let t = trace::finish().expect("trace was started");
        event_loop::set_sim_threads(None);
        event_loop::set_mode(None);
        t
    };
    let heap_trace = traced(EventLoopMode::Heap, None);
    assert!(!heap_trace.is_empty(), "traced run produced no events");
    for threads in PAR_THREADS {
        let par_trace = traced(EventLoopMode::Par, Some(threads));
        assert_eq!(
            heap_trace.len(),
            par_trace.len(),
            "trace event counts diverged between heap and par@{threads}"
        );
        assert!(
            heap_trace == par_trace,
            "trace event streams diverged between heap and par@{threads}"
        );
    }

    // Eight Raster Units: up to eight Shared events parked at once, so the
    // par commit order is checked with many RUs competing, not just two.
    let cfg8 = GpuConfig::libra(ScreenConfig::tiny(), 8);
    for p in &profiles {
        let what = format!("{}/Libra at 8 RUs", p.abbrev);
        let scan = run(EventLoopMode::Scan, None, &cfg8, SchedulerKind::Libra, p);
        let heap = run(EventLoopMode::Heap, None, &cfg8, SchedulerKind::Libra, p);
        assert_same(&scan, &heap, &format!("{what} heap vs scan"));
        for threads in [1, 2] {
            let par = run(
                EventLoopMode::Par,
                Some(threads),
                &cfg8,
                SchedulerKind::Libra,
                p,
            );
            assert_same(&heap, &par, &format!("{what} par@{threads}"));
        }
    }
}

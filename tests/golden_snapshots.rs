//! Golden-snapshot tests: six `ScreenConfig::tiny()` workloads with every counter
//! that matters pinned per `SchedulerKind`, so perf-model drift fails loudly.
//!
//! The simulator is a deterministic integer machine: total cycles, DRAM accesses,
//! texture-L1 hit/access counts and the LIBRA scheduler's per-frame decisions
//! (traversal-order switches, supertile resizes) are exact, not statistical. Any
//! intentional change to the timing model, cache hierarchy, scheduler or scene
//! synthesis WILL move these numbers — that is the point. When that happens,
//! re-derive the table (the `print_current_goldens` helper below emits it in
//! source form, sorted by workload then scheduler) and update it in the same
//! commit as the model change, with the delta called out in the commit message.
//!
//! Workloads span both halves of the suite: `AAt`/`CCS`/`GrT` from the
//! memory-intensive half and `SuS`/`AnB`/`GDL` from the compute half, all on the
//! dual-RU LIBRA config.

use libra_repro::prelude::*;
use tbr_sim::{JobSpec, RunOptions};

/// The pinned workloads, alphabetical — the order the table is emitted in.
const WORKLOAD_ABBREVS: [&str; 6] = ["AAt", "AnB", "CCS", "GDL", "GrT", "SuS"];

/// One pinned measurement: (workload, scheduler label, total cycles over 2
/// frames, total DRAM accesses, texture-L1 hits, texture-L1 accesses,
/// traversal-order switches, supertile resizes).
///
/// The last two pin the LIBRA feedback loop's *decisions*, not just their timing
/// consequences: a frame-over-frame change of the planned traversal order counts
/// one order switch, a change of the planned supertile edge counts one resize.
/// Static schedulers must always show 0/0.
type GoldenRow = (&'static str, &'static str, u64, u64, u64, u64, u64, u64);

const GOLDENS: &[GoldenRow] = &[
    ("AAt", "Hilbert", 208838, 29732, 211657, 303585, 0, 0),
    ("AAt", "Libra", 207800, 29265, 211828, 303585, 1, 1),
    ("AAt", "Scanline", 210682, 30159, 210968, 303585, 0, 0),
    ("AAt", "SingleZOrder", 208141, 29864, 211716, 303585, 0, 0),
    (
        "AAt",
        "StaticSupertile4",
        209899,
        29988,
        213025,
        303585,
        0,
        0,
    ),
    ("AnB", "Hilbert", 51064, 5824, 46861, 53770, 0, 0),
    ("AnB", "Libra", 51650, 5840, 46618, 53770, 0, 0),
    ("AnB", "Scanline", 51697, 5871, 46758, 53770, 0, 0),
    ("AnB", "SingleZOrder", 51650, 5840, 46618, 53770, 0, 0),
    ("AnB", "StaticSupertile4", 53088, 5846, 48190, 53770, 0, 0),
    ("CCS", "Hilbert", 420563, 78651, 332176, 512077, 0, 0),
    ("CCS", "Libra", 420898, 78190, 332199, 512077, 1, 1),
    ("CCS", "Scanline", 427548, 80489, 332169, 512077, 0, 0),
    ("CCS", "SingleZOrder", 417348, 79147, 331999, 512077, 0, 0),
    (
        "CCS",
        "StaticSupertile4",
        434262,
        80313,
        332624,
        512077,
        0,
        0,
    ),
    ("GDL", "Hilbert", 80075, 6656, 57220, 68378, 0, 0),
    ("GDL", "Libra", 78747, 6722, 57673, 68378, 0, 0),
    ("GDL", "Scanline", 81029, 6773, 57493, 68378, 0, 0),
    ("GDL", "SingleZOrder", 78747, 6722, 57673, 68378, 0, 0),
    ("GDL", "StaticSupertile4", 78105, 6716, 59063, 68378, 0, 0),
    ("GrT", "Hilbert", 554120, 100374, 485012, 721166, 0, 0),
    ("GrT", "Libra", 545379, 98247, 485397, 721166, 1, 1),
    ("GrT", "Scanline", 556243, 101795, 485490, 721166, 0, 0),
    ("GrT", "SingleZOrder", 546284, 100435, 485673, 721166, 0, 0),
    (
        "GrT",
        "StaticSupertile4",
        557281,
        102296,
        485877,
        721166,
        0,
        0,
    ),
    ("SuS", "Hilbert", 274930, 41373, 292202, 417395, 0, 0),
    ("SuS", "Libra", 273679, 40877, 293320, 417395, 1, 1),
    ("SuS", "Scanline", 285090, 42328, 292220, 417395, 0, 0),
    ("SuS", "SingleZOrder", 275170, 41662, 292984, 417395, 0, 0),
    (
        "SuS",
        "StaticSupertile4",
        277310,
        41932,
        293278,
        417395,
        0,
        0,
    ),
];

const FRAMES: u32 = 2;

/// The benchmark's `paper-sweep` jobs at its resolution, where the raster front
/// end and the texture path carry the most work: AAt and AmU under LIBRA,
/// 2 RU × 4 cores, 960×544, 2 frames, campaign seed 0. One row per job:
/// (workload, total cycles, DRAM accesses, texture-L1 hits, texture-L1
/// accesses, texture requests, micro-events).
type SweepRow = (&'static str, u64, u64, u64, u64, u64, u64);

const PAPER_SWEEP_GOLDENS: &[SweepRow] = &[
    ("AAt", 716241, 155438, 862174, 1164527, 1164527, 248904),
    ("AmU", 562296, 118628, 659101, 868566, 868566, 224257),
];

/// Runs `paper-sweep`'s campaign job by job, the way `libra-sim campaign
/// --take 2 --frames 2 --seed 0` does, and returns one [`SweepRow`] per job.
fn measure_paper_sweep() -> Vec<(String, u64, u64, u64, u64, u64, u64)> {
    let spec = JobSpec { seed: 0, frames: FRAMES, take: Some(2), ..JobSpec::default() };
    let (cfg, campaign) = spec.to_campaign().expect("the paper-sweep spec is valid");
    assert_eq!((cfg.screen.width, cfg.screen.height), (960, 544));
    assert_eq!((cfg.num_raster_units, cfg.cores_per_ru), (2, 4));
    (0..campaign.len())
        .map(|job| {
            let r = campaign.run_one(job, &RunOptions::default());
            let s = r.stats().unwrap_or_else(|| panic!("{} failed: {:?}", r.abbrev, r.outcome));
            let sum = |f: fn(&FrameStats) -> u64| s.frames.iter().map(f).sum::<u64>();
            (
                r.abbrev.clone(),
                s.total_cycles(),
                s.total_dram_accesses(),
                sum(|f| f.texture_cache.hits),
                sum(|f| f.texture_cache.accesses),
                sum(|f| f.texture_requests),
                sum(|f| f.micro_events),
            )
        })
        .collect()
}

/// The benchmark's `scale-64ru` job: AAt under LIBRA at 64 RU × 8 cores,
/// 960×544, 2 frames, campaign seed 0. It pins what the cache tag store, the
/// MSHR files and the per-core fill buffers produce: (workload, total
/// cycles, DRAM accesses, texture-L1 hits, texture-L1 accesses, texture-L1
/// evictions, L2 hits, L2 evictions, texture fill lines, unique texture
/// lines, micro-events).
type ScaleRow = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

const SCALE_64RU_GOLDENS: &[ScaleRow] = &[
    ("AAt", 639484, 159699, 779698, 1164527, 160158, 308795, 63153, 384829, 91473, 249073),
];

/// Runs `scale-64ru`'s campaign job, the way `libra-sim campaign --rus 64
/// --cores 8 --take 1 --frames 2 --seed 0` does, and returns its [`ScaleRow`].
fn measure_scale_64ru() -> Vec<ScaleRow> {
    let spec =
        JobSpec { seed: 0, frames: FRAMES, take: Some(1), rus: 64, cores: 8, ..JobSpec::default() };
    let (cfg, campaign) = spec.to_campaign().expect("the scale-64ru spec is valid");
    assert_eq!((cfg.screen.width, cfg.screen.height), (960, 544));
    (0..campaign.len())
        .map(|job| {
            let r = campaign.run_one(job, &RunOptions::default());
            let s = r.stats().unwrap_or_else(|| panic!("{} failed: {:?}", r.abbrev, r.outcome));
            let sum = |f: fn(&FrameStats) -> u64| s.frames.iter().map(f).sum::<u64>();
            let title = suite().into_iter().find(|p| p.abbrev == r.abbrev).expect("a title");
            (
                title.abbrev,
                s.total_cycles(),
                s.total_dram_accesses(),
                sum(|f| f.texture_cache.hits),
                sum(|f| f.texture_cache.accesses),
                sum(|f| f.texture_cache.evictions),
                sum(|f| f.l2_cache.hits),
                sum(|f| f.l2_cache.evictions),
                sum(|f| f.texture_fill_lines),
                sum(|f| f.texture_unique_lines),
                sum(|f| f.micro_events),
            )
        })
        .collect()
}

/// The benchmark's `static-re` jobs, run as `libra-sim run T --frames 3
/// --mechanism re` runs them, on `run`'s default config (LIBRA, 2 RU × 4
/// cores, 960×544). CuT and LuL keep a static camera, so Rendering
/// Elimination discards most of their tiles and Early-Z sees the rest; FrF
/// and DoD scroll, so RE only hashes. One row per title: (title, total
/// cycles, fragments, warps, DRAM accesses, texture-L1 hits, texture-L1
/// accesses, micro-events, RE tiles discarded).
type StaticReRow = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64);

const STATIC_RE_GOLDENS: &[StaticReRow] = &[
    ("CuT", 233282, 950397, 30962, 52291, 234111, 253843, 98542, 812),
    ("FrF", 414368, 1815911, 58452, 105471, 466501, 500886, 182795, 0),
    ("LuL", 176312, 771422, 24857, 45035, 210241, 218135, 79096, 892),
    ("DoD", 432910, 1788522, 57336, 103905, 479473, 502931, 178873, 0),
];

/// Runs each `static-re` title the way `libra-sim run` does and returns one
/// [`StaticReRow`] per title.
fn measure_static_re() -> Vec<StaticReRow> {
    let spec = JobSpec { mechanism: "re".into(), frames: 3, ..JobSpec::default() };
    let cfg = spec.gpu_config().expect("`run`'s default config is valid");
    assert_eq!((cfg.screen.width, cfg.screen.height), (960, 544));
    assert_eq!((cfg.num_raster_units, cfg.cores_per_ru), (2, 4));
    let sched =
        tbr_sim::wire::parse_scheduler(&spec.scheduler).expect("the default scheduler parses");
    let mech = MechanismSpec::parse(&spec.mechanism).expect("`re` is a mechanism");
    STATIC_RE_GOLDENS
        .iter()
        .map(|row| {
            let p = suite().into_iter().find(|p| p.abbrev == row.0).expect("title is in the suite");
            let mut sim = GpuSimulator::with_mechanism(cfg.clone(), sched, mech);
            let s = sim.render_sequence(&p, spec.frames);
            let sum = |f: fn(&FrameStats) -> u64| s.frames.iter().map(f).sum::<u64>();
            let discarded = (0..spec.frames)
                .map(|f| {
                    let label = f.to_string();
                    let frame = [("frame", label.as_str())];
                    sim.metrics().counter_value("re_tiles_discarded", &frame).unwrap_or(0)
                })
                .sum();
            (
                row.0,
                s.total_cycles(),
                sum(|f| f.fragments),
                sum(|f| f.warps),
                s.total_dram_accesses(),
                sum(|f| f.texture_cache.hits),
                sum(|f| f.texture_cache.accesses),
                sum(|f| f.micro_events),
                discarded,
            )
        })
        .collect()
}

/// Scheduler variants under test, alphabetical by label (the table sort order).
fn kinds() -> [(&'static str, SchedulerKind); 5] {
    [
        ("Hilbert", SchedulerKind::Hilbert),
        ("Libra", SchedulerKind::Libra),
        ("Scanline", SchedulerKind::Scanline),
        ("SingleZOrder", SchedulerKind::SingleZOrder),
        ("StaticSupertile4", SchedulerKind::StaticSupertile(4)),
    ]
}

fn workloads() -> Vec<BenchmarkProfile> {
    let mut v: Vec<BenchmarkProfile> = suite()
        .into_iter()
        .filter(|p| WORKLOAD_ABBREVS.contains(&p.abbrev))
        .collect();
    v.sort_by(|a, b| a.abbrev.cmp(b.abbrev));
    v
}

/// Runs one (workload, scheduler) cell and returns the full golden tuple tail:
/// (cycles, dram, tex hits, tex accesses, order switches, supertile resizes).
///
/// `mode` pins the raster event-loop driver for the run (`None` uses the
/// default). Every driver must hit the *same* goldens — the table pins the
/// perf model, not the event-core implementation.
fn measure_with(
    p: &BenchmarkProfile,
    kind: SchedulerKind,
    mode: Option<(EventLoopMode, usize)>,
) -> (u64, u64, u64, u64, u64, u64) {
    if let Some((m, threads)) = mode {
        event_loop::set_mode(Some(m));
        event_loop::set_sim_threads(Some(threads));
    }
    let out = measure(p, kind);
    if mode.is_some() {
        event_loop::set_sim_threads(None);
        event_loop::set_mode(None);
    }
    out
}

fn measure(p: &BenchmarkProfile, kind: SchedulerKind) -> (u64, u64, u64, u64, u64, u64) {
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let mut sim = GpuSimulator::new(cfg, kind);
    let s = sim.render_sequence(p, FRAMES);
    let gauge = |name: &str, frame: u32| -> u64 {
        let label = frame.to_string();
        sim.metrics()
            .gauge_value(name, &[("frame", &label)])
            .unwrap_or_else(|| panic!("missing {name} gauge for frame {frame}")) as u64
    };
    let mut order_switches = 0;
    let mut supertile_resizes = 0;
    for f in 1..FRAMES {
        if gauge("plan_order_temperature", f) != gauge("plan_order_temperature", f - 1) {
            order_switches += 1;
        }
        if gauge("plan_supertile_size", f) != gauge("plan_supertile_size", f - 1) {
            supertile_resizes += 1;
        }
    }
    (
        s.total_cycles(),
        s.total_dram_accesses(),
        s.frames.iter().map(|f| f.texture_cache.hits).sum(),
        s.frames.iter().map(|f| f.texture_cache.accesses).sum(),
        order_switches,
        supertile_resizes,
    )
}

#[test]
fn golden_snapshots_hold_per_scheduler() {
    let profiles = workloads();
    assert_eq!(
        profiles.len(),
        6,
        "golden workloads must exist in the suite"
    );
    assert_eq!(
        GOLDENS.len(),
        profiles.len() * kinds().len(),
        "one golden row per cell"
    );
    let mut drifted = Vec::new();
    for p in &profiles {
        for (label, kind) in kinds() {
            let measured = measure(p, kind);
            let golden = GOLDENS
                .iter()
                .find(|g| g.0 == p.abbrev && g.1 == label)
                .unwrap_or_else(|| panic!("no golden row for {}/{label}", p.abbrev));
            if measured != (golden.2, golden.3, golden.4, golden.5, golden.6, golden.7) {
                let (cycles, dram, hits, accesses, switches, resizes) = measured;
                drifted.push(format!(
                    "{}/{label}: cycles {} (golden {}), dram {} (golden {}), \
                     tex-L1 {}/{} (golden {}/{}), order switches {} (golden {}), \
                     supertile resizes {} (golden {})",
                    p.abbrev,
                    cycles,
                    golden.2,
                    dram,
                    golden.3,
                    hits,
                    accesses,
                    golden.4,
                    golden.5,
                    switches,
                    golden.6,
                    resizes,
                    golden.7
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "perf model drifted from the pinned goldens — if intentional, regenerate the \
         table with `cargo test print_current_goldens -- --ignored --nocapture`:\n{}",
        drifted.join("\n")
    );
}

/// The six pinned workloads again, under the intra-frame parallel event core
/// (`--event-loop par --sim-threads 4`): the parallel driver must reproduce
/// the exact serial goldens — cycles, DRAM traffic, cache counters, and the
/// LIBRA feedback loop's decisions — at a worker count that actually spawns
/// threads. A drift *here* with `golden_snapshots_hold_per_scheduler` green
/// means the parallel driver broke bit-identity; fix the driver, never the
/// table.
#[test]
fn golden_snapshots_hold_under_the_parallel_core() {
    let profiles = workloads();
    let mut drifted = Vec::new();
    for p in &profiles {
        for (label, kind) in kinds() {
            let measured = measure_with(p, kind, Some((EventLoopMode::Par, 4)));
            let golden = GOLDENS
                .iter()
                .find(|g| g.0 == p.abbrev && g.1 == label)
                .unwrap_or_else(|| panic!("no golden row for {}/{label}", p.abbrev));
            if measured != (golden.2, golden.3, golden.4, golden.5, golden.6, golden.7) {
                drifted.push(format!(
                    "{}/{label}: par@4 measured {:?}",
                    p.abbrev, measured
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "the parallel event core drifted from the pinned serial goldens:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn paper_sweep_goldens_hold_at_benchmark_resolution() {
    let measured = measure_paper_sweep();
    let pinned: Vec<(String, u64, u64, u64, u64, u64, u64)> = PAPER_SWEEP_GOLDENS
        .iter()
        .map(|&(w, a, b, c, d, e, f)| (w.to_string(), a, b, c, d, e, f))
        .collect();
    assert_eq!(
        measured, pinned,
        "paper-sweep drifted from its pinned goldens (workload, cycles, dram, tex-L1 hits, \
         tex-L1 accesses, texture requests, micro-events) — if intentional, regenerate \
         with `cargo test print_current_goldens -- --ignored --nocapture`"
    );
}

#[test]
fn scale_64ru_goldens_hold_at_64_rus() {
    assert_eq!(
        measure_scale_64ru(),
        SCALE_64RU_GOLDENS,
        "scale-64ru drifted from its pinned goldens (workload, cycles, dram, tex-L1 hits, \
         tex-L1 accesses, tex-L1 evictions, L2 hits, L2 evictions, fill lines, unique lines, \
         micro-events) — if intentional, regenerate with \
         `cargo test print_current_goldens -- --ignored --nocapture`"
    );
}

#[test]
fn static_re_goldens_hold_on_the_run_path() {
    assert_eq!(
        measure_static_re(),
        STATIC_RE_GOLDENS,
        "static-re drifted from its pinned goldens (title, cycles, fragments, warps, dram, \
         tex-L1 hits, tex-L1 accesses, micro-events, RE tiles discarded) — if intentional, \
         regenerate with `cargo test print_current_goldens -- --ignored --nocapture`"
    );
}

#[test]
fn static_schedulers_never_replan() {
    // Only the LIBRA feedback loop may switch traversal order or resize
    // supertiles between frames; every other scheduler's plan is fixed.
    for g in GOLDENS {
        if g.1 != "Libra" {
            assert_eq!(
                (g.6, g.7),
                (0, 0),
                "{}/{} is a static scheduler but its goldens record plan changes",
                g.0,
                g.1
            );
        }
    }
}

#[test]
fn golden_hit_ratios_are_derived_consistently() {
    // The pinned hit/access integers imply the reported float hit ratio; guard the
    // derivation too so the ratio-reporting path can't silently change meaning.
    for g in GOLDENS {
        let expect = g.4 as f64 / g.5 as f64;
        assert!(
            (0.0..1.0).contains(&expect),
            "{}/{} ratio {expect} implausible",
            g.0,
            g.1
        );
    }
    let p = &workloads()[0];
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let s = simulate_sequence(&cfg, SchedulerKind::Libra, p, FRAMES);
    let golden = GOLDENS
        .iter()
        .find(|g| g.0 == p.abbrev && g.1 == "Libra")
        .unwrap();
    assert!(
        (s.texture_hit_ratio() - golden.4 as f64 / golden.5 as f64).abs() < 1e-9,
        "texture_hit_ratio() no longer equals hits/accesses"
    );
}

/// Regenerates the `GOLDENS` table in source form after an intentional model
/// change: `cargo test print_current_goldens -- --ignored --nocapture`.
/// Rows come out sorted by (workload, scheduler), matching the table above.
#[test]
#[ignore = "generator, not a check"]
fn print_current_goldens() {
    for p in &workloads() {
        for (label, kind) in kinds() {
            let (cycles, dram, hits, accesses, switches, resizes) = measure(p, kind);
            println!(
                "    ({:?}, {:?}, {cycles}, {dram}, {hits}, {accesses}, {switches}, {resizes}),",
                p.abbrev, label
            );
        }
    }
    for (w, cycles, dram, hits, accesses, requests, events) in measure_paper_sweep() {
        println!("    ({w:?}, {cycles}, {dram}, {hits}, {accesses}, {requests}, {events}),");
    }
    for row in measure_scale_64ru() {
        println!("    {row:?},");
    }
    for (w, cycles, frags, warps, dram, hits, accesses, events, discarded) in measure_static_re() {
        println!(
            "    ({w:?}, {cycles}, {frags}, {warps}, {dram}, {hits}, {accesses}, {events}, \
             {discarded}),"
        );
    }
}

//! The traced run (`--trace 1`): per-layer metrics of one workload.
//!
//! Layers inside the simulator are timed by the mirror ([`crate::mirror`]);
//! the CLI-facing layers are observed from outside: `campaign --profile`
//! CSVs, `--resume` from complete binary and JSON checkpoints, and the
//! timestamps of `submit`'s progress lines (taken by the pass wrapper).

use std::path::Path;
use std::time::Instant;

use tbr_common::config::{GpuConfig, ScreenConfig};
use tbr_common::mechanism::MechanismSpec;
use tbr_common::stats::FrameStats;
use tbr_sim::{Campaign, RunOptions, SchedulerKind};

use crate::mirror::{mirror_job, LayerTimes, Replays};
use crate::record::{def, Series};
use crate::stats::Summary;
use crate::workloads::{run_sim, Pass, Runner, Shape, Workload, STATIC_RE_TITLES};

/// CLI passes after the warm-up, for the medians of the observed metrics.
const PASSES: usize = 3;

/// The campaign a pass runs, rebuilt in-process; on `static-re` one holding
/// every title.
pub fn campaign(pass: &Pass) -> Campaign {
    let Shape { frames, jobs } = pass.shape;
    let (rus, cores) = if pass.workload == Workload::Scale64Ru {
        (64, 8)
    } else {
        (2, 4)
    };
    let mut cfg = GpuConfig::libra(ScreenConfig::quarter_fhd(), rus);
    cfg.cores_per_ru = cores;
    let suite = tbr_workloads::suite();
    if pass.workload == Workload::StaticRe {
        // `run` simulates the canonical profile: a campaign of seed 0.
        let re = MechanismSpec::parse("re").expect("`re` is a mechanism");
        let mut c = Campaign::new(0);
        for title in &STATIC_RE_TITLES[..jobs] {
            let p = suite
                .iter()
                .find(|p| p.abbrev == *title)
                .expect("title is in the suite");
            c.push_mech(&cfg, SchedulerKind::Libra, re, p.clone(), frames);
        }
        c
    } else {
        Campaign::grid(
            pass.seed,
            &cfg,
            &[SchedulerKind::Libra],
            &suite[..jobs],
            frames,
        )
    }
}

fn series(name: &str, value: f64) -> Series {
    Series {
        def: def(name),
        samples: vec![value],
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        Summary::of(&v).median
    }
}

/// Runs a side campaign (`args`, writing `report`) in `dir`, timed, and checks
/// that it exits 0 and writes the timed passes' report; tallied as one pass.
fn side_run(runner: &mut Runner, args: &[String], report: &str, dir: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let t = Instant::now();
    let exited_ok = run_sim(&runner.pass.sim, args, dir)?;
    let secs = t.elapsed().as_secs_f64();
    let want = runner.expected().and_then(<[_]>::first);
    let result = if !exited_ok {
        Err(format!("libra-sim {} failed", args.join(" ")))
    } else if std::fs::read(report).ok().as_ref() != want {
        Err(format!("{report} differs from the timed passes' report"))
    } else {
        Ok(secs)
    };
    runner.tally.record(runner.pass.shape.jobs, result.is_ok());
    result
}

/// Reads a column of `campaign --profile`'s CSVs as numbers.
fn csv_column(path: &Path, column: &str) -> Result<Vec<f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let col = header
        .split(',')
        .position(|h| h == column)
        .ok_or_else(|| format!("{}: no column {column}", path.display()))?;
    lines
        .map(|l| {
            l.split(',')
                .nth(col)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{}: bad row {l:?}", path.display()))
        })
        .collect()
}

/// The CLI-facing layers, observed from outside.
fn cli_layers(runner: &mut Runner, out: &mut Vec<Series>) -> Result<(), String> {
    let pass = runner.pass.clone();
    let side = pass.dir.with_extension("side");
    let spec = |extra: &[&str]| {
        let mut args = vec![
            "campaign".to_string(),
            "--threads".into(),
            pass.threads().into(),
        ];
        args.extend(pass.spec_args());
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    };
    let path = |name: &str| side.join(name).display().to_string();

    let (mut utilization, mut longest, mut steals) = (0.0, 0.0, 0.0);
    if matches!(pass.workload, Workload::PaperSweep | Workload::Scale64Ru) {
        let report = path("profiled.json");
        side_run(
            runner,
            &spec(&["--no-checkpoint", "--profile", "--report-json", &report]),
            &report,
            &side,
        )?;
        let csv = side.join("bench_results");
        let util = csv_column(&csv.join("campaign_workers.csv"), "utilization")?;
        utilization = util.iter().sum::<f64>() / util.len().max(1) as f64;
        longest = csv_column(&csv.join("campaign_jobs.csv"), "secs")?
            .into_iter()
            .fold(0.0, f64::max);
        steals = csv_column(&csv.join("campaign_workers.csv"), "steals")?
            .iter()
            .sum();
    }
    out.push(series("campaign.utilization", utilization));
    out.push(series("campaign.longest_job_s", longest));
    out.push(series("campaign.steals", steals));

    let (mut bin_bytes, mut json_bytes, mut resume, mut resume_json) = (0.0, 0.0, 0.0, 0.0);
    if pass.workload == Workload::PaperSweep {
        let bin = path("sweep.ckptb");
        std::fs::copy(pass.checkpoint(), &bin)
            .map_err(|e| format!("copying the checkpoint: {e}"))?;
        let json = path("sweep.ckpt");
        let report = path("json-ckpt.json");
        let args = spec(&[
            "--ckpt-format",
            "json",
            "--checkpoint",
            &json,
            "--report-json",
            &report,
        ]);
        side_run(runner, &args, &report, &side)?;
        let size = |p: &str| {
            std::fs::metadata(p)
                .map(|m| m.len() as f64)
                .map_err(|e| format!("{p}: {e}"))
        };
        (bin_bytes, json_bytes) = (size(&bin)?, size(&json)?);
        let report = path("resumed.json");
        resume = side_run(
            runner,
            &spec(&["--resume", &bin, "--report-json", &report]),
            &report,
            &side,
        )?;
        let report = path("resumed-json.json");
        resume_json = side_run(
            runner,
            &spec(&["--resume", &json, "--report-json", &report]),
            &report,
            &side,
        )?;
    }
    out.push(series("checkpoint.bytes", bin_bytes));
    out.push(series("checkpoint.json_bytes", json_bytes));
    out.push(series("checkpoint.resume_s", resume));
    out.push(series("checkpoint.resume_json_s", resume_json));
    Ok(())
}

/// Runs the traced measurements of one workload.
pub fn run(runner: &mut Runner) -> Result<Vec<Series>, String> {
    let pass = runner.pass.clone();
    let mut timings = Vec::new();
    let mut report_events = None;
    for _ in 0..=PASSES {
        if let Some(m) = runner.run(pass.shape.frames) {
            report_events = Some(m.micro_events);
            timings.push(m.timing);
        }
    }
    let report_events = report_events.ok_or("no CLI pass succeeded")?;
    let cpu_s = median(timings.iter().map(|t| t.cpu_ns as f64 / 1e9));

    let mut out = vec![series("proc.cpu_s", cpu_s)];
    cli_layers(runner, &mut out)?;
    let service = pass.workload == Workload::ServiceSweep;
    let crashes = if service {
        let log = std::fs::read_to_string(pass.dir.join("submit.out")).unwrap_or_default();
        log.lines()
            .find_map(|l| l.strip_prefix("submit: sweep absorbed "))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0)
    } else {
        0.0
    };
    let svc = |v: f64| if service { v } else { 0.0 };
    out.push(series(
        "service.first_result_s",
        svc(median(
            timings.iter().map(|t| t.first_result_ns as f64 / 1e9),
        )),
    ));
    out.push(series(
        "service.report_tail_s",
        svc(median(
            timings.iter().map(|t| t.report_tail_ns as f64 / 1e9),
        )),
    ));
    out.push(series(
        "service.report_bytes",
        svc(runner
            .expected()
            .map_or(0, |e| e.iter().map(Vec::len).sum::<usize>()) as f64),
    ));
    out.push(series("service.worker_crashes", crashes));

    // The mirror: every job, serially, checked against `Campaign::run_one`.
    let replays = Replays {
        tiles: true,
        par2: pass.workload == Workload::Scale64Ru,
    };
    let mut t = LayerTimes::new();
    let mut frames = Vec::new();
    let mut ok = true;
    let campaign = campaign(&pass);
    for i in 0..campaign.len() {
        let seq = mirror_job(
            &campaign.jobs()[i],
            campaign.effective_seed(i),
            replays,
            &mut t,
        );
        let reference = campaign.run_one(i, &RunOptions::default());
        ok &= reference.stats() == Some(&seq);
        frames.extend(seq.frames);
    }
    let sum = |f: &dyn Fn(&FrameStats) -> u64| frames.iter().map(f).sum::<u64>();
    let events = sum(&|f| f.micro_events);
    // The mirror must also have simulated what the CLI did.
    ok &= t.par2_agrees && events == report_events;
    if !ok {
        eprintln!(
            "{}: the traced mirror disagrees with the simulator; layer times are invalid",
            pass.workload.name()
        );
        runner.tally.record(pass.shape.jobs, false);
    }

    let raster = t.raster_ns as f64;
    out.extend([
        series("raster_unit.front_end_ns", t.front_end_ns as f64),
        series("raster_unit.warp_exec_ns", t.warp_exec_ns as f64),
        series(
            "hierarchy.l2_accesses",
            sum(&|f| f.l2_cache.accesses) as f64,
        ),
        series(
            "hierarchy.l2_hit_ratio",
            ratio(sum(&|f| f.l2_cache.hits), sum(&|f| f.l2_cache.accesses)),
        ),
        series("dram.reads", sum(&|f| f.dram.reads) as f64),
        series("dram.writes", sum(&|f| f.dram.writes) as f64),
        series(
            "dram.row_hit_ratio",
            ratio(
                sum(&|f| f.dram.row_hits),
                sum(&|f| f.dram.row_hits + f.dram.row_misses),
            ),
        ),
        series(
            "dram.avg_latency_cycles",
            ratio(
                sum(&|f| f.dram.latency_sum),
                sum(&|f| f.dram.total_accesses()),
            ),
        ),
        series(
            "raster_unit.texture_l1_hit_ratio",
            ratio(
                sum(&|f| f.texture_cache.hits),
                sum(&|f| f.texture_cache.accesses),
            ),
        ),
        series(
            "raster_unit.tile_cache_hit_ratio",
            ratio(sum(&|f| f.tile_cache.hits), sum(&|f| f.tile_cache.accesses)),
        ),
        series("raster_phase.ns", raster),
        series("raster_phase.events", t.raster_events as f64),
        series(
            "raster_phase.ns_per_event",
            ratio(t.raster_ns, t.raster_events),
        ),
        series(
            "raster_phase.residual_ns",
            raster - (t.front_end_ns + t.warp_exec_ns) as f64,
        ),
        series("event_loop.par2_ns", t.par2_ns as f64),
        series("event_loop.par2_over_heap", ratio(t.raster_ns, t.par2_ns)),
        series("signature.ns", t.signature_ns as f64),
        series("signature.tiles_checked", t.tiles_checked as f64),
        series("signature.tiles_discarded", t.tiles_discarded as f64),
        series(
            "signature.discard_ratio",
            ratio(t.tiles_discarded, t.tiles_checked),
        ),
        series("geometry_phase.ns", t.geometry_ns as f64),
        series("geometry_phase.events", t.geometry_events as f64),
        series(
            "geometry_phase.vertex_cache_hit_ratio",
            ratio(
                sum(&|f| f.vertex_cache.hits),
                sum(&|f| f.vertex_cache.accesses),
            ),
        ),
        series("workloads.scene_ns", t.scene_ns as f64),
        series("scheduler.plan_ns", t.plan_ns as f64),
        series(
            "scheduler.feedback_share",
            ratio(t.feedback_frames, t.frames),
        ),
        series(
            "scheduler.temperature_share",
            ratio(t.temperature_frames, t.frames),
        ),
        series("gpu.sim_cycles", sum(&|f| f.total_cycles()) as f64),
        series("gpu.micro_events", events as f64),
        series("stats.fragments", sum(&|f| f.fragments) as f64),
        series("stats.warps", sum(&|f| f.warps) as f64),
        series("stats.instructions", sum(&|f| f.instructions) as f64),
        series(
            "stats.texture_requests",
            sum(&|f| f.texture_requests) as f64,
        ),
        series("gpu.collect_ns", t.collect_ns as f64),
        series("trace.mirror_ns", t.main_path_ns() as f64),
        series(
            "trace.overhead_pct",
            (t.main_path_ns() as f64 / 1e9 - cpu_s) / cpu_s * 100.0,
        ),
        series("trace.mirror_ok", if ok { 1.0 } else { 0.0 }),
    ]);
    // Report in the order of the metric table.
    out.sort_by_key(|s| {
        crate::record::PER_LAYER
            .iter()
            .position(|d| d.name == s.def.name)
    });
    Ok(out)
}

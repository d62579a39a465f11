//! `libra-benchmark` — the repository's benchmark.
//!
//! It builds the release `libra-sim` and drives it the way users do
//! (`campaign`, `run`, `serve`/`submit`), in a closed loop with one pass at a
//! time, timing every pass from outside and checking every output. Run it
//! from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path libra-benchmark/Cargo.toml -- \
//!     --workload paper-sweep|scale-64ru|static-re|service-sweep|all \
//!     [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! cargo run --release --offline --manifest-path libra-benchmark/Cargo.toml -- \
//!     --compare PARENT.json CHANGE.json
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and the value of every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). The full record, with quartiles, samples
//! and provenance, goes to `$CARGO_TARGET_DIR/benchmark/` (default
//! `target/benchmark/`). See README.md for the workloads and metrics.

mod calibration;
mod mirror;
mod record;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use record::{def, Calibration, Provenance, Series, WorkloadResult};
use stats::Summary;
use workloads::{Measured, Pass, Runner, Shape, Workload};

const USAGE: &str = concat!(
    "usage: libra-benchmark --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] [--smoke]\n",
    "       libra-benchmark --compare PARENT.json CHANGE.json\n",
    "workloads: paper-sweep scale-64ru static-re service-sweep"
);

/// Timed passes per workload at the least; `--seconds` only adds passes.
const MIN_PASSES: usize = 10;
/// Set-up passes after each timed pass, run back to back. One `setup_s`
/// sample is the fastest of them: a set-up pass takes a few milliseconds,
/// and host interference only ever adds to that, in bursts that a mean of a
/// few passes still catches (one 20 ms pass among 2.3 ms ones).
const SETUPS_PER_PASS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 0,
        seconds: 28,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if o.smoke && o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    if o.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--pass") => return workloads::wrapper_main(&args[1..]),
        Some("--compare") => match &args[1..] {
            [parent, change] => record::compare(parent, change).map(|(table, any_worse)| {
                print!("{table}");
                !any_worse
            }),
            _ => Err("--compare takes PARENT.json CHANGE.json".into()),
        },
        _ => parse(&args).and_then(|o| run(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the release `libra-sim` in the repository and returns its path.
fn build_sim(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "libra-sim",
        ])
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err("building libra-sim failed".into());
    }
    Ok(target.join("release").join("libra-sim"))
}

fn run(o: &Opts) -> Result<bool, String> {
    if !Path::new("crates/sim/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/sim/Cargo.toml not found)".into());
    }
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let sim = build_sim(&target)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this benchmark: {e}"))?;
    let out_dir = target.join("benchmark");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let provenance = Provenance::capture(&sim)?;

    let measured = measure_all(o, &sim, &exe, &work);
    // Pass outputs are scratch; the record below is what a run leaves.
    let _ = std::fs::remove_dir_all(&work);
    let (results, calibration) = measured?;

    let label = match (o.smoke, &o.workloads[..]) {
        (true, _) => "smoke".to_string(),
        (false, [w]) => w.name().to_string(),
        _ => "all".to_string(),
    };
    let path = out_dir.join(format!(
        "{label}-seed{}{}.json",
        o.seed,
        if o.trace { "-trace" } else { "" }
    ));
    std::fs::write(
        &path,
        record::to_json(&provenance, o.seed, o.trace, calibration.as_ref(), &results),
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprint!("{}", record::render(&results));
    eprintln!("record written to {}", path.display());

    let failed: u64 = results.iter().map(|r| r.tally.failed).sum();
    let mirrors_ok = results
        .iter()
        .flat_map(|r| &r.metrics)
        .filter(|s| s.def.name == "trace.mirror_ok")
        .all(|s| s.samples == [1.0]);
    let correct = failed == 0 && mirrors_ok;
    println!("{}", record::summary_line(&results, correct));
    Ok(correct)
}

/// The run's results, and for a timed run its host-speed calibration.
fn measure_all(
    o: &Opts,
    sim: &Path,
    exe: &Path,
    work: &Path,
) -> Result<(Vec<WorkloadResult>, Option<Calibration>), String> {
    let mut runners = Vec::new();
    for &w in &o.workloads {
        let shape = if o.smoke {
            Shape { frames: 1, jobs: 2 }
        } else {
            w.shape()
        };
        let pass = Pass {
            workload: w,
            shape,
            seed: o.seed,
            sim: sim.into(),
            dir: work.join(w.name()),
        };
        runners.push(Runner::new(pass, exe)?);
    }
    if o.trace {
        let results = runners
            .iter_mut()
            .map(|r| {
                let metrics = trace::run(r)?;
                Ok(WorkloadResult {
                    name: r.pass.workload.name(),
                    tally: r.tally,
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok((results, None))
    } else if o.smoke {
        measure(&mut runners, 0, 0.0, 2)
    } else {
        measure(&mut runners, 1, o.seconds as f64, MIN_PASSES)
    }
}

/// One workload's raw samples: the steps of each timed pass in seconds, the
/// micro-events of a pass (every pass reports the same bytes), one set-up
/// time per round, and each timed pass's peak RSS in MB.
#[derive(Default)]
struct Raw {
    passes: Vec<Vec<f64>>,
    micro_events: u64,
    setup: Vec<f64>,
    rss_mb: Vec<f64>,
}

fn steps_s(m: &Measured) -> Vec<f64> {
    m.timing
        .steps_ns
        .iter()
        .map(|&ns| ns as f64 / 1e9)
        .collect()
}

/// The end-to-end measurement: warm-up passes, then timed passes round-robin
/// across the workloads (so host drift hits each alike) until `seconds` have
/// passed and each workload has `min_passes`. One calibration sample per step
/// precedes each timed pass, and [`SETUPS_PER_PASS`] set-up passes (`--frames 0`)
/// follow it and give one `setup_s` sample, the fastest of them step by step.
/// Timed passes are assembled step by step ([`stats::assemble`]), and every
/// time is scaled to the reference host speed (see [`calibration`]).
fn measure(
    runners: &mut [Runner],
    warmups: usize,
    seconds: f64,
    min_passes: usize,
) -> Result<(Vec<WorkloadResult>, Option<Calibration>), String> {
    for r in runners.iter_mut() {
        for _ in 0..warmups {
            r.run(r.pass.shape.frames);
        }
    }
    let mut raws: Vec<Raw> = runners.iter().map(|_| Raw::default()).collect();
    let mut calib = calibration::Kernel::new();
    let mut kernel_ns = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    // A round is not begun unless one more of average length ends in time.
    let more = |rounds: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / rounds.max(1) as f64 <= seconds
    };
    while rounds < min_passes || more(rounds) {
        for (r, raw) in runners.iter_mut().zip(&mut raws) {
            for _ in 0..r.pass.steps() {
                kernel_ns.push(calib.sample_ns());
            }
            if let Some(m) = r.run(r.pass.shape.frames) {
                raw.passes.push(steps_s(&m));
                raw.micro_events = m.micro_events;
                raw.rss_mb.push(m.timing.maxrss_kib as f64 * 1024.0 / 1e6);
            }
            let setups: Vec<Vec<f64>> = (0..SETUPS_PER_PASS)
                .filter_map(|_| r.run(0))
                .map(|m| steps_s(&m))
                .collect();
            if setups.len() == SETUPS_PER_PASS {
                raw.setup.push(stats::assemble(&setups)[0]);
            }
        }
        rounds += 1;
    }
    let factor = calibration::factor(&kernel_ns);
    let kernel = Summary::of(&kernel_ns);
    let host = Calibration {
        fastest_ns: kernel.min,
        median_ns: kernel.median,
        n: kernel.n,
        factor,
    };
    let mut results = Vec::new();
    for (r, raw) in runners.iter_mut().zip(raws) {
        let wall: Vec<f64> = stats::assemble(&raw.passes)
            .into_iter()
            .map(|s| s * factor)
            .collect();
        let per_event = wall
            .iter()
            .map(|s| s * 1e9 / raw.micro_events.max(1) as f64)
            .collect();
        let setup = raw.setup.iter().map(|s| s * factor).collect();
        let name = r.pass.workload.name();
        let metrics = [
            ("wall_s", wall),
            ("ns_per_event", per_event),
            ("setup_s", setup),
            ("peak_rss_mb", raw.rss_mb),
        ]
        .into_iter()
        .map(|(metric, samples)| {
            if samples.is_empty() {
                Err(format!(
                    "{name}: no pass succeeded, so {metric} has no sample"
                ))
            } else {
                Ok(Series {
                    def: def(metric),
                    samples,
                })
            }
        })
        .collect::<Result<_, String>>()?;
        results.push(WorkloadResult {
            name,
            tally: r.tally,
            metrics,
        });
    }
    Ok((results, Some(host)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args(
            "--workload scale-64ru --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            o,
            Opts {
                workloads: vec![Workload::Scale64Ru],
                seed: 7,
                seconds: 3,
                trace: true,
                smoke: false
            }
        );
        assert_eq!(
            parse(&args("--smoke")).unwrap().workloads,
            Workload::ALL.to_vec()
        );
        assert_eq!(parse(&args("--workload all")).unwrap().workloads.len(), 4);
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}

//! The four workloads, and one pass of each as users run it: `libra-sim`
//! processes spawned, waited for and timed from outside.
//!
//! A pass runs inside a fresh wrapper process (this binary with `--pass`), so
//! that `getrusage(RUSAGE_CHILDREN)` in the wrapper covers exactly the pass's
//! process tree: its peak RSS is the largest resident set of any process in
//! the tree (coordinator, workers and client included), and its CPU time is
//! the sum over all of them.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::record::Tally;
use crate::report;

/// `static-re`'s titles, ordered so that every prefix mixes RE's discard path
/// (CuT, LuL: static camera) with its hash-only path (FrF, DoD: scrolling).
pub const STATIC_RE_TITLES: [&str; 4] = ["CuT", "FrF", "LuL", "DoD"];

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's sweep on its first two (memory-intensive) titles, LIBRA,
    /// 2 RU x 4 cores, two campaign threads.
    PaperSweep,
    /// The 64 RU x 8 core scaling point on one title and thread: the event
    /// core's largest share.
    Scale64Ru,
    /// `run --mechanism re` on two static-camera and two scrolling titles.
    StaticRe,
    /// The same sweep as `PaperSweep` through `serve`/`submit`, on two worker processes.
    ServiceSweep,
}

/// How much work one pass does: simulated frames per job, and jobs (titles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub frames: u32,
    pub jobs: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Self::PaperSweep,
        Self::Scale64Ru,
        Self::StaticRe,
        Self::ServiceSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperSweep => "paper-sweep",
            Self::Scale64Ru => "scale-64ru",
            Self::StaticRe => "static-re",
            Self::ServiceSweep => "service-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed pass. Each step of it (a title on `static-re`, the whole
    /// pass on the others) takes a tenth to a third of a second on a 2-core
    /// host: on a shared host, interference comes and goes in spells of a
    /// fraction of a second to seconds, and only a short step fits inside a
    /// quiet one often enough for the fastest time of each step to be a
    /// quiet one.
    /// Every job runs at least two frames: LIBRA plans a job's first frame
    /// without feedback, in plain Z-order, and only later frames reach its
    /// temperature ranking and adaptive controller.
    pub fn shape(self) -> Shape {
        match self {
            // The first titles are memory-intensive; two of them keep two
            // threads (or workers) busy.
            Self::PaperSweep | Self::ServiceSweep => Shape { frames: 2, jobs: 2 },
            Self::Scale64Ru => Shape { frames: 2, jobs: 1 },
            Self::StaticRe => Shape {
                frames: 3,
                jobs: STATIC_RE_TITLES.len(),
            },
        }
    }
}

/// One pass: a workload at a shape and seed, writing its outputs into `dir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    pub sim: PathBuf,
    pub dir: PathBuf,
}

/// What the wrapper measured of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timing {
    /// Wall-clock of each step of the pass, from its first spawn to its last
    /// exit: one `run` process per title on `static-re`, the whole pass on
    /// the others.
    pub steps_ns: Vec<u64>,
    /// Peak resident set of the largest process in the pass's tree.
    pub maxrss_kib: u64,
    /// User + system CPU time of the whole tree.
    pub cpu_ns: u64,
    /// `service-sweep`: from the first spawn to the first `submit: job` line.
    pub first_result_ns: u64,
    /// `service-sweep`: from the last `submit: job` line to the last exit.
    pub report_tail_ns: u64,
}

/// A checked pass: its timing, the bytes of each of its reports (in step
/// order) and the micro-events they add up to.
#[derive(Debug, Clone)]
pub struct Measured {
    pub timing: Timing,
    pub reports: Vec<Vec<u8>>,
    pub micro_events: u64,
}

impl Pass {
    /// Timed steps in one pass: a `run` per title on `static-re`, one
    /// campaign or service round on the others.
    pub fn steps(&self) -> usize {
        match self.workload {
            Workload::StaticRe => self.shape.jobs,
            _ => 1,
        }
    }

    /// The campaign spec flags shared by `campaign` and `submit` (not `run`).
    pub fn spec_args(&self) -> Vec<String> {
        let Shape { frames, jobs } = self.shape;
        let mut args: Vec<String> = Vec::new();
        if self.workload == Workload::Scale64Ru {
            args.extend(["--rus", "64", "--cores", "8"].map(String::from));
        }
        args.extend([
            "--frames".into(),
            frames.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--take".into(),
            jobs.to_string(),
        ]);
        args
    }

    /// The binary checkpoint `paper-sweep`'s campaign writes.
    pub fn checkpoint(&self) -> PathBuf {
        self.dir.join("sweep.ckptb")
    }

    /// Campaign threads of the in-process sweeps (one job at a time on
    /// `scale-64ru`, so the second core is left to the event core).
    pub fn threads(&self) -> &'static str {
        if self.workload == Workload::Scale64Ru {
            "1"
        } else {
            "2"
        }
    }

    fn report(&self, tag: &str) -> String {
        self.dir
            .join(format!("report{tag}.json"))
            .display()
            .to_string()
    }

    fn sim(&self, args: &[String], stdout: Stdio) -> Result<Child, String> {
        Command::new(&self.sim)
            .args(args)
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(stdout)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.sim.display()))
    }

    fn log(&self, name: &str) -> Result<std::fs::File, String> {
        std::fs::File::create(self.dir.join(name)).map_err(|e| format!("creating {name}: {e}"))
    }

    /// The report files a pass leaves, one per step, in step order.
    pub fn report_paths(&self) -> Vec<String> {
        match self.workload {
            Workload::StaticRe => STATIC_RE_TITLES[..self.shape.jobs]
                .iter()
                .map(|t| self.report(&format!("-{t}")))
                .collect(),
            _ => vec![self.report("")],
        }
    }

    /// Runs the pass's processes and times each step (the wrapper's job).
    fn run(&self) -> Result<Timing, String> {
        let mut timing = Timing::default();
        match self.workload {
            Workload::PaperSweep | Workload::Scale64Ru => {
                let mut args = vec![
                    "campaign".to_string(),
                    "--threads".into(),
                    self.threads().into(),
                ];
                args.extend(self.spec_args());
                if self.workload == Workload::PaperSweep {
                    args.extend([
                        "--checkpoint".into(),
                        self.checkpoint().display().to_string(),
                    ]);
                } else {
                    args.push("--no-checkpoint".into());
                }
                args.extend(["--report-json".into(), self.report("")]);
                let log = self.log("campaign.out")?;
                let step = Instant::now();
                let child = self.sim(&args, log.into())?;
                wait_ok(child, "campaign")?;
                timing.steps_ns.push(step.elapsed().as_nanos() as u64);
            }
            Workload::StaticRe => {
                for (title, report) in STATIC_RE_TITLES.iter().zip(self.report_paths()) {
                    let frames = self.shape.frames.to_string();
                    let args = [
                        "run",
                        title,
                        "--frames",
                        &frames,
                        "--mechanism",
                        "re",
                        "--report-json",
                        &report,
                    ]
                    .map(String::from);
                    let log = self.log(&format!("run-{title}.out"))?;
                    let step = Instant::now();
                    let child = self.sim(&args, log.into())?;
                    wait_ok(child, &format!("run {title}"))?;
                    timing.steps_ns.push(step.elapsed().as_nanos() as u64);
                }
            }
            Workload::ServiceSweep => {
                let start = Instant::now();
                let (first, last) = self.service_round(start)?;
                let end = start.elapsed();
                timing.steps_ns.push(end.as_nanos() as u64);
                timing.first_result_ns = first.unwrap_or(end).as_nanos() as u64;
                timing.report_tail_ns = (end - last.unwrap_or(end)).as_nanos() as u64;
            }
        }
        Ok(timing)
    }

    /// `service-sweep`'s `serve --once` + `submit` round: the times since
    /// `start` of the first and the last `submit: job` line.
    fn service_round(
        &self,
        start: Instant,
    ) -> Result<(Option<Duration>, Option<Duration>), String> {
        // `serve` lives inside the scope, so an early error kills it before
        // the scope joins the thread draining its output.
        std::thread::scope(|scope| {
            let args =
                ["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--once"].map(String::from);
            let mut serve = Reaped(Some(self.sim(&args, Stdio::piped())?));
            let mut lines = BufReader::new(serve.child().stdout.take().ok_or("serve: no stdout")?);
            let mut line = String::new();
            lines
                .read_line(&mut line)
                .map_err(|e| format!("reading serve output: {e}"))?;
            let addr = line
                .strip_prefix("serve: listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .ok_or_else(|| format!("serve did not report its address: {line:?}"))?
                .to_string();
            let mut serve_log = self.log("serve.out")?;
            let drain = scope.spawn(move || std::io::copy(&mut lines, &mut serve_log));

            let mut args = vec!["submit".to_string(), "--addr".into(), addr];
            args.extend(self.spec_args());
            args.extend(["--report-json".into(), self.report("")]);
            let mut submit = Reaped(Some(self.sim(&args, Stdio::piped())?));
            let out = submit.child().stdout.take().ok_or("submit: no stdout")?;
            let mut log = self.log("submit.out")?;
            let (mut first, mut last) = (None, None);
            for line in BufReader::new(out).lines() {
                let line = line.map_err(|e| format!("reading submit output: {e}"))?;
                if line.starts_with("submit: job ") {
                    let now = start.elapsed();
                    first.get_or_insert(now);
                    last = Some(now);
                }
                writeln!(log, "{line}").map_err(|e| format!("writing submit.out: {e}"))?;
            }
            wait_ok(submit.take(), "submit")?;
            wait_ok(serve.take(), "serve")?;
            drain
                .join()
                .map_err(|_| "serve output drain panicked".to_string())?
                .map_err(|e| format!("copying serve output: {e}"))?;
            Ok((first, last))
        })
    }

    /// Checks the outputs a pass left in `dir`: every process reported N/N
    /// jobs, every report has every job and frame, and cache counters add up.
    fn check(&self) -> Result<(Vec<Vec<u8>>, u64), String> {
        let Shape { frames, jobs } = self.shape;
        let done = match self.workload {
            Workload::PaperSweep | Workload::Scale64Ru => {
                Some(("campaign", format!("campaign done: {jobs}/{jobs} jobs")))
            }
            Workload::ServiceSweep => Some(("submit", format!("submit: {jobs} jobs done"))),
            Workload::StaticRe => None,
        };
        if let Some((process, want)) = done {
            let log = format!("{process}.out");
            let text = std::fs::read_to_string(self.dir.join(&log))
                .map_err(|e| format!("reading {log}: {e}"))?;
            if !text.lines().any(|l| l.starts_with(&want)) {
                return Err(format!("{log} does not report `{want}`"));
            }
        }
        let jobs_per_report = if self.workload == Workload::StaticRe {
            1
        } else {
            jobs
        };
        let mut reports = Vec::new();
        let mut events = 0;
        for path in self.report_paths() {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let s = report::read(&text).map_err(|e| format!("{path}: {e}"))?;
            let want_jobs = if frames == 0 { 0 } else { jobs_per_report };
            if s.jobs != want_jobs || s.frames != jobs_per_report * frames as usize {
                return Err(format!(
                    "{path}: {} jobs / {} job-frames, expected {want_jobs} / {}",
                    s.jobs,
                    s.frames,
                    jobs_per_report * frames as usize
                ));
            }
            events += s.micro_events;
            reports.push(text.into_bytes());
        }
        Ok((reports, events))
    }

    fn to_args(&self) -> Vec<String> {
        vec![
            self.workload.name().into(),
            self.shape.frames.to_string(),
            self.shape.jobs.to_string(),
            self.seed.to_string(),
            self.sim.display().to_string(),
            self.dir.display().to_string(),
        ]
    }

    fn from_args(args: &[String]) -> Result<Self, String> {
        let [w, frames, jobs, seed, sim, dir] = args else {
            return Err(format!("--pass takes 6 arguments, got {}", args.len()));
        };
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("--pass {s}: {e}"));
        Ok(Self {
            workload: Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))?,
            shape: Shape {
                frames: num(frames)? as u32,
                jobs: num(jobs)? as usize,
            },
            seed: num(seed)?,
            sim: sim.into(),
            dir: dir.into(),
        })
    }

    /// Runs the pass in a fresh wrapper process (`exe --pass …`), then checks
    /// its outputs. `dir` is emptied first so no stale report can pass a check.
    pub fn execute(&self, exe: &Path) -> Result<Measured, String> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)
                .map_err(|e| format!("clearing {}: {e}", self.dir.display()))?;
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        let out = Command::new(exe)
            .arg("--pass")
            .args(self.to_args())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning the pass wrapper: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or("");
        if !out.status.success() {
            return Err(format!("wrapper exited with {}: {line}", out.status));
        }
        let timing = parse_timing(line)?;
        let (reports, micro_events) = self.check()?;
        Ok(Measured {
            timing,
            reports,
            micro_events,
        })
    }
}

/// Runs one workload's passes with every output check, tallying operations.
pub struct Runner {
    pub pass: Pass,
    exe: PathBuf,
    /// Report bytes every pass must reproduce, one report per step: the first
    /// pass's, or for `service-sweep` that of an in-process `campaign` of the
    /// same spec.
    expected: Option<Vec<Vec<u8>>>,
    pub tally: Tally,
}

impl Runner {
    /// Prepares a runner; for `service-sweep` this runs the untimed reference
    /// campaign the service's report must equal byte for byte.
    pub fn new(pass: Pass, exe: &Path) -> Result<Self, String> {
        let mut runner = Self {
            pass,
            exe: exe.to_path_buf(),
            expected: None,
            tally: Tally::default(),
        };
        if runner.pass.workload == Workload::ServiceSweep {
            let path = runner.pass.dir.with_extension("reference.json");
            let mut args = vec!["campaign".to_string(), "--threads".into(), "2".into()];
            args.extend(runner.pass.spec_args());
            args.extend([
                "--no-checkpoint".into(),
                "--report-json".into(),
                path.display().to_string(),
            ]);
            let ok = run_sim(&runner.pass.sim, &args, Path::new("."))?;
            runner.tally.record(runner.pass.shape.jobs, ok);
            if !ok {
                return Err("the service-sweep reference campaign failed".into());
            }
            let report =
                std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            runner.expected = Some(vec![report]);
        }
        Ok(runner)
    }

    /// Runs one pass of `shape` (the timed shape, or `frames: 0` for set-up)
    /// with every check. A failure is reported on stderr, tallied against all
    /// of the pass's jobs, and returns `None`.
    pub fn run(&mut self, frames: u32) -> Option<Measured> {
        let pass = Pass {
            shape: Shape {
                frames,
                ..self.pass.shape
            },
            ..self.pass.clone()
        };
        let result = pass.execute(&self.exe).and_then(|m| {
            if frames == 0 {
                return Ok(m);
            }
            match &self.expected {
                Some(want) if *want != m.reports => {
                    Err("report bytes differ from the first pass (or the service reference)".into())
                }
                Some(_) => Ok(m),
                None => {
                    self.expected = Some(m.reports.clone());
                    Ok(m)
                }
            }
        });
        self.tally.record(pass.shape.jobs, result.is_ok());
        result
            .map_err(|e| eprintln!("{} pass failed: {e}", pass.workload.name()))
            .ok()
    }

    /// The report bytes every pass reproduces, one report per step, once one
    /// pass has run.
    pub fn expected(&self) -> Option<&[Vec<u8>]> {
        self.expected.as_deref()
    }
}

/// Runs `libra-sim` to completion in `dir` with stdout discarded; whether it
/// exited 0.
pub fn run_sim(sim: &Path, args: &[String], dir: &Path) -> Result<bool, String> {
    Command::new(sim)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map(|s| s.success())
        .map_err(|e| format!("spawning {}: {e}", sim.display()))
}

/// A child that is killed and reaped if it is dropped before being waited for,
/// so an error part-way through a pass leaves no process behind.
struct Reaped(Option<Child>);

impl Reaped {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child not yet taken")
    }

    fn take(&mut self) -> Child {
        self.0.take().expect("child not yet taken")
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn wait_ok(mut child: Child, what: &str) -> Result<(), String> {
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {what}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{what} exited with {status}"))
    }
}

/// The wrapper line's fields after `steps_ns`, which is a comma-separated list.
const TIMING_FIELDS: [&str; 4] = ["maxrss_kib", "cpu_ns", "first_result_ns", "report_tail_ns"];

fn format_timing(t: &Timing) -> String {
    let steps: Vec<String> = t.steps_ns.iter().map(u64::to_string).collect();
    let values = [t.maxrss_kib, t.cpu_ns, t.first_result_ns, t.report_tail_ns];
    let fields: Vec<String> = TIMING_FIELDS
        .iter()
        .zip(values)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("pass steps_ns={} {}", steps.join(","), fields.join(" "))
}

fn parse_timing(line: &str) -> Result<Timing, String> {
    let bad = || format!("unexpected wrapper output {line:?}");
    let mut fields = line.strip_prefix("pass ").ok_or_else(bad)?.split(' ');
    let steps_ns = fields
        .next()
        .and_then(|f| f.strip_prefix("steps_ns="))
        .and_then(|v| {
            v.split(',')
                .map(|s| s.parse().ok())
                .collect::<Option<Vec<u64>>>()
        })
        .ok_or_else(bad)?;
    let fields: Vec<&str> = fields.collect();
    let mut values = [0u64; 4];
    if fields.len() != values.len() {
        return Err(bad());
    }
    for (field, (key, slot)) in fields
        .into_iter()
        .zip(TIMING_FIELDS.iter().zip(&mut values))
    {
        *slot = field
            .strip_prefix(key)
            .and_then(|v| v.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unexpected wrapper field {field:?}"))?;
    }
    let [maxrss_kib, cpu_ns, first_result_ns, report_tail_ns] = values;
    Ok(Timing {
        steps_ns,
        maxrss_kib,
        cpu_ns,
        first_result_ns,
        report_tail_ns,
    })
}

/// Entry point of the wrapper process: runs one pass, then prints its timing
/// and its process tree's resource usage as the last line of stdout.
pub fn wrapper_main(args: &[String]) -> ExitCode {
    let result = Pass::from_args(args).and_then(|pass| {
        let mut timing = pass.run()?;
        let (maxrss_kib, cpu_ns) = children_usage()?;
        timing.maxrss_kib = maxrss_kib;
        timing.cpu_ns = cpu_ns;
        Ok(timing)
    });
    match result {
        Ok(t) => {
            println!("{}", format_timing(&t));
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_CHILDREN: i32 = -1;

    /// `(peak RSS in KiB, user + system CPU in ns)` of every waited-for child.
    pub fn children_usage() -> Result<(u64, u64), String> {
        let zero = || Timeval { sec: 0, usec: 0 };
        let mut ru = Rusage {
            utime: zero(),
            stime: zero(),
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `Rusage` has the layout of 64-bit Linux's `struct rusage`
        // (this module only compiles there), so getrusage writes within the
        // initialised struct it is handed, and nothing else holds it.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
        if rc != 0 {
            return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
        }
        let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
        Ok((ru.maxrss as u64, ns(&ru.utime) + ns(&ru.stime)))
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
use rusage::children_usage;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_usage() -> Result<(u64, u64), String> {
    Err("peak RSS is read with getrusage, bound here for 64-bit Linux only".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_line_round_trips() {
        for steps_ns in [vec![1], vec![10, 20, 30, 40]] {
            let t = Timing {
                steps_ns,
                maxrss_kib: 22,
                cpu_ns: 333,
                first_result_ns: 4,
                report_tail_ns: 55,
            };
            assert_eq!(parse_timing(&format_timing(&t)), Ok(t));
        }
        assert!(parse_timing("pass steps_ns=x").is_err());
        assert!(parse_timing("pass steps_ns=1,").is_err());
        assert!(parse_timing("pass steps_ns=1").is_err(), "a truncated line");
        assert!(parse_timing("error: boom").is_err());
    }

    #[test]
    fn pass_arguments_round_trip() {
        for workload in Workload::ALL {
            let pass = Pass {
                workload,
                shape: workload.shape(),
                seed: 7,
                sim: "target/release/libra-sim".into(),
                dir: "target/benchmark/x".into(),
            };
            assert_eq!(Pass::from_args(&pass.to_args()), Ok(pass.clone()));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert_eq!(pass.report_paths().len(), pass.steps());
        }
    }

    #[test]
    fn children_usage_reports_a_waited_child() {
        let status = Command::new("true").status().expect("spawn true");
        assert!(status.success());
        let (rss, _) = children_usage().expect("getrusage");
        assert!(rss > 0);
    }
}

//! `libra-wire-v1` — the campaign service's message vocabulary.
//!
//! The campaign service speaks newline-delimited JSON frames over two
//! transports: TCP between `libra-sim submit` clients and the `libra-sim
//! serve` coordinator, and stdio pipes between the coordinator and its
//! `libra-sim worker` child processes. [`tbr_common::wire`] owns the framing
//! (atomic writes, length-capped reads); this module owns what a frame *says*.
//!
//! Every frame is one JSON object with a mandatory `"v": "libra-wire-v1"`
//! version stamp and a `"type"` tag. Decoding rejects unknown versions and
//! unknown tags outright — a v2 endpoint can therefore change anything as long
//! as it bumps the version string, and a v1 endpoint will fail loudly rather
//! than mis-parse. The same conventions as the checkpoint schema apply on top:
//!
//! * 64-bit values (seeds, campaign fingerprints) travel as `"0x…"` hex
//!   **strings**, never JSON numbers, because the in-repo parser holds numbers
//!   as `f64` and would silently round above 2⁵³.
//! * Job results embed a [`CampaignResult`] as the JSON checkpoint's record
//!   object, so a wire result and a checkpoint line are interchangeable: the
//!   coordinator checks both through [`Campaign::adopt_record`], and crash
//!   recovery replays a dead worker's checkpointed records with no
//!   translation step.
//!
//! A [`JobSpec`] names a campaign *constructively* (seed, scheduler, screen,
//! frame count, suite truncation) rather than shipping the job list itself:
//! coordinator and client each rebuild the [`Campaign`] locally and compare
//! [`Campaign::fingerprint`]s, so a version skew that changes the sweep is
//! caught at submit time instead of surfacing as a corrupt report.

use libra::scheduler::SchedulerKind;
use tbr_common::config::{GpuConfig, ScreenConfig};
use tbr_common::hostprof::HostMeta;
use tbr_common::json::{
    self, escape_into, field, field_hex, field_str, field_u32, field_u64, Value,
};
use tbr_common::mechanism::MechanismSpec;
use tbr_workloads::suite;

use crate::campaign::{Campaign, CampaignResult};

/// Protocol version stamped into (and demanded of) every frame.
pub const WIRE_VERSION: &str = "libra-wire-v1";

/// Parses the CLI/wire scheduler name shared by `libra-sim` and [`JobSpec`].
pub fn parse_scheduler(s: &str) -> Result<SchedulerKind, String> {
    Ok(match s {
        "z" | "zorder" => SchedulerKind::SingleZOrder,
        "scanline" => SchedulerKind::Scanline,
        "hilbert" => SchedulerKind::Hilbert,
        "static2" => SchedulerKind::StaticSupertile(2),
        "static4" => SchedulerKind::StaticSupertile(4),
        "static8" => SchedulerKind::StaticSupertile(8),
        "static16" => SchedulerKind::StaticSupertile(16),
        "libra" => SchedulerKind::Libra,
        other => return Err(format!("unknown scheduler `{other}`")),
    })
}

/// A constructive description of one campaign sweep: everything needed to
/// rebuild the identical [`Campaign`] on any endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Campaign seed (job seeds are position-derived from it).
    pub seed: u64,
    /// Scheduler name in [`parse_scheduler`] vocabulary.
    pub scheduler: String,
    /// Mechanism axis in [`MechanismSpec::parse`] vocabulary (`none`, `re`,
    /// `wasp`, `re-oracle`, `+` combinations). Backward-compat rule: the wire
    /// field is omitted when `none`, and a payload without the field decodes
    /// to `none` — pre-mechanism endpoints and payloads stay interoperable.
    pub mechanism: String,
    /// Frames rendered per job.
    pub frames: u32,
    /// Raster Units in the simulated GPU.
    pub rus: usize,
    /// Shader cores per Raster Unit.
    pub cores: usize,
    /// Screen preset: `tiny`, `quarter` or `fhd`.
    pub screen: String,
    /// Model a perfect memory system (isolates scheduling effects).
    pub ideal_memory: bool,
    /// Truncate the workload suite to its first N profiles (`None` = all 32).
    pub take: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            scheduler: "libra".into(),
            mechanism: "none".into(),
            frames: 6,
            rus: 2,
            cores: 4,
            screen: "quarter".into(),
            ideal_memory: false,
            take: None,
        }
    }
}

impl JobSpec {
    /// The GPU configuration this spec names: the LIBRA preset on its screen
    /// with the `rus`, `cores` and `ideal_memory` overrides. It is validated,
    /// so an impossible shape is refused before anything is simulated.
    pub fn gpu_config(&self) -> Result<GpuConfig, String> {
        let screen = match self.screen.as_str() {
            "tiny" => ScreenConfig::tiny(),
            "quarter" => ScreenConfig::quarter_fhd(),
            "fhd" => ScreenConfig::fhd(),
            other => return Err(format!("unknown screen preset `{other}` (tiny|quarter|fhd)")),
        };
        let mut cfg = GpuConfig::libra(screen, self.rus);
        cfg.cores_per_ru = self.cores;
        cfg.ideal_memory = self.ideal_memory;
        cfg.validate()
            .map_err(|e| format!("job spec (rus {}, cores {}): {e}", self.rus, self.cores))?;
        Ok(cfg)
    }

    /// Rebuilds the GPU configuration and [`Campaign`] this spec names: one
    /// job per workload under one scheduler on [`gpu_config`](Self::gpu_config).
    /// `libra-sim campaign`, `serve` and `submit` all build their sweep here,
    /// so a sharded service run and a single-process sweep construct
    /// fingerprint-identical campaigns.
    pub fn to_campaign(&self) -> Result<(GpuConfig, Campaign), String> {
        let sched = parse_scheduler(&self.scheduler)?;
        let mech = MechanismSpec::parse(&self.mechanism).map_err(|e| format!("job spec: {e}"))?;
        let cfg = self.gpu_config()?;
        let mut profiles = suite();
        if let Some(n) = self.take {
            if n == 0 {
                return Err("job spec: `take` must be >= 1".into());
            }
            profiles.truncate(n);
        }
        let campaign = Campaign::grid_mech(self.seed, &cfg, &[sched], mech, &profiles, self.frames);
        Ok((cfg, campaign))
    }

    fn json_object(&self) -> String {
        let mut out = format!(
            "{{\"seed\": \"{:#x}\", \"scheduler\": \"{}\", \"frames\": {}, \"rus\": {}, \
             \"cores\": {}, \"screen\": \"{}\", \"ideal_memory\": {}",
            self.seed, self.scheduler, self.frames, self.rus, self.cores, self.screen,
            self.ideal_memory
        );
        if let Some(n) = self.take {
            out.push_str(&format!(", \"take\": {n}"));
        }
        // Omitted when default so pre-mechanism endpoints keep decoding (and
        // fingerprint-checking) default payloads byte-identically.
        if self.mechanism != "none" {
            out.push_str(&format!(", \"mechanism\": {}", quoted(&self.mechanism)));
        }
        out.push('}');
        out
    }

    fn from_value(v: &Value, what: &str) -> Result<Self, String> {
        let take = match v.get("take") {
            None => None,
            Some(t) => Some(
                t.as_u64()
                    .ok_or_else(|| format!("{what}.take: expected an exact integer"))?
                    as usize,
            ),
        };
        let mechanism = match v.get("mechanism") {
            None => "none".to_string(), // pre-mechanism payload: default axis
            Some(m) => m
                .as_str()
                .ok_or_else(|| format!("{what}.mechanism: expected a string"))?
                .to_string(),
        };
        Ok(Self {
            seed: field_hex(v, "seed", what)?,
            scheduler: field_str(v, "scheduler", what)?.to_string(),
            mechanism,
            frames: field_u32(v, "frames", what)?,
            rus: field_u64(v, "rus", what)? as usize,
            cores: field_u64(v, "cores", what)? as usize,
            screen: field_str(v, "screen", what)?.to_string(),
            ideal_memory: field(v, "ideal_memory", what)?
                .as_bool()
                .ok_or_else(|| format!("{what}.ideal_memory: expected a boolean"))?,
            take,
        })
    }
}

/// One `libra-wire-v1` frame, in either direction, on either transport.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First frame each endpoint sends: who it is, on which host.
    Hello {
        /// `"coordinator"`, `"worker"` or `"client"`.
        role: String,
        /// Host stamp of the sender (feeds multi-host attribution).
        host: HostMeta,
    },
    /// Client → coordinator: run this sweep.
    Submit {
        /// The campaign to run.
        spec: JobSpec,
    },
    /// Coordinator → client: sweep accepted, identity confirmed.
    Accepted {
        /// Number of jobs in the rebuilt campaign.
        jobs: usize,
        /// [`Campaign::fingerprint`] of the rebuilt campaign.
        fingerprint: u64,
    },
    /// Coordinator → client: one job finished somewhere in the shard pool.
    Progress {
        /// Campaign position of the finished job.
        job: usize,
        /// Jobs finished so far (including this one).
        done: usize,
        /// Total jobs in the sweep.
        total: usize,
        /// Workload abbreviation of the finished job.
        abbrev: String,
        /// Scheduler name of the finished job.
        scheduler: String,
        /// Whether the job succeeded (`false`: failed or timed out).
        ok: bool,
    },
    /// Coordinator → client: the sweep's final, deterministic report.
    Report {
        /// Fingerprint again, so a client can re-check against [`Accepted`](Message::Accepted).
        fingerprint: u64,
        /// Human-readable one-line summary.
        summary: String,
        /// Worker processes that died and were respawned during the sweep.
        crashes: usize,
        /// One stamp per contributing worker, in worker order.
        hosts: Vec<HostMeta>,
        /// The full `libra-metrics-v1` report — byte-identical to
        /// `libra-sim campaign --report-json` for the same spec.
        report_json: String,
    },
    /// Either direction: structured failure; the connection closes after it.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Coordinator → worker: run this campaign position.
    Assign {
        /// Campaign position to run.
        job: usize,
        /// The sweep the position indexes into (sent with every assignment so
        /// workers stay stateless between jobs).
        spec: JobSpec,
    },
    /// Worker → coordinator: a finished job, as a checkpoint record.
    JobResult {
        /// The result (checked by the coordinator through
        /// `Campaign::adopt_record`).
        record: CampaignResult,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

fn hosts_array(hosts: &[HostMeta]) -> String {
    let items: Vec<String> = hosts.iter().map(HostMeta::json_object).collect();
    format!("[{}]", items.join(", "))
}

impl Message {
    /// The frame's `"type"` tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Submit { .. } => "submit",
            Message::Accepted { .. } => "accepted",
            Message::Progress { .. } => "progress",
            Message::Report { .. } => "report",
            Message::Error { .. } => "error",
            Message::Assign { .. } => "assign",
            Message::JobResult { .. } => "result",
            Message::Shutdown => "shutdown",
        }
    }

    /// Encodes the message as one JSON line (no trailing newline — framing is
    /// [`tbr_common::wire`]'s job).
    pub fn encode(&self) -> String {
        let mut out = format!("{{\"v\": \"{WIRE_VERSION}\", \"type\": \"{}\"", self.tag());
        match self {
            Message::Hello { role, host } => {
                out.push_str(&format!(
                    ", \"role\": {}, \"host\": {}",
                    quoted(role),
                    host.json_object()
                ));
            }
            Message::Submit { spec } => {
                out.push_str(&format!(", \"spec\": {}", spec.json_object()));
            }
            Message::Accepted { jobs, fingerprint } => {
                out.push_str(&format!(
                    ", \"jobs\": {jobs}, \"fingerprint\": \"{fingerprint:#x}\""
                ));
            }
            Message::Progress { job, done, total, abbrev, scheduler, ok } => {
                out.push_str(&format!(
                    ", \"job\": {job}, \"done\": {done}, \"total\": {total}, \
                     \"abbrev\": {}, \"scheduler\": {}, \"ok\": {ok}",
                    quoted(abbrev),
                    quoted(scheduler)
                ));
            }
            Message::Report { fingerprint, summary, crashes, hosts, report_json } => {
                out.push_str(&format!(
                    ", \"fingerprint\": \"{fingerprint:#x}\", \"summary\": {}, \
                     \"crashes\": {crashes}, \"hosts\": {}, \"report_json\": {}",
                    quoted(summary),
                    hosts_array(hosts),
                    quoted(report_json)
                ));
            }
            Message::Error { message } => {
                out.push_str(&format!(", \"message\": {}", quoted(message)));
            }
            Message::Assign { job, spec } => {
                out.push_str(&format!(", \"job\": {job}, \"spec\": {}", spec.json_object()));
            }
            Message::JobResult { record } => {
                out.push_str(&format!(", \"record\": {}", record.to_json()));
            }
            Message::Shutdown => {}
        }
        out.push('}');
        out
    }

    /// Decodes one frame. Rejects malformed JSON, a missing or foreign
    /// version stamp, and unknown `"type"` tags.
    pub fn decode(line: &str) -> Result<Message, String> {
        let v = json::parse(line).map_err(|e| format!("wire frame: {e}"))?;
        let version = field_str(&v, "v", "wire frame")?;
        if version != WIRE_VERSION {
            return Err(format!(
                "wire frame: version `{version}` is not `{WIRE_VERSION}` \
                 (mixed endpoint builds?)"
            ));
        }
        let tag = field_str(&v, "type", "wire frame")?;
        let what = format!("{tag} frame");
        let what = what.as_str();
        Ok(match tag {
            "hello" => Message::Hello {
                role: field_str(&v, "role", what)?.to_string(),
                host: HostMeta::from_value(field(&v, "host", what)?, what)?,
            },
            "submit" => Message::Submit {
                spec: JobSpec::from_value(field(&v, "spec", what)?, what)?,
            },
            "accepted" => Message::Accepted {
                jobs: field_u64(&v, "jobs", what)? as usize,
                fingerprint: field_hex(&v, "fingerprint", what)?,
            },
            "progress" => Message::Progress {
                job: field_u64(&v, "job", what)? as usize,
                done: field_u64(&v, "done", what)? as usize,
                total: field_u64(&v, "total", what)? as usize,
                abbrev: field_str(&v, "abbrev", what)?.to_string(),
                scheduler: field_str(&v, "scheduler", what)?.to_string(),
                ok: field(&v, "ok", what)?
                    .as_bool()
                    .ok_or_else(|| format!("{what}.ok: expected a boolean"))?,
            },
            "report" => Message::Report {
                fingerprint: field_hex(&v, "fingerprint", what)?,
                summary: field_str(&v, "summary", what)?.to_string(),
                crashes: field_u64(&v, "crashes", what)? as usize,
                hosts: {
                    let arr = field(&v, "hosts", what)?
                        .as_array()
                        .ok_or_else(|| format!("{what}.hosts: expected an array"))?;
                    arr.iter()
                        .enumerate()
                        .map(|(i, h)| HostMeta::from_value(h, &format!("{what}.hosts[{i}]")))
                        .collect::<Result<Vec<_>, _>>()?
                },
                report_json: field_str(&v, "report_json", what)?.to_string(),
            },
            "error" => Message::Error {
                message: field_str(&v, "message", what)?.to_string(),
            },
            "assign" => Message::Assign {
                job: field_u64(&v, "job", what)? as usize,
                spec: JobSpec::from_value(field(&v, "spec", what)?, what)?,
            },
            // Older workers also sent a `host` stamp here; it is ignored.
            "result" => Message::JobResult {
                record: CampaignResult::from_value(field(&v, "record", what)?, what)?,
            },
            "shutdown" => Message::Shutdown,
            other => {
                return Err(format!(
                    "wire frame: unknown type `{other}` (mixed endpoint builds?)"
                ))
            }
        })
    }
}

//! Versioned, append-only campaign checkpoints (crash salvage + resume).
//!
//! A multi-hour sweep that dies at job 31/32 should lose one job, not all of
//! them. The campaign driver therefore appends one record to a checkpoint file
//! as each job completes; `libra-sim campaign --resume <ckpt>` reloads the file,
//! skips every job with a recorded success, re-runs failures, and produces
//! results **bit-identical** to an uninterrupted run (job seeds are
//! position-derived, and [`SequenceStats`] round-trips through both encodings
//! exactly — every field is an unsigned integer).
//!
//! Two on-disk encodings carry the same logical content and are loaded through
//! the same [`Checkpoint::load`] (auto-detected by the leading bytes):
//!
//! # Binary format (`libra-ckpt-bin-v1`, the default)
//!
//! Endian-pinned ([`tbr_common::binio`]: everything little-endian, so the
//! bytes are host-independent) and length-prefixed:
//!
//! ```text
//! header: magic "LIBRACKB" (8) · version u32 · seed u64 · jobs u64 · fingerprint u64
//! record: payload_len u32 · payload
//! payload: job u32 · abbrev str16 · scheduler str16 · outcome u8
//!          outcome 0 (done):    effective_seed u64 · stats (SequenceStats binary)
//!          outcome 1 (failed):  attempts u32 · panic_msg str32
//!          outcome 2 (timeout): attempts u32 · budget_cycles u64 · spent_cycles u64
//! ```
//!
//! The `payload_len` frame makes a crash mid-append detectable: a trailing
//! partial frame is rejected as truncated, exactly like a JSON file whose last
//! line lacks its newline. A wrong magic, an unsupported version, an unknown
//! outcome tag, or leftover bytes inside a frame are all structured load
//! errors, never panics.
//!
//! # JSON format (`libra-campaign-ckpt-v1`, `--ckpt-format json`)
//!
//! Line-oriented JSON (one complete document per line), written with the
//! in-repo writer and validated on load by [`tbr_common::json`]:
//!
//! ```text
//! {"schema":"libra-campaign-ckpt-v1","seed":"0x0","jobs":32,"fingerprint":"0x9a…"}
//! {"job":0,"outcome":"done","abbrev":"AAt","scheduler":"libra","effective_seed":"0x11…","stats":{…}}
//! {"job":3,"outcome":"failed","abbrev":"CCS","scheduler":"libra","attempts":2,"panic_msg":"…"}
//! {"job":5,"outcome":"timeout","abbrev":"GrT","scheduler":"libra","attempts":1,"budget_cycles":1000,"spent_cycles":52341}
//! ```
//!
//! * The **header** names the schema, the campaign seed, the job count and a
//!   fingerprint of the full job list (configs, schedulers, workloads, frame
//!   counts). Resuming against a campaign with a different fingerprint is
//!   rejected — a checkpoint is only meaningful for the exact sweep that wrote
//!   it. The binary header carries the identical identity block.
//! * **Records** carry the job's campaign-order index, so record order is
//!   irrelevant on load (parallel workers append in completion order). For the
//!   same job, later records supersede earlier ones: a resumed run that turns a
//!   `failed` record into a `done` one simply appends.
//! * 64-bit seeds and fingerprints are hex **strings** in JSON (JSON numbers
//!   are `f64` and would corrupt values above 2⁵³) and plain `u64`s in binary;
//!   all counters are plain integers far below that bound.
//!
//! # Atomic-append protocol
//!
//! Each record is serialised to one unit — a `\n`-terminated line (JSON) or a
//! length-prefixed frame (binary) — and handed to the OS in a **single
//! `write_all` on an append-mode handle**, then flushed. Workers serialise
//! through a mutex, so records never interleave; a crash between jobs loses
//! nothing, and a crash cannot land between two half-written records.
//! [`Checkpoint::load`] treats a trailing incomplete record as truncated
//! mid-append and rejects it with instructions rather than guessing.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::Mutex;

use tbr_common::binio::{ByteReader, ByteWriter};
use tbr_common::json::{self, field, field_hex, field_str, field_u32, field_u64, Value};
use tbr_common::stats::SequenceStats;

use crate::campaign::{CampaignResult, JobOutcome};

/// Schema identifier written to (and required of) every JSON checkpoint header.
pub const SCHEMA: &str = "libra-campaign-ckpt-v1";

/// Magic bytes opening a binary checkpoint (`libra-ckpt-bin-v1`). Never a
/// valid JSON first byte, so [`Checkpoint::load`] auto-detects the encoding.
pub const BIN_MAGIC: &[u8; 8] = b"LIBRACKB";

/// Version number following [`BIN_MAGIC`]; unknown versions are rejected.
pub const BIN_VERSION: u32 = 1;

/// On-disk encoding of a checkpoint sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointFormat {
    /// `libra-ckpt-bin-v1`: endian-pinned length-prefixed frames (default).
    #[default]
    Binary,
    /// `libra-campaign-ckpt-v1`: line-oriented JSON (human-readable opt-out).
    Json,
}

/// The identity block on a checkpoint's first line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Campaign seed of the run that wrote the file.
    pub seed: u64,
    /// Number of jobs in the campaign.
    pub jobs: usize,
    /// Fingerprint of the full job list (see `Campaign::fingerprint`).
    pub fingerprint: u64,
}

/// A fully parsed checkpoint file: header plus records in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The identity line.
    pub header: CheckpointHeader,
    /// Records in file order (later records for a job supersede earlier ones),
    /// not yet checked against a campaign (see `Campaign::adopt_record`).
    pub records: Vec<CampaignResult>,
    /// The encoding the file was written in (resume appends in the same one).
    pub format: CheckpointFormat,
}

fn hex(v: u64) -> String {
    format!("{v:#x}")
}

impl CheckpointHeader {
    fn to_json(self) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"seed\":\"{}\",\"jobs\":{},\"fingerprint\":\"{}\"}}",
            hex(self.seed),
            self.jobs,
            hex(self.fingerprint)
        )
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let schema = field_str(v, "schema", "header")?;
        if schema != SCHEMA {
            return Err(format!("header: schema `{schema}` is not `{SCHEMA}`"));
        }
        Ok(Self {
            seed: field_hex(v, "seed", "header")?,
            jobs: field_u64(v, "jobs", "header")? as usize,
            fingerprint: field_hex(v, "fingerprint", "header")?,
        })
    }

    fn to_binary(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(BIN_MAGIC);
        w.u32(BIN_VERSION);
        w.u64(self.seed);
        w.u64(self.jobs as u64);
        w.u64(self.fingerprint);
        w.into_bytes()
    }

    /// Reads the identity block of a binary checkpoint (magic already checked).
    fn from_reader(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let version = r.u32("header.version")?;
        if version != BIN_VERSION {
            return Err(format!(
                "binary checkpoint version {version} is not the supported {BIN_VERSION}"
            ));
        }
        Ok(Self {
            seed: r.u64("header.seed")?,
            jobs: r.u64("header.jobs")? as usize,
            fingerprint: r.u64("header.fingerprint")?,
        })
    }
}

impl CampaignResult {
    /// The single-line JSON object of this result — the JSON checkpoint's
    /// record line, also embedded verbatim in `libra-wire-v1` `result` frames.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"job\":{},\"outcome\":\"", self.job));
        match &self.outcome {
            JobOutcome::Done { effective_seed, stats } => {
                out.push_str("done\"");
                self.push_names(&mut out);
                out.push_str(&format!(",\"effective_seed\":\"{}\",\"stats\":", hex(*effective_seed)));
                out.push_str(&stats.to_json());
            }
            JobOutcome::Failed { attempts, panic_msg } => {
                out.push_str("failed\"");
                self.push_names(&mut out);
                out.push_str(&format!(",\"attempts\":{attempts},\"panic_msg\":\""));
                json::escape_into(&mut out, panic_msg);
                out.push('"');
            }
            JobOutcome::TimedOut { attempts, budget_cycles, spent_cycles } => {
                out.push_str("timeout\"");
                self.push_names(&mut out);
                out.push_str(&format!(
                    ",\"attempts\":{attempts},\"budget_cycles\":{budget_cycles},\
                     \"spent_cycles\":{spent_cycles}"
                ));
            }
        }
        out.push('}');
        out
    }

    fn push_names(&self, out: &mut String) {
        out.push_str(",\"abbrev\":\"");
        json::escape_into(out, &self.abbrev);
        out.push_str("\",\"scheduler\":\"");
        json::escape_into(out, &self.scheduler);
        out.push('"');
    }

    /// Parses a result object (the inverse of [`CampaignResult::to_json`]);
    /// `what` names the location for error messages.
    pub fn from_value(v: &Value, what: &str) -> Result<Self, String> {
        let job = field_u64(v, "job", what)? as usize;
        let abbrev = field_str(v, "abbrev", what)?.to_string();
        let scheduler = field_str(v, "scheduler", what)?.to_string();
        let outcome = match field_str(v, "outcome", what)? {
            "done" => JobOutcome::Done {
                effective_seed: field_hex(v, "effective_seed", what)?,
                stats: SequenceStats::from_value(
                    field(v, "stats", what)?,
                    &format!("{what}.stats"),
                )?,
            },
            "failed" => JobOutcome::Failed {
                attempts: field_u32(v, "attempts", what)?,
                panic_msg: field_str(v, "panic_msg", what)?.to_string(),
            },
            "timeout" => JobOutcome::TimedOut {
                attempts: field_u32(v, "attempts", what)?,
                budget_cycles: field_u64(v, "budget_cycles", what)?,
                spent_cycles: field_u64(v, "spent_cycles", what)?,
            },
            other => return Err(format!("{what}: unknown outcome `{other}`")),
        };
        Ok(Self { job, abbrev, scheduler, outcome })
    }

    /// This result as a length-prefixed binary frame (the whole frame —
    /// length included — is handed to one `write_all`).
    fn to_frame(&self) -> Vec<u8> {
        let mut p = ByteWriter::new();
        p.u32(self.job as u32);
        p.str16(&self.abbrev);
        p.str16(&self.scheduler);
        match &self.outcome {
            JobOutcome::Done { effective_seed, stats } => {
                p.u8(0);
                p.u64(*effective_seed);
                stats.to_binary_into(&mut p);
            }
            JobOutcome::Failed { attempts, panic_msg } => {
                p.u8(1);
                p.u32(*attempts);
                p.str32(panic_msg);
            }
            JobOutcome::TimedOut { attempts, budget_cycles, spent_cycles } => {
                p.u8(2);
                p.u32(*attempts);
                p.u64(*budget_cycles);
                p.u64(*spent_cycles);
            }
        }
        let payload = p.into_bytes();
        let mut w = ByteWriter::new();
        w.u32(payload.len() as u32);
        w.bytes(&payload);
        w.into_bytes()
    }

    /// Decodes one binary frame payload (frame length already stripped). The
    /// payload must be consumed exactly — trailing bytes mean a corrupt frame.
    fn from_frame(payload: &[u8], what: &str) -> Result<Self, String> {
        let mut r = ByteReader::new(payload);
        let job = r.u32(&format!("{what}.job"))? as usize;
        let abbrev = r.str16(&format!("{what}.abbrev"))?;
        let scheduler = r.str16(&format!("{what}.scheduler"))?;
        let outcome = match r.u8(&format!("{what}.outcome"))? {
            0 => JobOutcome::Done {
                effective_seed: r.u64(&format!("{what}.effective_seed"))?,
                stats: SequenceStats::from_reader(&mut r, &format!("{what}.stats"))?,
            },
            1 => JobOutcome::Failed {
                attempts: r.u32(&format!("{what}.attempts"))?,
                panic_msg: r.str32(&format!("{what}.panic_msg"))?,
            },
            2 => JobOutcome::TimedOut {
                attempts: r.u32(&format!("{what}.attempts"))?,
                budget_cycles: r.u64(&format!("{what}.budget_cycles"))?,
                spent_cycles: r.u64(&format!("{what}.spent_cycles"))?,
            },
            other => return Err(format!("{what}: unknown outcome tag {other}")),
        };
        if !r.is_empty() {
            return Err(format!("{what}: {} unexpected trailing byte(s) in frame", r.remaining()));
        }
        Ok(Self { job, abbrev, scheduler, outcome })
    }
}

impl Checkpoint {
    /// Loads and validates a checkpoint file, auto-detecting the encoding by
    /// its leading bytes ([`BIN_MAGIC`] → binary, anything else → JSON lines).
    ///
    /// Rejects, with an error naming the location and problem: unreadable
    /// files, empty files, truncated trailing records (crash mid-append),
    /// malformed JSON or binary frames, wrong schema/magic/version, and
    /// records missing required fields.
    pub fn load(path: &str) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("reading checkpoint {path}: {e}"))?;
        if bytes.starts_with(BIN_MAGIC) {
            return Self::load_binary(&bytes, path);
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| format!("checkpoint {path}: neither binary (no magic) nor UTF-8 JSON"))?;
        if text.is_empty() {
            return Err(format!("checkpoint {path} is empty (no header line)"));
        }
        if !text.ends_with('\n') {
            return Err(format!(
                "checkpoint {path} is truncated: the last line is incomplete (crash while \
                 appending?) — delete the file to start over, or restore a complete copy"
            ));
        }
        let mut lines = text.lines().enumerate();
        let (_, header_line) = lines.next().expect("non-empty text has a first line");
        let header = json::parse(header_line)
            .map_err(|e| format!("checkpoint {path} line 1: {e}"))
            .and_then(|v| CheckpointHeader::from_value(&v))
            .map_err(|e| format!("checkpoint {path} line 1: {e}"))?;
        let mut records = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            if line.trim().is_empty() {
                return Err(format!("checkpoint {path} line {lineno}: blank line"));
            }
            let v = json::parse(line).map_err(|e| format!("checkpoint {path} line {lineno}: {e}"))?;
            let rec = CampaignResult::from_value(&v, &format!("record at line {lineno}"))
                .map_err(|e| format!("checkpoint {path}: {e}"))?;
            if rec.job >= header.jobs {
                return Err(format!(
                    "checkpoint {path} line {lineno}: job index {} out of range (campaign has {} jobs)",
                    rec.job, header.jobs
                ));
            }
            records.push(rec);
        }
        Ok(Self { header, records, format: CheckpointFormat::Json })
    }

    /// Parses the binary (`libra-ckpt-bin-v1`) encoding.
    fn load_binary(bytes: &[u8], path: &str) -> Result<Self, String> {
        let mut r = ByteReader::new(&bytes[BIN_MAGIC.len()..]);
        let header = CheckpointHeader::from_reader(&mut r)
            .map_err(|e| format!("checkpoint {path}: {e}"))?;
        let mut records = Vec::new();
        while !r.is_empty() {
            let at = BIN_MAGIC.len() + r.position();
            let frame_err = |e: String| {
                format!(
                    "checkpoint {path}: record frame at offset {at}: {e} (crash while \
                     appending?) — delete the file to start over, or restore a complete copy"
                )
            };
            let len = r.u32("frame length").map_err(frame_err)? as usize;
            let payload = r.bytes(len, "frame payload").map_err(frame_err)?;
            let rec = CampaignResult::from_frame(payload, &format!("record at offset {at}"))
                .map_err(|e| format!("checkpoint {path}: {e}"))?;
            if rec.job >= header.jobs {
                return Err(format!(
                    "checkpoint {path}: record at offset {at}: job index {} out of range \
                     (campaign has {} jobs)",
                    rec.job, header.jobs
                ));
            }
            records.push(rec);
        }
        Ok(Self { header, records, format: CheckpointFormat::Binary })
    }
}

/// Append-mode writer shared by campaign workers (record appends are
/// serialised through an internal mutex; each record is one `write_all` +
/// flush in the writer's [`CheckpointFormat`]).
#[derive(Debug)]
pub struct CheckpointWriter {
    file: Mutex<File>,
    path: String,
    format: CheckpointFormat,
}

impl CheckpointWriter {
    /// Creates (truncating) a fresh checkpoint at `path` and writes the header
    /// in the requested encoding.
    pub fn create(
        path: &str,
        header: CheckpointHeader,
        format: CheckpointFormat,
    ) -> Result<Self, String> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        let mut file =
            File::create(path).map_err(|e| format!("creating checkpoint {path}: {e}"))?;
        let head = match format {
            CheckpointFormat::Binary => header.to_binary(),
            CheckpointFormat::Json => {
                let mut line = header.to_json();
                line.push('\n');
                line.into_bytes()
            }
        };
        file.write_all(&head)
            .and_then(|()| file.flush())
            .map_err(|e| format!("writing checkpoint header to {path}: {e}"))?;
        Ok(Self { file: Mutex::new(file), path: path.to_string(), format })
    }

    /// Reopens an existing (already validated) checkpoint for appending — the
    /// resume path keeps extending the same file, in whichever encoding the
    /// file already uses (sniffed from its magic bytes).
    pub fn append_to(path: &str) -> Result<Self, String> {
        let format = {
            let mut head = [0u8; 8];
            let mut f = File::open(path)
                .map_err(|e| format!("opening checkpoint {path} for append: {e}"))?;
            match std::io::Read::read_exact(&mut f, &mut head) {
                Ok(()) if &head == BIN_MAGIC => CheckpointFormat::Binary,
                _ => CheckpointFormat::Json,
            }
        };
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("opening checkpoint {path} for append: {e}"))?;
        Ok(Self { file: Mutex::new(file), path: path.to_string(), format })
    }

    /// Appends one job record atomically (single write of a full line/frame).
    pub fn append(&self, r: &CampaignResult) -> Result<(), String> {
        let bytes = match self.format {
            CheckpointFormat::Binary => r.to_frame(),
            CheckpointFormat::Json => {
                let mut line = r.to_json();
                line.push('\n');
                line.into_bytes()
            }
        };
        let mut file = self.file.lock().unwrap();
        file.write_all(&bytes)
            .and_then(|()| file.flush())
            .map_err(|e| format!("appending to checkpoint {}: {e}", self.path))
    }
}

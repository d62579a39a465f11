//! Deterministic fault injection for the campaign driver.
//!
//! The fault-tolerance machinery in [`crate::campaign`] — per-job panic
//! isolation, the watchdog cycle budget, retries, checkpoint/resume — is only
//! trustworthy if it can be *exercised on demand*. This module supplies the
//! trigger: a [`FaultSpec`] names one campaign job and a fault to inject into
//! it, either on every attempt (proves the retry-then-fail path) or on the
//! first attempt only (proves that a retry salvages a transient fault).
//!
//! A spec comes from either of two equivalent sources:
//!
//! * the `libra-sim campaign --fault <SPEC>` CLI flag, or
//! * the `LIBRA_FAULT` environment variable (read by [`FaultSpec::from_env`]
//!   when `libra-sim campaign` starts without `--fault`).
//!
//! Library callers pass the spec in [`RunOptions::fault`](crate::campaign::RunOptions::fault).
//!
//! The spec grammar is `<kind>:<job>` where `<kind>` is one of:
//!
//! | kind           | effect                                                        |
//! |----------------|---------------------------------------------------------------|
//! | `panic`        | the job panics on **every** attempt (→ `Failed` after retries) |
//! | `panic-once`   | the job panics on the **first** attempt only (→ retry succeeds)|
//! | `timeout`      | the job's watchdog budget is forced to 0 on every attempt      |
//! | `timeout-once` | budget forced to 0 on the first attempt only                   |
//!
//! Injection is a pure function of `(job index, attempt number)`, so faulted
//! campaigns remain bit-identical across thread counts — the same determinism
//! contract as everything else in the driver.

/// What to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the job body (exercises `catch_unwind` isolation).
    Panic,
    /// Force the watchdog cycle budget to 0 (exercises the timeout path).
    Timeout,
}

/// An injected fault: a kind, a target job, and whether it fires on every
/// attempt or only the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which fault to inject.
    pub kind: FaultKind,
    /// Campaign-order index of the job to poison.
    pub job: usize,
    /// `true`: fire on the first attempt only, so a retry recovers.
    /// `false`: fire on every attempt, so retries exhaust into a failure.
    pub once: bool,
}

impl FaultSpec {
    /// Parses `panic:<job>`, `panic-once:<job>`, `timeout:<job>` or
    /// `timeout-once:<job>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, job) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec `{spec}` is not of the form <kind>:<job>"))?;
        let job: usize = job
            .parse()
            .map_err(|_| format!("fault spec `{spec}`: `{job}` is not a job index"))?;
        let (kind, once) = match kind {
            "panic" => (FaultKind::Panic, false),
            "panic-once" => (FaultKind::Panic, true),
            "timeout" => (FaultKind::Timeout, false),
            "timeout-once" => (FaultKind::Timeout, true),
            other => {
                return Err(format!(
                    "fault spec `{spec}`: unknown kind `{other}` \
                     (panic|panic-once|timeout|timeout-once)"
                ))
            }
        };
        Ok(Self { kind, job, once })
    }

    /// Reads `LIBRA_FAULT`: `Ok(None)` when unset or empty, and an error
    /// naming the variable for a malformed value — a silently ignored fault
    /// spec would make a fault-injection test vacuously pass.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("LIBRA_FAULT") {
            Ok(v) if !v.is_empty() => {
                Self::parse(&v).map(Some).map_err(|e| format!("LIBRA_FAULT: {e}"))
            }
            _ => Ok(None),
        }
    }

    /// Whether this spec fires for `(job, attempt)`.
    pub fn fires(&self, job: usize, attempt: u32) -> bool {
        self.job == job && (!self.once || attempt == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_kinds() {
        assert_eq!(
            FaultSpec::parse("panic:3").unwrap(),
            FaultSpec { kind: FaultKind::Panic, job: 3, once: false }
        );
        assert_eq!(
            FaultSpec::parse("panic-once:0").unwrap(),
            FaultSpec { kind: FaultKind::Panic, job: 0, once: true }
        );
        assert_eq!(
            FaultSpec::parse("timeout:12").unwrap(),
            FaultSpec { kind: FaultKind::Timeout, job: 12, once: false }
        );
        assert_eq!(
            FaultSpec::parse("timeout-once:7").unwrap(),
            FaultSpec { kind: FaultKind::Timeout, job: 7, once: true }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["", "panic", "panic:", "panic:x", "explode:3", "panic:3:4"] {
            assert!(FaultSpec::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn once_fires_only_on_attempt_zero() {
        let every = FaultSpec::parse("panic:2").unwrap();
        assert!(every.fires(2, 0) && every.fires(2, 1));
        assert!(!every.fires(1, 0));
        let once = FaultSpec::parse("timeout-once:2").unwrap();
        assert!(once.fires(2, 0));
        assert!(!once.fires(2, 1));
    }
}

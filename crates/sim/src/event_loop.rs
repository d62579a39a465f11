//! Selection of the raster-phase event-loop implementation.
//!
//! The simulator has three drivers for "advance the micro-event with the
//! earliest timestamp": the **indexed** driver (binary heaps with lazy
//! invalidation — the default, and the fast serial path), the legacy **scan**
//! driver (O(RUs × warps) linear scan per event), and the **parallel** driver
//! (each RU's Local events drained by worker threads between epoch barriers,
//! Shared events committed serially from one parking queue). The scan loop is
//! the behavioural specification: the other drivers must reproduce its event
//! sequence *bit-identically*, and `tests/event_loop_diff.rs` plus
//! `tests/parallel_core_diff.rs` hold them against each other as
//! differential oracles.
//!
//! The mode is resolved per raster phase from, in priority order:
//!
//! 1. the process-global override set by [`set_mode`] (the CLI's `--event-loop`
//!    flag and tests use this), and otherwise
//! 2. the `LIBRA_EVENT_LOOP` environment variable (`heap`, `scan` or `par`),
//! 3. defaulting to [`EventLoopMode::Heap`].
//!
//! The parallel driver's worker count resolves the same way: [`set_sim_threads`]
//! (the CLI's `--sim-threads`), then the `LIBRA_SIM_THREADS` environment
//! variable, then 1. The thread count never affects results — only how fast
//! they are produced — so campaign fan-out composes freely with per-job
//! threads (total concurrency = campaign `--threads` × `--sim-threads`).
//!
//! A malformed environment value falls back to the default here; the CLI
//! refuses it at start-up through [`check_env`], so a typo cannot silently
//! measure the wrong driver.
//!
//! The overrides are relaxed atomics: concurrent simulations reading them while
//! they change is benign *because* the modes are bit-identical — selection can
//! never change a result, only how fast it is produced.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Which event-loop driver the raster phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventLoopMode {
    /// Indexed next-event core: per-RU warp queues + a global RU queue
    /// (deterministic binary heaps with lazy invalidation).
    Heap,
    /// The legacy per-event linear scan, kept as the differential oracle.
    Scan,
    /// Intra-frame parallel core: RUs drain their local events on worker
    /// threads up to an epoch horizon; shared events (L2/DRAM accesses,
    /// flushes, scheduler decisions) are committed serially at the barriers
    /// in canonical `(time, RU)` order, keeping results bit-identical to
    /// [`EventLoopMode::Heap`].
    Par,
}

impl EventLoopMode {
    /// The driver's name, as `LIBRA_EVENT_LOOP` and `--event-loop` spell it.
    pub fn name(self) -> &'static str {
        match self {
            EventLoopMode::Heap => "heap",
            EventLoopMode::Scan => "scan",
            EventLoopMode::Par => "par",
        }
    }
}

const UNSET: u8 = 0;
const HEAP: u8 = 1;
const SCAN: u8 = 2;
const PAR: u8 = 3;

static OVERRIDE: AtomicU8 = AtomicU8::new(UNSET);

/// Worker-thread override for [`EventLoopMode::Par`]; 0 = unset.
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-global mode override, which takes
/// precedence over `LIBRA_EVENT_LOOP`.
pub fn set_mode(mode: Option<EventLoopMode>) {
    let v = match mode {
        None => UNSET,
        Some(EventLoopMode::Heap) => HEAP,
        Some(EventLoopMode::Scan) => SCAN,
        Some(EventLoopMode::Par) => PAR,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// The current process-global override, if any (lets measurement code
/// save/restore the mode around a pinned-mode run).
pub fn override_mode() -> Option<EventLoopMode> {
    match OVERRIDE.load(Ordering::Relaxed) {
        HEAP => Some(EventLoopMode::Heap),
        SCAN => Some(EventLoopMode::Scan),
        PAR => Some(EventLoopMode::Par),
        _ => None,
    }
}

/// Resolves the mode the next raster phase will run under.
pub fn mode() -> EventLoopMode {
    override_mode().unwrap_or_else(|| env_mode().ok().flatten().unwrap_or(EventLoopMode::Heap))
}

/// Parses a mode name as accepted by `LIBRA_EVENT_LOOP` / `--event-loop`.
pub fn parse(name: &str) -> Option<EventLoopMode> {
    if name.eq_ignore_ascii_case("heap") {
        Some(EventLoopMode::Heap)
    } else if name.eq_ignore_ascii_case("scan") {
        Some(EventLoopMode::Scan)
    } else if name.eq_ignore_ascii_case("par") {
        Some(EventLoopMode::Par)
    } else {
        None
    }
}

/// Sets (or with `None` clears) the process-global worker-thread count for
/// [`EventLoopMode::Par`], which takes precedence over `LIBRA_SIM_THREADS`.
/// Values are clamped to at least 1 when read.
pub fn set_sim_threads(threads: Option<usize>) {
    THREADS_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The current sim-threads override, if any (for save/restore around a
/// pinned-thread-count run).
pub fn sim_threads_override() -> Option<usize> {
    match THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Worker threads the parallel driver will use: the [`set_sim_threads`]
/// override, else `LIBRA_SIM_THREADS`, else 1.
pub fn sim_threads() -> usize {
    sim_threads_override().unwrap_or_else(|| env_sim_threads().ok().flatten().unwrap_or(1))
}

/// `LIBRA_EVENT_LOOP`, parsed; `Ok(None)` when unset or empty.
fn env_mode() -> Result<Option<EventLoopMode>, String> {
    match std::env::var("LIBRA_EVENT_LOOP") {
        Ok(v) if !v.is_empty() => parse(&v)
            .map(Some)
            .ok_or_else(|| format!("LIBRA_EVENT_LOOP: unknown event loop `{v}` (heap|scan|par)")),
        _ => Ok(None),
    }
}

/// `LIBRA_SIM_THREADS`, parsed; `Ok(None)` when unset or empty.
fn env_sim_threads() -> Result<Option<usize>, String> {
    match std::env::var("LIBRA_SIM_THREADS") {
        Ok(v) if !v.is_empty() => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("LIBRA_SIM_THREADS: `{v}` is not a thread count >= 1")),
        },
        _ => Ok(None),
    }
}

/// Rejects a malformed `LIBRA_EVENT_LOOP` or `LIBRA_SIM_THREADS`, with an
/// error naming the variable (the CLI calls this at start-up).
pub fn check_env() -> Result<(), String> {
    env_mode()?;
    env_sim_threads()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_takes_precedence_and_clears() {
        set_mode(Some(EventLoopMode::Scan));
        assert_eq!(mode(), EventLoopMode::Scan);
        set_mode(Some(EventLoopMode::Par));
        assert_eq!(mode(), EventLoopMode::Par);
        set_mode(Some(EventLoopMode::Heap));
        assert_eq!(mode(), EventLoopMode::Heap);
        set_mode(None);
        // Without an override the env var (unset in tests) defaults to Heap.
    }

    #[test]
    fn parse_accepts_all_names() {
        assert_eq!(parse("heap"), Some(EventLoopMode::Heap));
        assert_eq!(parse("SCAN"), Some(EventLoopMode::Scan));
        assert_eq!(parse("Par"), Some(EventLoopMode::Par));
        assert_eq!(parse("calendar"), None);
    }

    #[test]
    fn sim_threads_override_round_trips() {
        let saved = sim_threads_override();
        set_sim_threads(Some(4));
        assert_eq!(sim_threads(), 4);
        assert_eq!(sim_threads_override(), Some(4));
        set_sim_threads(None);
        assert_eq!(sim_threads_override(), None);
        // Without an override the env var (unset in tests) defaults to 1.
        assert_eq!(sim_threads(), 1);
        set_sim_threads(saved);
    }
}

//! The raster phase's idle-core helper: a thread that rasterises, ahead of
//! the event loop, the tiles the event loop will need next.
//!
//! The pure half of a tile's front end ([`TileRasterizer::raster`]) reads only
//! the tile's primitives, so it may run on another thread at any time; only
//! the timed half ([`tbr_raster::RasterUnit::issue_tile`]) needs the event
//! loop's global time order. The event loop asks for tiles through a
//! [`Prefetch`]; the helper rasterises them into buffers it hands back, and
//! the event loop issues a prepared tile when one has arrived and otherwise
//! rasterises the tile itself. It never waits for the helper, and a prepared
//! [`TileRaster`] equals the one the event loop would make, so results are
//! bit-identical with or without the helper, whatever it managed to prepare.
//!
//! The helper works on its newest request first. The oldest are the tiles
//! the event loop reaches first, and a tile it reaches while the helper is
//! still rasterising it is rasterised twice, so the helper leaves those to
//! the event loop and stays ahead of it; it hands back untouched the buffers
//! of tiles the event loop has passed.
//!
//! The helper runs at `SCHED_IDLE` priority on Linux: it takes only CPU time
//! that nothing else of the host wants, so it never slows a sweep that
//! already keeps every core busy. Requests and results travel through
//! `std::sync::mpsc` channels in both directions, so the event loop never
//! blocks on a lock a descheduled helper holds.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::OnceLock;

use tbr_common::config::GpuConfig;
use tbr_common::ids::TileId;
use tbr_geom::stream::TriangleStream;
use tbr_raster::raster_unit::{TileRaster, TileRasterizer};
use tbr_tiling::binner::TileBins;

/// Prepared-tile buffers in circulation per Raster Unit, counting between
/// [`MIN_BUFFERED_RUS`] and [`MAX_BUFFERED_RUS`] units: the cap on requests
/// ahead, and on finished tiles waiting for the event loop.
pub(crate) const BUFFERS_PER_RU: usize = 2;

/// The fewest units [`BUFFERS_PER_RU`] counts, so that a phase of few units
/// still has a buffer for each tile it asks for ahead.
pub(crate) const MIN_BUFFERED_RUS: usize = 4;

/// The most units [`BUFFERS_PER_RU`] counts. With many units each request
/// has a long lead, and more buffers only raise the peak memory.
pub(crate) const MAX_BUFFERED_RUS: usize = 16;

/// Groups per Raster Unit whose first tile the event loop asks for ahead
/// of the pulls: enough lead, at 2 units, for the helper to finish a tile
/// before the event loop reaches it.
pub(crate) const PEEK_GROUPS_PER_RU: usize = 3;

/// CPUs this process may run on (its affinity mask and CPU quota), read once
/// per process. Under `taskset -c 0` it is 1 and no helper starts.
pub(crate) fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

// A tile's progress, as the event loop sees it; only the event loop writes
// it. The helper reads it only to skip a request the event loop has already
// passed. `Relaxed` suffices: the state publishes no data (the buffers travel
// through the channels, which order their contents), and a stale read costs
// the helper a needless rasterisation, never a wrong result.
const UNREQUESTED: u8 = 0;
const REQUESTED: u8 = 1;
const PASSED: u8 = 2;

/// A tile for the helper to rasterise into `buf`.
struct Job {
    tile: TileId,
    buf: TileRaster,
}

/// A buffer coming back from the helper: rasterised for `tile`, or returned
/// untouched when the event loop had passed the tile before it began.
struct Reply {
    tile: TileId,
    buf: TileRaster,
    rasterised: bool,
}

/// The event loop's side of the helper: asks for tiles, takes the prepared
/// ones and recycles buffers. Owned by the event loop, inside the helper's
/// scope: dropping it closes the request channel, which ends the helper.
pub(crate) struct Prefetch<'s> {
    jobs: Sender<Job>,
    replies: Receiver<Reply>,
    state: &'s [AtomicU8],
    /// Prepared tiles not yet issued.
    ready: Vec<TileRaster>,
    /// Buffers to reuse for the next requests.
    free: Vec<TileRaster>,
    /// Buffers that may still be made before requests must wait for one.
    unmade: usize,
    /// Tiles the helper rasterised after the event loop had passed them.
    pub discarded: u64,
}

impl Prefetch<'_> {
    /// Asks the helper for `tile`, unless it was already asked for or passed,
    /// or every buffer is in use (a later call asks again).
    pub fn want(&mut self, tile: TileId) {
        let state = &self.state[tile.index()];
        if state.load(Ordering::Relaxed) != UNREQUESTED {
            return;
        }
        let buf = match self.free.pop() {
            Some(buf) => buf,
            None if self.unmade > 0 => {
                self.unmade -= 1;
                TileRaster::default()
            }
            None => return,
        };
        state.store(REQUESTED, Ordering::Relaxed);
        // A helper that is gone (it can only have panicked; the scope
        // reports that at its join) simply prepares nothing more.
        let _ = self.jobs.send(Job { tile, buf });
    }

    /// The prepared raster of `tile`, if the helper's result has arrived;
    /// otherwise the caller rasterises the tile itself. Either way the tile
    /// is passed from now on, and a late result for it is recycled.
    pub fn take(&mut self, tile: TileId) -> Option<TileRaster> {
        while let Ok(reply) = self.replies.try_recv() {
            self.absorb(reply);
        }
        self.state[tile.index()].store(PASSED, Ordering::Relaxed);
        let k = self.ready.iter().position(|r| r.tile() == tile)?;
        Some(self.ready.swap_remove(k))
    }

    /// Returns an issued raster's buffer for reuse.
    pub fn recycle(&mut self, buf: TileRaster) {
        self.free.push(buf);
    }

    fn absorb(&mut self, reply: Reply) {
        if self.state[reply.tile.index()].load(Ordering::Relaxed) == PASSED {
            self.discarded += u64::from(reply.rasterised);
            self.free.push(reply.buf);
        } else {
            debug_assert!(reply.rasterised, "the helper skips only passed tiles");
            self.ready.push(reply.buf);
        }
    }

    /// Blocks for the helper's next reply: lets tests order a handoff.
    #[cfg(test)]
    fn absorb_next(&mut self) {
        let reply = self.replies.recv().expect("the helper is running");
        self.absorb(reply);
    }
}

/// Runs `body` (the event loop) beside a helper thread that rasterises the
/// tiles `body` asks for through its [`Prefetch`], with at most `buffers`
/// prepared-tile buffers in circulation, and joins the helper before
/// returning or unwinding. `hook` runs on the helper as it begins a tile
/// (tests use it to force interleavings).
pub(crate) fn with_helper<R>(
    cfg: &GpuConfig,
    tris: &TriangleStream,
    bins: &TileBins,
    buffers: usize,
    hook: Option<&(dyn Fn(TileId) + Sync)>,
    body: impl FnOnce(Prefetch<'_>) -> R,
) -> R {
    let state: Vec<AtomicU8> = (0..cfg.screen.num_tiles())
        .map(|_| AtomicU8::new(UNREQUESTED))
        .collect();
    std::thread::scope(|s| {
        // Both channels live inside the scope, and `body` owns the request
        // sender: if `body` unwinds, dropping it ends the helper's receive
        // loop before the scope joins the helper.
        let (jobs, job_rx) = mpsc::channel();
        let (reply_tx, replies) = mpsc::channel();
        let state = state.as_slice();
        s.spawn(move || {
            lower_to_idle_priority();
            let mut rasterizer = TileRasterizer::new(cfg);
            let mut pending: Vec<Job> = Vec::new();
            // `false` once the event loop is gone.
            let reply = |tile, buf, rasterised| {
                reply_tx
                    .send(Reply {
                        tile,
                        buf,
                        rasterised,
                    })
                    .is_ok()
            };
            loop {
                if pending.is_empty() {
                    match job_rx.recv() {
                        Ok(job) => pending.push(job),
                        Err(_) => break, // the event loop is done
                    }
                }
                pending.extend(job_rx.try_iter());
                // Hand back the buffers of tiles the event loop has passed,
                // then work on the newest request: the oldest are the ones
                // the event loop reaches first, and rasterising one of them
                // would most likely race it.
                let passed =
                    |job: &mut Job| state[job.tile.index()].load(Ordering::Relaxed) == PASSED;
                for Job { tile, buf } in pending.extract_if(.., passed) {
                    if !reply(tile, buf, false) {
                        return;
                    }
                }
                let Some(Job { tile, mut buf }) = pending.pop() else {
                    continue;
                };
                if let Some(hook) = hook {
                    hook(tile);
                }
                rasterizer.raster(tile, tris, bins.list(tile), &cfg.screen, &mut buf);
                if !reply(tile, buf, true) {
                    return;
                }
            }
        });
        body(Prefetch {
            jobs,
            replies,
            state,
            ready: Vec::new(),
            free: Vec::new(),
            unmade: buffers,
            discarded: 0,
        })
    })
}

/// Lowers the calling thread to `SCHED_IDLE`, so that it runs only on a CPU
/// nothing else wants. A failure leaves it at normal priority.
#[cfg(target_os = "linux")]
fn lower_to_idle_priority() {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `struct sched_param` (a single
    // `int` on Linux) through a pointer that is valid for the whole call;
    // pid 0 names the calling thread, and lowering it to SCHED_IDLE needs no
    // privilege.
    let _ = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_priority() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use tbr_common::config::ScreenConfig;
    use tbr_geom::pipeline::process_scene_stream;
    use tbr_tiling::binner::bin_stream;
    use tbr_workloads::{suite, SceneGenerator};

    fn frame(cfg: &GpuConfig) -> (TriangleStream, TileBins) {
        let scene = SceneGenerator::new(&suite()[0], &cfg.screen).scene(0);
        let (tris, _) = process_scene_stream(&scene, &cfg.screen);
        let bins = bin_stream(&tris, &cfg.screen);
        (tris, bins)
    }

    /// The tile's raster as the event loop would make it.
    fn fresh(cfg: &GpuConfig, tris: &TriangleStream, bins: &TileBins, tile: TileId) -> TileRaster {
        let mut r = TileRaster::default();
        TileRasterizer::new(cfg).raster(tile, tris, bins.list(tile), &cfg.screen, &mut r);
        r
    }

    #[test]
    fn a_tile_the_helper_has_begun_is_rasterised_inline_and_its_late_result_recycled() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let (tris, bins) = frame(&cfg);
        let (t, u, v) = (TileId(5), TileId(6), TileId(7));
        let (begun, passed) = (Barrier::new(2), Barrier::new(2));
        let hook = |tile: TileId| {
            if tile == t {
                begun.wait(); // the helper is inside `t` ...
                passed.wait(); // ... until the event loop has passed it
            }
        };
        with_helper(&cfg, &tris, &bins, 1, Some(&hook), |mut pf| {
            pf.want(t);
            begun.wait();
            assert!(
                pf.take(t).is_none(),
                "the event loop must not wait for the helper"
            );
            pf.want(u); // the one buffer is still out with `t`
            passed.wait();
            pf.absorb_next(); // `t`'s late result: recycled, not kept
            assert!(pf.ready.is_empty());
            assert_eq!(pf.discarded, 1);

            // The recycled buffer, still holding `t`'s raster, serves `u`
            // (asked for again now that a buffer is free) and then `v`.
            for tile in [u, v] {
                pf.want(tile);
                pf.absorb_next();
                let got = pf.take(tile).expect("the helper's result has arrived");
                assert_eq!(got, fresh(&cfg, &tris, &bins, tile));
                pf.recycle(got);
            }
            assert_eq!(pf.discarded, 1);
        });
    }

    #[test]
    fn a_panicking_event_loop_reaches_the_caller_and_the_helper_exits() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let (tris, bins) = frame(&cfg);
        let begun = Barrier::new(2);
        let helper_alive = AtomicBool::new(false);
        let hook = |tile: TileId| {
            if tile == TileId(0) {
                helper_alive.store(true, Ordering::Relaxed);
                begun.wait();
            }
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_helper(&cfg, &tris, &bins, 4, Some(&hook), |mut pf| {
                pf.want(TileId(0));
                pf.want(TileId(1));
                begun.wait(); // mid-phase: the helper is at work
                panic!("event loop failed mid-phase");
            })
        }));
        // Reaching this line means the scope joined the helper: no hang.
        let msg = caught.expect_err("the panic must reach the caller");
        assert_eq!(
            msg.downcast_ref::<&str>(),
            Some(&"event loop failed mid-phase")
        );
        assert!(helper_alive.load(Ordering::Relaxed));
    }
}

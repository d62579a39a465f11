//! Banked LPDDR4-like DRAM timing model.
//!
//! The model captures the three effects the paper's mechanism depends on:
//!
//! 1. **Row-buffer locality** — a request to the bank's open row costs
//!    `row_hit_latency`; any other row pays `row_miss_latency` (precharge + activate).
//! 2. **Bank-level parallelism** — each bank can only service one request per
//!    `bank_occupancy` cycles, so same-bank bursts queue up.
//! 3. **Channel-bus serialisation** — every 64 B transfer occupies the channel's data
//!    bus for `burst_cycles`, which caps sustained bandwidth and makes latency grow
//!    super-linearly as utilisation approaches 100 % (Fig 7's congestion peaks).
//!
//! Per-interval request counters reproduce Fig 7's "DRAM requests per 5 000 cycles".

use tbr_common::config::{DramConfig, PagePolicy};
use tbr_common::stats::DramStats;
use tbr_common::trace::{self, Track};
use tbr_common::Cycle;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    next_free: Cycle,
    open_row: Option<u64>,
    next_refresh: Cycle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefreshCatchup {
    next_free: Cycle,
    next_refresh: Cycle,
    refreshes: u64,
}

/// Closed form for the refresh catch-up recurrence
/// `nf ← max(nr, nf) + latency; nr ← nr + interval` applied while `now >= nr`.
///
/// With `k` elapsed refreshes, `nf_k = max_i(nr0 + i·interval + (k - i)·latency)`
/// over `i ∈ 0..k`, plus the `nf0 + k·latency` chain; the max over `i` is attained
/// at an endpoint because the expression is affine in `i`. Requires
/// `now >= next_refresh` and `interval > 0`.
fn refresh_catchup(
    now: Cycle,
    next_refresh: Cycle,
    next_free: Cycle,
    interval: Cycle,
    latency: Cycle,
) -> RefreshCatchup {
    debug_assert!(interval > 0 && now >= next_refresh);
    let k = (now - next_refresh) / interval + 1;
    let chained = next_free.max(next_refresh) + k * latency;
    let last_alone = next_refresh + (k - 1) * interval + latency;
    RefreshCatchup {
        next_free: chained.max(last_alone),
        next_refresh: next_refresh + k * interval,
        refreshes: k,
    }
}

/// The DRAM device array + memory controller front.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    banks: Vec<Bank>, // channels * banks_per_channel
    channel_bus_free: Vec<Cycle>,
    stats: DramStats,
    stats_refreshes: u64,
}

impl DramModel {
    /// Builds the model. `interval_width` sets the Fig 7 histogram bucket size.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (validate with
    /// [`DramConfig::validate`] first for a recoverable check).
    pub fn new(cfg: DramConfig, interval_width: Cycle) -> Self {
        cfg.validate().expect("invalid DRAM config");
        Self {
            banks: vec![Bank::default(); (cfg.channels * cfg.banks_per_channel) as usize],
            channel_bus_free: vec![0; cfg.channels as usize],
            stats: DramStats::new(interval_width),
            stats_refreshes: 0,
            cfg,
        }
    }

    /// Refresh operations performed so far.
    pub fn refreshes(&self) -> u64 {
        self.stats_refreshes
    }

    /// Channel, bank-within-channel and row of an address. Channels interleave at
    /// 64 B line granularity; banks interleave at row granularity within a channel.
    fn map(&self, addr: u64) -> (usize, usize, u64) {
        let line = addr >> 6;
        let channel = (line % self.cfg.channels) as usize;
        let chan_addr = (line / self.cfg.channels) << 6;
        let row = chan_addr / self.cfg.row_bytes;
        let bank = (row % self.cfg.banks_per_channel) as usize;
        (channel, bank, row)
    }

    /// Services one 64 B request arriving at `now`; returns the cycle at which the
    /// data transfer completes. Also records latency/interval statistics.
    pub fn request(&mut self, addr: u64, now: Cycle, is_write: bool) -> Cycle {
        let (channel, bank_in_chan, row) = self.map(addr);
        let bank_idx = channel * self.cfg.banks_per_channel as usize + bank_in_chan;
        let bank = &mut self.banks[bank_idx];

        // Periodic refresh: when due, the bank is blocked for tRFC and its row
        // buffer is closed. Deterministic (refresh is tied to the cycle counter).
        if self.cfg.refresh_interval > 0 {
            if bank.next_refresh == 0 {
                bank.next_refresh = self.cfg.refresh_interval * (1 + bank_idx as u64 % 8) / 8;
            }
            if now >= bank.next_refresh {
                if trace::is_enabled() {
                    // Tracing needs one span per elapsed refresh, so replay them.
                    while now >= bank.next_refresh {
                        let refresh_start = bank.next_refresh.max(bank.next_free);
                        bank.next_free = refresh_start + self.cfg.refresh_latency;
                        bank.open_row = None;
                        bank.next_refresh += self.cfg.refresh_interval;
                        self.stats_refreshes += 1;
                        trace::span(
                            Track::DramBank {
                                channel: channel as u8,
                                bank: bank_in_chan as u8,
                            },
                            "refresh",
                            refresh_start,
                            refresh_start + self.cfg.refresh_latency,
                        );
                    }
                } else {
                    let catchup = refresh_catchup(
                        now,
                        bank.next_refresh,
                        bank.next_free,
                        self.cfg.refresh_interval,
                        self.cfg.refresh_latency,
                    );
                    bank.next_free = catchup.next_free;
                    bank.next_refresh = catchup.next_refresh;
                    bank.open_row = None;
                    self.stats_refreshes += catchup.refreshes;
                }
            }
        }

        let start = now.max(bank.next_free);
        let row_hit = match self.cfg.page_policy {
            PagePolicy::Open => bank.open_row == Some(row),
            PagePolicy::Closed => false,
        };
        let access_latency = match (self.cfg.page_policy, row_hit) {
            (_, true) => self.cfg.row_hit_latency,
            // Closed policy never pays the precharge-on-conflict part; approximate
            // activate + CAS as the midpoint of the Table I band.
            (PagePolicy::Closed, false) => {
                (self.cfg.row_hit_latency + self.cfg.row_miss_latency) / 2
            }
            (PagePolicy::Open, false) => self.cfg.row_miss_latency,
        };
        bank.open_row = match self.cfg.page_policy {
            PagePolicy::Open => Some(row),
            PagePolicy::Closed => None,
        };
        bank.next_free = start + self.cfg.bank_occupancy.max(1);

        // The data burst needs the channel bus once the array access is done.
        let data_ready = start + access_latency;
        let bus = &mut self.channel_bus_free[channel];
        let bus_start = data_ready.saturating_sub(self.cfg.burst_cycles).max(*bus);
        let completion = bus_start + self.cfg.burst_cycles;
        *bus = completion;

        // Statistics.
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let latency = completion - now;
        self.stats.latency_sum += latency;
        self.stats.max_latency = self.stats.max_latency.max(latency);
        self.stats.record_interval(now);

        // Observation only: the per-bank busy interval and the channel-bus burst.
        if trace::is_enabled() {
            trace::span_args(
                Track::DramBank {
                    channel: channel as u8,
                    bank: bank_in_chan as u8,
                },
                if row_hit { "row hit" } else { "row miss" },
                start,
                start + self.cfg.bank_occupancy.max(1),
                vec![
                    ("row", row.to_string()),
                    ("write", is_write.to_string()),
                    ("latency", latency.to_string()),
                ],
            );
            trace::span(
                Track::DramBus(channel as u8),
                "burst",
                bus_start,
                completion,
            );
        }

        completion
    }

    /// Current counters.
    #[inline]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Takes the counters out, leaving a fresh set (used at frame boundaries).
    pub fn take_stats(&mut self) -> DramStats {
        let width = self.stats.interval_width;
        std::mem::replace(&mut self.stats, DramStats::new(width))
    }

    /// Forgets all open rows and reservations (between independent runs).
    pub fn reset_state(&mut self) {
        for b in &mut self.banks {
            *b = Bank::default();
        }
        self.stats_refreshes = 0;
        for c in &mut self.channel_bus_free {
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig::lpddr4(), 5000)
    }

    #[test]
    fn first_access_pays_row_miss() {
        let mut d = model();
        let done = d.request(0x0, 0, false);
        // Row miss latency 100 + burst is folded into the tail; total >= 100.
        assert!(done >= 100, "got {done}");
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn same_row_hits_after_activation() {
        let mut d = model();
        let t1 = d.request(0x0, 0, false);
        // Next line in the same channel stripe: +128 with 2 channels means the next
        // same-channel line is addr + 128, which is still within the 2 KB row.
        let t2 = d.request(0x80, t1, false);
        assert_eq!(d.stats().row_hits, 1);
        assert!(
            t2 - t1 <= DramConfig::lpddr4().row_hit_latency + DramConfig::lpddr4().burst_cycles
        );
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let mut d = model();
        let cfg = DramConfig::lpddr4();
        // Two addresses in the same channel, same bank, different row: stride =
        // row_bytes * channels * banks_per_channel.
        let stride = cfg.row_bytes * cfg.channels * cfg.banks_per_channel;
        d.request(0x0, 0, false);
        d.request(stride, 0, false);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn latency_grows_with_offered_load() {
        // The paper's premise: response time rises as utilisation approaches 100%.
        // Issue N requests all at cycle 0 and observe average latency grow with N.
        let avg_lat = |n: u64| -> f64 {
            let mut d = model();
            for i in 0..n {
                d.request(i * 64, 0, false);
            }
            d.stats().avg_latency()
        };
        let light = avg_lat(4);
        let heavy = avg_lat(256);
        assert!(
            heavy > light * 2.0,
            "queueing should inflate latency: light={light}, heavy={heavy}"
        );
    }

    #[test]
    fn channel_interleaving_spreads_consecutive_lines() {
        let d = model();
        let (c0, _, _) = d.map(0x0);
        let (c1, _, _) = d.map(0x40);
        assert_ne!(c0, c1, "adjacent lines should hit different channels");
    }

    #[test]
    fn bandwidth_is_capped_by_burst_cycles() {
        let mut d = model();
        let cfg = DramConfig::lpddr4();
        let n = 1000u64;
        let mut last = 0;
        for i in 0..n {
            last = last.max(d.request(i * 64, 0, false));
        }
        // n requests over `channels` buses, each occupying burst_cycles:
        let min_time = n * cfg.burst_cycles / cfg.channels;
        assert!(last >= min_time, "finished at {last}, bus floor {min_time}");
    }

    #[test]
    fn interval_histogram_records_arrivals() {
        let mut d = model();
        d.request(0x0, 0, false);
        d.request(0x40, 4999, false);
        d.request(0x80, 5001, true);
        assert_eq!(d.stats().intervals, vec![2, 1]);
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn take_stats_resets_counters_but_keeps_width() {
        let mut d = model();
        d.request(0x0, 0, false);
        let s = d.take_stats();
        assert_eq!(s.total_accesses(), 1);
        assert_eq!(d.stats().total_accesses(), 0);
        assert_eq!(d.stats().interval_width, 5000);
    }

    #[test]
    fn tracing_emits_bank_and_bus_spans_without_changing_timing() {
        let mut plain = model();
        let mut traced = model();
        let addrs: Vec<u64> = (0..32).map(|i| i * 64).collect();
        let untraced: Vec<Cycle> = addrs.iter().map(|&a| plain.request(a, 0, false)).collect();
        trace::start();
        let with_trace: Vec<Cycle> = addrs.iter().map(|&a| traced.request(a, 0, false)).collect();
        let t = trace::finish().unwrap();
        assert_eq!(untraced, with_trace, "tracing must not perturb timing");
        let bank_spans = t
            .events
            .iter()
            .filter(|e| matches!(e.track, Track::DramBank { .. }))
            .count();
        let bus_spans = t
            .events
            .iter()
            .filter(|e| matches!(e.track, Track::DramBus(_)))
            .count();
        assert_eq!(bank_spans, addrs.len(), "one bank span per request");
        assert_eq!(bus_spans, addrs.len(), "one bus span per request");
    }

    #[test]
    fn reset_state_closes_rows() {
        let mut d = model();
        d.request(0x0, 0, false);
        d.reset_state();
        d.request(0x0, 10_000, false);
        assert_eq!(
            d.stats().row_misses,
            2,
            "row must be re-activated after reset"
        );
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use tbr_common::config::PagePolicy;

    #[test]
    fn closed_policy_never_row_hits() {
        let mut cfg = DramConfig::lpddr4();
        cfg.page_policy = PagePolicy::Closed;
        let mut d = DramModel::new(cfg, 5000);
        let mut t = 0;
        for i in 0..10u64 {
            t = d.request(i * 128, t, false); // same row under open policy
        }
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_misses, 10);
    }

    #[test]
    fn open_policy_beats_closed_for_streaming() {
        let run = |policy: PagePolicy| -> Cycle {
            let mut cfg = DramConfig::lpddr4();
            cfg.page_policy = policy;
            cfg.refresh_interval = 0;
            let mut d = DramModel::new(cfg, 5000);
            let mut t = 0;
            for i in 0..64u64 {
                t = d.request(i * 128, t, false); // streams one row
            }
            t
        };
        assert!(run(PagePolicy::Open) < run(PagePolicy::Closed));
    }

    #[test]
    fn refresh_blocks_banks_and_closes_rows() {
        let mut cfg = DramConfig::lpddr4();
        cfg.refresh_interval = 1000;
        cfg.refresh_latency = 200;
        let mut d = DramModel::new(cfg, 5000);
        d.request(0x0, 0, false);
        // Far in the future: several refreshes have elapsed, and the row is closed
        // again (row miss even though the same row is accessed).
        d.request(0x80, 10_000, false);
        assert!(d.refreshes() > 0, "refresh must have fired");
        assert_eq!(d.stats().row_hits, 0, "refresh closes the open row");
    }

    #[test]
    fn refresh_disabled_when_interval_zero() {
        let mut cfg = DramConfig::lpddr4();
        cfg.refresh_interval = 0;
        let mut d = DramModel::new(cfg, 5000);
        d.request(0x0, 0, false);
        d.request(0x80, 1_000_000, false);
        assert_eq!(d.refreshes(), 0);
        assert_eq!(d.stats().row_hits, 1, "row stays open without refresh");
    }

    #[test]
    fn refresh_catchup_matches_reference_loop() {
        // Reference: the literal per-refresh recurrence the traced path still runs.
        fn reference(
            now: Cycle,
            mut nr: Cycle,
            mut nf: Cycle,
            i: Cycle,
            l: Cycle,
        ) -> RefreshCatchup {
            let mut refreshes = 0;
            while now >= nr {
                nf = nr.max(nf) + l;
                nr += i;
                refreshes += 1;
            }
            RefreshCatchup {
                next_free: nf,
                next_refresh: nr,
                refreshes,
            }
        }
        let mut rng = tbr_common::rng::Xoshiro256pp::seed_from_u64(0x00D7_A311);
        for _ in 0..5000 {
            let interval = 1 + rng.next_u64() % 4000;
            let latency = rng.next_u64() % 600; // covers latency 0, < interval, >= interval
            let nr = rng.next_u64() % 5000;
            let nf = rng.next_u64() % 10_000;
            let now = nr + rng.next_u64() % 50_000;
            let fast = refresh_catchup(now, nr, nf, interval, latency);
            let slow = reference(now, nr, nf, interval, latency);
            assert_eq!(
                fast, slow,
                "now={now} nr={nr} nf={nf} interval={interval} latency={latency}"
            );
        }
    }

    #[test]
    fn traced_and_untraced_refresh_timing_agree() {
        let mut cfg = DramConfig::lpddr4();
        cfg.refresh_interval = 700;
        cfg.refresh_latency = 90;
        let mut plain = DramModel::new(cfg, 5000);
        let mut traced = DramModel::new(cfg, 5000);
        let times: Vec<Cycle> = (0..40).map(|i| i * i * 37).collect();
        let untraced: Vec<Cycle> = times
            .iter()
            .map(|&t| plain.request(t % 7 * 64, t, false))
            .collect();
        trace::start();
        let with_trace: Vec<Cycle> = times
            .iter()
            .map(|&t| traced.request(t % 7 * 64, t, false))
            .collect();
        let _ = trace::finish();
        assert_eq!(untraced, with_trace);
        assert_eq!(plain.refreshes(), traced.refreshes());
    }

    #[test]
    fn refreshes_are_deterministic() {
        let mut a = DramModel::new(DramConfig::lpddr4(), 5000);
        let mut b = DramModel::new(DramConfig::lpddr4(), 5000);
        for i in 0..500u64 {
            assert_eq!(
                a.request(i * 64, i * 13, false),
                b.request(i * 64, i * 13, false)
            );
        }
        assert_eq!(a.refreshes(), b.refreshes());
    }
}

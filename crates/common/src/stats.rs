//! Measurement containers filled by the simulator and consumed by the experiment
//! harness (and by LIBRA's own feedback loop).

use std::fmt::Write;

use crate::binio::{ByteReader, ByteWriter};
use crate::ids::{FrameId, TileId};
use crate::json::{self, Value};
use crate::metrics::MetricsRegistry;
use crate::Cycle;

/// Hit/miss counters of one cache (or one aggregated group of caches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses served by this level.
    pub hits: u64,
    /// Accesses that missed to the next level.
    pub misses: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `1.0` for an untouched cache (no evidence of misses).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// Publishes this counter set into `reg` as `cache_*` counters plus a
    /// `cache_hit_ratio` gauge, labelled with the given label pairs.
    pub fn publish(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add_counter("cache_accesses", labels, self.accesses);
        reg.add_counter("cache_hits", labels, self.hits);
        reg.add_counter("cache_misses", labels, self.misses);
        reg.add_counter("cache_evictions", labels, self.evictions);
        reg.set_gauge("cache_hit_ratio", labels, self.hit_ratio());
    }
}

/// DRAM traffic and timing counters, including the per-interval request histogram the
/// paper plots in Fig 7 (5 000-cycle buckets by default).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Requests that hit an open row buffer.
    pub row_hits: u64,
    /// Requests that required precharge + activate.
    pub row_misses: u64,
    /// Sum of request latencies (arrival → data), in cycles.
    pub latency_sum: u64,
    /// Largest single-request latency observed.
    pub max_latency: Cycle,
    /// Requests per interval of [`DramStats::interval_width`] cycles.
    pub intervals: Vec<u64>,
    /// Width of each histogram bucket in cycles.
    pub interval_width: Cycle,
}

impl DramStats {
    /// Creates an empty counter set with the given histogram bucket width.
    pub fn new(interval_width: Cycle) -> Self {
        Self { interval_width: interval_width.max(1), ..Self::default() }
    }

    /// Total requests (reads + writes).
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean request latency in cycles (0 if no requests).
    pub fn avg_latency(&self) -> f64 {
        let n = self.total_accesses();
        if n == 0 {
            0.0
        } else {
            self.latency_sum as f64 / n as f64
        }
    }

    /// Records one request into the histogram.
    pub fn record_interval(&mut self, at: Cycle) {
        let bucket = (at / self.interval_width.max(1)) as usize;
        if bucket >= self.intervals.len() {
            self.intervals.resize(bucket + 1, 0);
        }
        self.intervals[bucket] += 1;
    }

    /// Peak requests observed in a single interval.
    pub fn peak_interval(&self) -> u64 {
        self.intervals.iter().copied().max().unwrap_or(0)
    }

    /// Coefficient of variation (σ/μ) of the interval histogram — the paper's notion
    /// of memory-bandwidth balance. A perfectly smooth request stream scores 0.
    pub fn interval_cv(&self) -> f64 {
        if self.intervals.len() < 2 {
            return 0.0;
        }
        let n = self.intervals.len() as f64;
        let mean = self.intervals.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .intervals
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Merges another counter set.
    ///
    /// Histogram handling depends on the bucket widths:
    /// * merging into a `Default` instance (width 0, no samples) adopts the
    ///   other side's width,
    /// * equal widths add bucket-wise,
    /// * a width that is an exact multiple of the other re-buckets the finer
    ///   histogram into the coarser one (the merged histogram keeps the coarser
    ///   width, so counts stay exact),
    /// * anything else is a programming error and panics — the old behaviour of
    ///   silently adding bucket `i` of a 5 000-cycle histogram to bucket `i` of
    ///   a 1 000-cycle one produced meaningless Fig-7 curves.
    ///
    /// # Panics
    /// Panics when both histograms carry samples at incommensurable widths.
    pub fn merge(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.latency_sum += other.latency_sum;
        self.max_latency = self.max_latency.max(other.max_latency);
        // Effective widths: `record_interval` clamps a width of 0 (the `Default`
        // instance) to 1; a histogram with no samples is width-agnostic (0 here).
        let self_w = if self.intervals.is_empty() { 0 } else { self.interval_width.max(1) };
        let other_w = if other.intervals.is_empty() { 0 } else { other.interval_width.max(1) };
        match (self_w, other_w) {
            (_, 0) => {
                // Other has no samples; still adopt its width if we are a bare
                // `Default` accumulator so later merges use it.
                if self.interval_width == 0 {
                    self.interval_width = other.interval_width;
                }
            }
            (0, w) => {
                // We have no samples yet: take the other histogram wholesale.
                self.interval_width = w;
                self.intervals = other.intervals.clone();
            }
            (a, b) if a == b => {
                if self.intervals.len() < other.intervals.len() {
                    self.intervals.resize(other.intervals.len(), 0);
                }
                for (dst, src) in self.intervals.iter_mut().zip(&other.intervals) {
                    *dst += src;
                }
            }
            (a, b) if a.is_multiple_of(b) => {
                // Other is finer: fold its buckets into our coarser ones.
                for (i, &count) in other.intervals.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let ci = (i as u64 * b / a) as usize;
                    if ci >= self.intervals.len() {
                        self.intervals.resize(ci + 1, 0);
                    }
                    self.intervals[ci] += count;
                }
            }
            (a, b) if b.is_multiple_of(a) => {
                // We are finer: coarsen ourselves to the other's width, then add.
                let mut coarse: Vec<u64> = Vec::new();
                for (i, &count) in self.intervals.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let ci = (i as u64 * a / b) as usize;
                    if ci >= coarse.len() {
                        coarse.resize(ci + 1, 0);
                    }
                    coarse[ci] += count;
                }
                self.interval_width = b;
                self.intervals = coarse;
                if self.intervals.len() < other.intervals.len() {
                    self.intervals.resize(other.intervals.len(), 0);
                }
                for (dst, src) in self.intervals.iter_mut().zip(&other.intervals) {
                    *dst += src;
                }
            }
            (a, b) => panic!(
                "DramStats::merge: incommensurable interval widths {a} and {b} \
                 (one must divide the other)"
            ),
        }
    }

    /// Publishes these counters into `reg` as `dram_*` metrics (counters, latency
    /// gauges and the Fig-7 interval histogram), labelled with the given pairs.
    pub fn publish(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add_counter("dram_reads", labels, self.reads);
        reg.add_counter("dram_writes", labels, self.writes);
        reg.add_counter("dram_row_hits", labels, self.row_hits);
        reg.add_counter("dram_row_misses", labels, self.row_misses);
        reg.set_gauge("dram_avg_latency_cycles", labels, self.avg_latency());
        reg.set_gauge("dram_max_latency_cycles", labels, self.max_latency as f64);
        reg.set_gauge("dram_interval_cv", labels, self.interval_cv());
        reg.set_histogram(
            "dram_requests_per_interval",
            labels,
            self.interval_width,
            self.intervals.clone(),
        );
    }
}

/// Per-tile tallies of the quantities LIBRA's hardware counts (§III-B): DRAM accesses
/// and executed instructions — plus fragment/warp counts for analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileTally {
    /// DRAM accesses attributed to this tile's rendering.
    pub dram_accesses: u64,
    /// Shader instructions executed for this tile.
    pub instructions: u64,
    /// Fragments shaded in this tile.
    pub fragments: u64,
    /// Warps launched for this tile.
    pub warps: u64,
}

/// Per-tile statistics of a whole frame (the heatmap of Fig 2, and LIBRA's feedback).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileHeatmap {
    /// Tally per tile, indexed by [`TileId::index`].
    pub tiles: Vec<TileTally>,
}

impl TileHeatmap {
    /// An all-zero heatmap for `num_tiles` tiles.
    pub fn new(num_tiles: usize) -> Self {
        Self { tiles: vec![TileTally::default(); num_tiles] }
    }

    /// Mutable tally of a tile.
    ///
    /// # Panics
    /// Panics if `tile` is out of range.
    #[inline]
    pub fn tally_mut(&mut self, tile: TileId) -> &mut TileTally {
        &mut self.tiles[tile.index()]
    }

    /// Tally of a tile.
    ///
    /// # Panics
    /// Panics if `tile` is out of range.
    #[inline]
    pub fn tally(&self, tile: TileId) -> &TileTally {
        &self.tiles[tile.index()]
    }

    /// Total DRAM accesses across all tiles.
    pub fn total_dram_accesses(&self) -> u64 {
        self.tiles.iter().map(|t| t.dram_accesses).sum()
    }

    /// Cumulative distribution of the relative per-tile DRAM-access difference against
    /// `previous` — the frame-coherence metric of Fig 8. Returns, for each threshold
    /// in `thresholds` (fractions, e.g. 0.2 = 20 %), the fraction of tiles whose
    /// relative difference is below it. Tiles with zero accesses in both frames count
    /// as perfectly coherent.
    pub fn coherence_cdf(&self, previous: &TileHeatmap, thresholds: &[f64]) -> Vec<f64> {
        assert_eq!(self.tiles.len(), previous.tiles.len(), "heatmap sizes differ");
        if self.tiles.is_empty() {
            return thresholds.iter().map(|_| 1.0).collect();
        }
        let diffs: Vec<f64> = self
            .tiles
            .iter()
            .zip(&previous.tiles)
            .map(|(cur, prev)| {
                let a = cur.dram_accesses as f64;
                let b = prev.dram_accesses as f64;
                let denom = a.max(b);
                if denom == 0.0 {
                    0.0
                } else {
                    (a - b).abs() / denom
                }
            })
            .collect();
        thresholds
            .iter()
            .map(|&t| diffs.iter().filter(|&&d| d <= t).count() as f64 / diffs.len() as f64)
            .collect()
    }
}

/// Everything measured while rendering one frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameStats {
    /// Which frame of the sequence this is.
    pub frame: FrameId,
    /// Cycles spent in the geometry pipeline + tiling engine (sort-middle phase).
    pub geometry_cycles: Cycle,
    /// Cycles spent in the raster pipeline (tile rendering), the dominant phase.
    pub raster_cycles: Cycle,
    /// Vertex-cache counters.
    pub vertex_cache: CacheStats,
    /// Tile-cache counters (aggregated over Raster Units).
    pub tile_cache: CacheStats,
    /// Texture-cache counters (aggregated over all shader cores).
    pub texture_cache: CacheStats,
    /// Shared-L2 counters.
    pub l2_cache: CacheStats,
    /// DRAM counters and interval histogram.
    pub dram: DramStats,
    /// Per-tile heatmap (Fig 2) and LIBRA feedback source.
    pub heatmap: TileHeatmap,
    /// Vertices processed by the geometry pipeline.
    pub vertices: u64,
    /// Primitives that survived culling/clipping and were binned.
    pub primitives: u64,
    /// Fragments shaded.
    pub fragments: u64,
    /// Warps executed.
    pub warps: u64,
    /// Shader instructions executed (ALU + texture).
    pub instructions: u64,
    /// Texture requests issued by warps (line-granular).
    pub texture_requests: u64,
    /// Sum of texture request latencies in cycles (for Fig 12's average latency).
    pub texture_latency_sum: u64,
    /// Texture lines filled into L1 texture caches (counting duplicates across cores).
    pub texture_fill_lines: u64,
    /// Distinct texture lines touched frame-wide (replication = fills / unique).
    pub texture_unique_lines: u64,
    /// Simulator micro-events processed for this frame (geometry fetch/bin events
    /// plus raster event-loop decisions). A *simulator*-side measure — the basis
    /// of the repository benchmark's ns/event — not a property of the GPU.
    pub micro_events: u64,
}

impl FrameStats {
    /// Total frame time in cycles (geometry phase + raster phase; sort-middle TBR
    /// renders them back to back).
    pub fn total_cycles(&self) -> Cycle {
        self.geometry_cycles + self.raster_cycles
    }

    /// Mean texture-request latency in cycles.
    pub fn avg_texture_latency(&self) -> f64 {
        if self.texture_requests == 0 {
            0.0
        } else {
            self.texture_latency_sum as f64 / self.texture_requests as f64
        }
    }

    /// Texture-line replication factor across L1s (≥ 1; 1 = no line fetched by more
    /// than one core). Fig 13's companion metric.
    pub fn texture_replication(&self) -> f64 {
        if self.texture_unique_lines == 0 {
            1.0
        } else {
            self.texture_fill_lines as f64 / self.texture_unique_lines as f64
        }
    }

    /// Fraction of the frame spent in the raster phase (Fig 1; paper average ≈ 88 %).
    pub fn raster_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.raster_cycles as f64 / total as f64
        }
    }

    /// Publishes every counter of this frame into `reg`, labelled with the given
    /// pairs (callers typically add a `frame` label). Caches publish under a
    /// `cache` label; DRAM under `dram_*`.
    pub fn publish(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let with = |extra: (&'static str, &str), labels: &[(&str, &str)]| -> Vec<(String, String)> {
            let mut v: Vec<(String, String)> =
                labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
            v.push((extra.0.to_string(), extra.1.to_string()));
            v
        };
        for (name, cache) in [
            ("vertex", &self.vertex_cache),
            ("tile", &self.tile_cache),
            ("texture", &self.texture_cache),
            ("l2", &self.l2_cache),
        ] {
            let owned = with(("cache", name), labels);
            let borrowed: Vec<(&str, &str)> =
                owned.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            cache.publish(reg, &borrowed);
        }
        self.dram.publish(reg, labels);
        reg.add_counter("geometry_cycles", labels, self.geometry_cycles);
        reg.add_counter("raster_cycles", labels, self.raster_cycles);
        reg.add_counter("vertices", labels, self.vertices);
        reg.add_counter("primitives", labels, self.primitives);
        reg.add_counter("fragments", labels, self.fragments);
        reg.add_counter("warps", labels, self.warps);
        reg.add_counter("instructions", labels, self.instructions);
        reg.add_counter("texture_requests", labels, self.texture_requests);
        reg.add_counter("micro_events", labels, self.micro_events);
        reg.set_gauge("texture_avg_latency_cycles", labels, self.avg_texture_latency());
        reg.set_gauge("texture_replication", labels, self.texture_replication());
        reg.set_gauge("raster_fraction", labels, self.raster_fraction());
    }
}

/// Statistics of a rendered frame sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SequenceStats {
    /// Per-frame statistics, in render order.
    pub frames: Vec<FrameStats>,
}

impl SequenceStats {
    /// Sum of all frame times in cycles.
    pub fn total_cycles(&self) -> Cycle {
        self.frames.iter().map(FrameStats::total_cycles).sum()
    }

    /// Sum of raster-phase cycles only.
    pub fn raster_cycles(&self) -> Cycle {
        self.frames.iter().map(|f| f.raster_cycles).sum()
    }

    /// Mean frame time in cycles.
    pub fn avg_frame_cycles(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.total_cycles() as f64 / self.frames.len() as f64
        }
    }

    /// Speedup of `self` relative to `other` (> 1 means `self` is faster).
    pub fn speedup_over(&self, other: &SequenceStats) -> f64 {
        let mine = self.total_cycles();
        if mine == 0 {
            return 0.0;
        }
        other.total_cycles() as f64 / mine as f64
    }

    /// Aggregate texture hit ratio over the sequence.
    pub fn texture_hit_ratio(&self) -> f64 {
        let mut agg = CacheStats::default();
        for f in &self.frames {
            agg.merge(&f.texture_cache);
        }
        agg.hit_ratio()
    }

    /// Aggregate shared-L2 hit ratio over the sequence.
    pub fn l2_hit_ratio(&self) -> f64 {
        let mut agg = CacheStats::default();
        for f in &self.frames {
            agg.merge(&f.l2_cache);
        }
        agg.hit_ratio()
    }

    /// Aggregate tile-cache (colour/depth buffer) hit ratio over the sequence.
    pub fn tile_hit_ratio(&self) -> f64 {
        let mut agg = CacheStats::default();
        for f in &self.frames {
            agg.merge(&f.tile_cache);
        }
        agg.hit_ratio()
    }

    /// Mean texture latency over the sequence, in cycles.
    pub fn avg_texture_latency(&self) -> f64 {
        let reqs: u64 = self.frames.iter().map(|f| f.texture_requests).sum();
        let lat: u64 = self.frames.iter().map(|f| f.texture_latency_sum).sum();
        if reqs == 0 {
            0.0
        } else {
            lat as f64 / reqs as f64
        }
    }

    /// Total DRAM accesses over the sequence.
    pub fn total_dram_accesses(&self) -> u64 {
        self.frames.iter().map(|f| f.dram.total_accesses()).sum()
    }

    /// Mean texture-line replication factor over the sequence.
    pub fn avg_texture_replication(&self) -> f64 {
        if self.frames.is_empty() {
            return 1.0;
        }
        self.frames.iter().map(FrameStats::texture_replication).sum::<f64>()
            / self.frames.len() as f64
    }
}

// ---------------------------------------------------------------------------
// Exact encodings (campaign checkpoints and `libra-wire-v1` result records).
//
// Every field of `SequenceStats` is an unsigned integer, so both encodings
// round-trip *bit-exactly*: a job result reloaded from a checkpoint compares
// equal (`PartialEq`) to the in-memory result of running the job — the
// property campaign resume rests on.
//
// Each type lists its fields once, in encoding order, in its `walk` over a
// `Codec`; a JSON and a binary writer/reader pair turn that one list into both
// formats:
//
// * JSON: one object per record, keyed by field name; four-counter groups
//   (`CacheStats`, heatmap tiles) are compact arrays `[a,b,c,d]`. Integers are
//   read back through `json::Value::as_u64`, which rejects anything that would
//   not survive the `f64` number representation (> 2^53) instead of rounding.
// * Binary (`libra-ckpt-bin-v1` payloads): the same fields in the same order,
//   little-endian via `binio`, so the bytes are identical on every host. Lists
//   carry a `u32` count; there is no per-struct framing — the enclosing
//   checkpoint frame provides length and version.
// ---------------------------------------------------------------------------

/// Outcome of visiting one field.
type Visit = Result<(), String>;

/// One exact encoding, driven field by field by a type's `walk`. Writers
/// read the fields they are handed; readers overwrite them. `key` names the
/// field; the elements of a list are visited with an empty key.
trait Codec {
    /// The frame index.
    fn u32(&mut self, key: &'static str, v: &mut u32) -> Visit;
    /// One counter.
    fn u64(&mut self, key: &'static str, v: &mut u64) -> Visit;
    /// A group of four counters (by default, four counters in a row).
    fn quad(&mut self, key: &'static str, v: [&mut u64; 4]) -> Visit {
        v.into_iter().try_for_each(|n| self.u64(key, n))
    }
    /// A nested record whose fields `walk` visits (by default, unframed).
    fn record(&mut self, _key: &'static str, walk: impl FnOnce(&mut Self) -> Visit) -> Visit {
        walk(self)
    }
    /// A list whose elements `item` visits.
    fn list<T: Default>(
        &mut self,
        key: &'static str,
        v: &mut Vec<T>,
        item: impl FnMut(&mut T, &mut Self) -> Visit,
    ) -> Visit;
}

impl CacheStats {
    fn counters(&mut self) -> [&mut u64; 4] {
        [&mut self.accesses, &mut self.hits, &mut self.misses, &mut self.evictions]
    }
}

impl TileTally {
    fn counters(&mut self) -> [&mut u64; 4] {
        [&mut self.dram_accesses, &mut self.instructions, &mut self.fragments, &mut self.warps]
    }
}

impl DramStats {
    fn walk(&mut self, c: &mut impl Codec) -> Visit {
        c.u64("reads", &mut self.reads)?;
        c.u64("writes", &mut self.writes)?;
        c.u64("row_hits", &mut self.row_hits)?;
        c.u64("row_misses", &mut self.row_misses)?;
        c.u64("latency_sum", &mut self.latency_sum)?;
        c.u64("max_latency", &mut self.max_latency)?;
        c.u64("interval_width", &mut self.interval_width)?;
        c.list("intervals", &mut self.intervals, |n, c| c.u64("", n))
    }
}

impl FrameStats {
    fn walk(&mut self, c: &mut impl Codec) -> Visit {
        c.u32("frame", &mut self.frame.0)?;
        c.u64("geometry_cycles", &mut self.geometry_cycles)?;
        c.u64("raster_cycles", &mut self.raster_cycles)?;
        c.quad("vertex_cache", self.vertex_cache.counters())?;
        c.quad("tile_cache", self.tile_cache.counters())?;
        c.quad("texture_cache", self.texture_cache.counters())?;
        c.quad("l2_cache", self.l2_cache.counters())?;
        c.record("dram", |c| self.dram.walk(c))?;
        c.list("heatmap", &mut self.heatmap.tiles, |t, c| c.quad("", t.counters()))?;
        c.u64("vertices", &mut self.vertices)?;
        c.u64("primitives", &mut self.primitives)?;
        c.u64("fragments", &mut self.fragments)?;
        c.u64("warps", &mut self.warps)?;
        c.u64("instructions", &mut self.instructions)?;
        c.u64("texture_requests", &mut self.texture_requests)?;
        c.u64("texture_latency_sum", &mut self.texture_latency_sum)?;
        c.u64("texture_fill_lines", &mut self.texture_fill_lines)?;
        c.u64("texture_unique_lines", &mut self.texture_unique_lines)?;
        c.u64("micro_events", &mut self.micro_events)
    }
}

impl SequenceStats {
    fn walk(&mut self, c: &mut impl Codec) -> Visit {
        c.list("frames", &mut self.frames, |f, c| c.record("", |c| f.walk(c)))
    }

    /// Serialises the whole sequence as `{"frames":[...]}`;
    /// [`SequenceStats::from_json`] reproduces a value that compares equal
    /// bit-for-bit.
    pub fn to_json(&self) -> String {
        let out = String::with_capacity(256 + self.frames.len() * 512);
        let mut w = JsonWriter { out, first: true };
        // `walk` lends out `&mut` fields for the readers to fill, so the
        // writers walk a copy.
        w.nest('{', |c| self.clone().walk(c), '}').expect("writers never fail");
        w.out
    }

    /// Parses a document written by [`SequenceStats::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(text)?, "stats")
    }

    /// Parses an already-parsed [`Value`] (used when the stats object is embedded
    /// in a larger document, e.g. a checkpoint record).
    pub fn from_value(v: &Value, what: &str) -> Result<Self, String> {
        let mut s = Self::default();
        s.walk(&mut JsonReader { v, what: what.to_string() })?;
        Ok(s)
    }

    /// Appends the whole sequence as `u32` frame count + frames. The round trip
    /// through [`SequenceStats::from_reader`] is bit-exact, and the bytes are
    /// identical on every host.
    pub fn to_binary_into(&self, w: &mut ByteWriter) {
        self.clone().walk(&mut BinWriter(w)).expect("writers never fail");
    }

    /// Reads the form written by [`SequenceStats::to_binary_into`].
    pub fn from_reader(r: &mut ByteReader<'_>, what: &str) -> Result<Self, String> {
        let mut s = Self::default();
        s.walk(&mut BinReader { r, what: what.to_string() })?;
        Ok(s)
    }
}

/// The location of field `key` inside the record at `what`.
fn located(what: &str, key: &str) -> String {
    if key.is_empty() {
        what.to_string()
    } else {
        format!("{what}.{key}")
    }
}

struct JsonWriter {
    out: String,
    /// Nothing has been written yet inside the innermost object or array.
    first: bool,
}

impl JsonWriter {
    /// Starts a member (`"key":`) or, for an empty key, an array element.
    fn key(&mut self, key: &str) {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        if !key.is_empty() {
            let _ = write!(self.out, "\"{key}\":");
        }
    }

    /// Writes `open`, whatever `walk` writes, then `close`.
    fn nest(&mut self, open: char, walk: impl FnOnce(&mut Self) -> Visit, close: char) -> Visit {
        self.out.push(open);
        self.first = true;
        walk(self)?;
        self.first = false;
        self.out.push(close);
        Ok(())
    }
}

impl Codec for JsonWriter {
    fn u32(&mut self, key: &'static str, v: &mut u32) -> Visit {
        self.u64(key, &mut u64::from(*v))
    }

    fn u64(&mut self, key: &'static str, v: &mut u64) -> Visit {
        self.key(key);
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    fn quad(&mut self, key: &'static str, v: [&mut u64; 4]) -> Visit {
        self.key(key);
        self.nest('[', |c| v.into_iter().try_for_each(|n| c.u64("", n)), ']')
    }

    fn record(&mut self, key: &'static str, walk: impl FnOnce(&mut Self) -> Visit) -> Visit {
        self.key(key);
        self.nest('{', walk, '}')
    }

    fn list<T: Default>(
        &mut self,
        key: &'static str,
        v: &mut Vec<T>,
        mut item: impl FnMut(&mut T, &mut Self) -> Visit,
    ) -> Visit {
        self.key(key);
        self.nest('[', |c| v.iter_mut().try_for_each(|t| item(t, c)), ']')
    }
}

/// Reads JSON: `v` is the innermost value, located at `what`.
struct JsonReader<'a> {
    v: &'a Value,
    what: String,
}

impl<'a> JsonReader<'a> {
    /// Member `key` of the innermost object, or the innermost value itself
    /// for an empty key (a list element).
    fn member(&self, key: &str) -> Result<&'a Value, String> {
        if key.is_empty() {
            Ok(self.v)
        } else {
            json::field(self.v, key, &self.what)
        }
    }

    fn array(&self, key: &str) -> Result<&'a [Value], String> {
        let v = self.member(key)?;
        v.as_array().ok_or_else(|| format!("{}: expected an array", located(&self.what, key)))
    }

    /// Runs `walk` with `v`, located at `what`, as the innermost value.
    fn within(
        &mut self,
        v: &'a Value,
        what: String,
        walk: impl FnOnce(&mut Self) -> Visit,
    ) -> Visit {
        let outer = (std::mem::replace(&mut self.v, v), std::mem::replace(&mut self.what, what));
        let res = walk(self);
        (self.v, self.what) = outer;
        res
    }
}

impl Codec for JsonReader<'_> {
    fn u32(&mut self, key: &'static str, v: &mut u32) -> Visit {
        let mut wide = 0;
        self.u64(key, &mut wide)?;
        *v = u32::try_from(wide)
            .map_err(|_| format!("{}: out of range", located(&self.what, key)))?;
        Ok(())
    }

    fn u64(&mut self, key: &'static str, v: &mut u64) -> Visit {
        *v = self
            .member(key)?
            .as_u64()
            .ok_or_else(|| format!("{}: expected an exact integer", located(&self.what, key)))?;
        Ok(())
    }

    fn quad(&mut self, key: &'static str, v: [&mut u64; 4]) -> Visit {
        let (items, what) = (self.array(key)?, located(&self.what, key));
        if items.len() != 4 {
            return Err(format!("{what}: expected 4 counters, got {}", items.len()));
        }
        for (i, (n, item)) in v.into_iter().zip(items).enumerate() {
            *n = item.as_u64().ok_or_else(|| format!("{what}[{i}]: expected an exact integer"))?;
        }
        Ok(())
    }

    fn record(&mut self, key: &'static str, walk: impl FnOnce(&mut Self) -> Visit) -> Visit {
        let v = self.member(key)?;
        self.within(v, located(&self.what, key), walk)
    }

    fn list<T: Default>(
        &mut self,
        key: &'static str,
        v: &mut Vec<T>,
        mut item: impl FnMut(&mut T, &mut Self) -> Visit,
    ) -> Visit {
        let (items, what) = (self.array(key)?, located(&self.what, key));
        v.clear();
        for (i, e) in items.iter().enumerate() {
            let mut t = T::default();
            self.within(e, format!("{what}[{i}]"), |c| item(&mut t, c))?;
            v.push(t);
        }
        Ok(())
    }
}

struct BinWriter<'w>(&'w mut ByteWriter);

impl Codec for BinWriter<'_> {
    fn u32(&mut self, _: &'static str, v: &mut u32) -> Visit {
        self.0.u32(*v);
        Ok(())
    }

    fn u64(&mut self, _: &'static str, v: &mut u64) -> Visit {
        self.0.u64(*v);
        Ok(())
    }

    fn list<T: Default>(
        &mut self,
        key: &'static str,
        v: &mut Vec<T>,
        mut item: impl FnMut(&mut T, &mut Self) -> Visit,
    ) -> Visit {
        assert!(v.len() <= u32::MAX as usize, "{key}: {} entries overflow the count", v.len());
        self.0.u32(v.len() as u32);
        v.iter_mut().try_for_each(|t| item(t, self))
    }
}

/// Reads binary: `what` locates the innermost record.
struct BinReader<'r, 'a> {
    r: &'r mut ByteReader<'a>,
    what: String,
}

impl BinReader<'_, '_> {
    /// The error of a read of field `key` that ran out of bytes (the only way
    /// a read fails), built only when it does.
    fn truncated(&self, key: &str) -> String {
        let at = self.r.position();
        format!("truncated: reading {} at offset {at}", located(&self.what, key))
    }

    /// Runs `walk` with the innermost record located at `what`.
    fn within(&mut self, what: String, walk: impl FnOnce(&mut Self) -> Visit) -> Visit {
        let outer = std::mem::replace(&mut self.what, what);
        let res = walk(self);
        self.what = outer;
        res
    }
}

impl Codec for BinReader<'_, '_> {
    fn u32(&mut self, key: &'static str, v: &mut u32) -> Visit {
        *v = self.r.u32(key).map_err(|_| self.truncated(key))?;
        Ok(())
    }

    fn u64(&mut self, key: &'static str, v: &mut u64) -> Visit {
        *v = self.r.u64(key).map_err(|_| self.truncated(key))?;
        Ok(())
    }

    fn record(&mut self, key: &'static str, walk: impl FnOnce(&mut Self) -> Visit) -> Visit {
        self.within(located(&self.what, key), walk)
    }

    fn list<T: Default>(
        &mut self,
        key: &'static str,
        v: &mut Vec<T>,
        mut item: impl FnMut(&mut T, &mut Self) -> Visit,
    ) -> Visit {
        let mut n = 0;
        self.u32(key, &mut n)?;
        // Elements are pushed as they decode, so a corrupt count runs into a
        // truncation error rather than a huge allocation.
        let what = located(&self.what, key);
        v.clear();
        for i in 0..n {
            let mut t = T::default();
            self.within(format!("{what}[{i}]"), |c| item(&mut t, c))?;
            v.push(t);
        }
        Ok(())
    }
}

/// Fraction of execution time attributable to memory, measured the way the paper does
/// for Fig 6a: run with a realistic memory system and again with an ideal (always-hit)
/// one; the difference is memory time.
pub fn memory_time_fraction(real_cycles: Cycle, ideal_cycles: Cycle) -> f64 {
    if real_cycles == 0 {
        return 0.0;
    }
    let real = real_cycles as f64;
    let ideal = ideal_cycles.min(real_cycles) as f64;
    (real - ideal) / real
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_hit_ratio() {
        let s = CacheStats { accesses: 10, hits: 7, misses: 3, evictions: 0 };
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn cache_stats_merge_adds() {
        let mut a = CacheStats { accesses: 1, hits: 1, misses: 0, evictions: 0 };
        a.merge(&CacheStats { accesses: 3, hits: 1, misses: 2, evictions: 1 });
        assert_eq!(a, CacheStats { accesses: 4, hits: 2, misses: 2, evictions: 1 });
    }

    #[test]
    fn dram_interval_histogram() {
        let mut d = DramStats::new(100);
        d.record_interval(5);
        d.record_interval(99);
        d.record_interval(100);
        d.record_interval(350);
        assert_eq!(d.intervals, vec![2, 1, 0, 1]);
        assert_eq!(d.peak_interval(), 2);
    }

    #[test]
    fn interval_cv_zero_for_uniform_and_positive_for_bursty() {
        let mut smooth = DramStats::new(10);
        smooth.intervals = vec![5, 5, 5, 5];
        assert!(smooth.interval_cv() < 1e-12);
        let mut bursty = DramStats::new(10);
        bursty.intervals = vec![0, 20, 0, 0];
        assert!(bursty.interval_cv() > 1.0);
    }

    #[test]
    fn dram_merge_adds_histograms() {
        let mut a = DramStats::new(10);
        a.intervals = vec![1, 2];
        a.reads = 3;
        let mut b = DramStats::new(10);
        b.intervals = vec![4, 5, 6];
        b.writes = 2;
        b.max_latency = 77;
        a.merge(&b);
        assert_eq!(a.intervals, vec![5, 7, 6]);
        assert_eq!(a.total_accesses(), 5);
        assert_eq!(a.max_latency, 77);
    }

    #[test]
    fn dram_merge_into_default_adopts_width() {
        let mut agg = DramStats::default();
        let mut d = DramStats::new(5000);
        d.record_interval(4999);
        d.record_interval(5001);
        agg.merge(&d);
        assert_eq!(agg.interval_width, 5000);
        assert_eq!(agg.intervals, vec![1, 1]);
        // A second merge at the adopted width keeps adding bucket-wise.
        agg.merge(&d);
        assert_eq!(agg.intervals, vec![2, 2]);
    }

    #[test]
    fn dram_merge_rebuckets_commensurable_widths() {
        // Finer into coarser: width 1000 samples fold into width 5000 buckets.
        let mut coarse = DramStats::new(5000);
        coarse.record_interval(0);
        let mut fine = DramStats::new(1000);
        fine.record_interval(500); // fine bucket 0 -> coarse bucket 0
        fine.record_interval(6100); // fine bucket 6 -> coarse bucket 1
        coarse.merge(&fine);
        assert_eq!(coarse.interval_width, 5000);
        assert_eq!(coarse.intervals, vec![2, 1]);
        // Coarser into finer: the accumulator coarsens itself to the wider width.
        let mut acc = DramStats::new(1000);
        acc.record_interval(500);
        acc.record_interval(6100);
        let mut wide = DramStats::new(5000);
        wide.record_interval(0);
        acc.merge(&wide);
        assert_eq!(acc.interval_width, 5000);
        assert_eq!(acc.intervals, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "incommensurable interval widths")]
    fn dram_merge_rejects_incommensurable_widths() {
        let mut a = DramStats::new(3000);
        a.record_interval(0);
        let mut b = DramStats::new(2000);
        b.record_interval(0);
        a.merge(&b);
    }

    #[test]
    fn publish_fills_registry() {
        let mut f = FrameStats {
            geometry_cycles: 100,
            raster_cycles: 900,
            ..FrameStats::default()
        };
        f.l2_cache = CacheStats { accesses: 10, hits: 6, misses: 4, evictions: 0 };
        f.dram = DramStats::new(5000);
        f.dram.reads = 12;
        let mut reg = MetricsRegistry::new();
        f.publish(&mut reg, &[("frame", "0")]);
        assert_eq!(
            reg.counter_value("cache_hits", &[("frame", "0"), ("cache", "l2")]),
            Some(6)
        );
        assert_eq!(reg.counter_value("dram_reads", &[("frame", "0")]), Some(12));
        assert_eq!(reg.counter_value("raster_cycles", &[("frame", "0")]), Some(900));
    }

    #[test]
    fn sequence_hierarchy_hit_ratios() {
        let f = FrameStats {
            l2_cache: CacheStats { accesses: 8, hits: 2, misses: 6, evictions: 0 },
            tile_cache: CacheStats { accesses: 4, hits: 3, misses: 1, evictions: 0 },
            ..FrameStats::default()
        };
        let s = SequenceStats { frames: vec![f] };
        assert!((s.l2_hit_ratio() - 0.25).abs() < 1e-12);
        assert!((s.tile_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn heatmap_coherence_cdf_identical_frames() {
        let mut h = TileHeatmap::new(4);
        for (i, t) in h.tiles.iter_mut().enumerate() {
            t.dram_accesses = (i as u64 + 1) * 10;
        }
        let cdf = h.coherence_cdf(&h.clone(), &[0.0, 0.2]);
        assert_eq!(cdf, vec![1.0, 1.0]);
    }

    #[test]
    fn heatmap_coherence_cdf_disjoint_frames() {
        let mut a = TileHeatmap::new(2);
        a.tiles[0].dram_accesses = 100;
        let mut b = TileHeatmap::new(2);
        b.tiles[1].dram_accesses = 100;
        // Tile 0: 100 vs 0 -> diff 1.0; tile 1: 0 vs 100 -> diff 1.0.
        let cdf = a.coherence_cdf(&b, &[0.5, 1.0]);
        assert_eq!(cdf, vec![0.0, 1.0]);
    }

    #[test]
    fn frame_stats_derived_metrics() {
        let f = FrameStats {
            geometry_cycles: 120,
            raster_cycles: 880,
            texture_requests: 4,
            texture_latency_sum: 40,
            texture_fill_lines: 30,
            texture_unique_lines: 10,
            ..FrameStats::default()
        };
        assert_eq!(f.total_cycles(), 1000);
        assert!((f.raster_fraction() - 0.88).abs() < 1e-12);
        assert!((f.avg_texture_latency() - 10.0).abs() < 1e-12);
        assert!((f.texture_replication() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_speedup() {
        let slow = SequenceStats {
            frames: vec![FrameStats { raster_cycles: 200, ..FrameStats::default() }],
        };
        let fast = SequenceStats {
            frames: vec![FrameStats { raster_cycles: 100, ..FrameStats::default() }],
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_stats_json_round_trip_is_exact() {
        let mut heatmap = TileHeatmap::new(3);
        heatmap.tiles[1] =
            TileTally { dram_accesses: 11, instructions: 22, fragments: 33, warps: 44 };
        let mut dram = DramStats::new(5000);
        dram.reads = 123;
        dram.writes = 45;
        dram.row_hits = 100;
        dram.row_misses = 68;
        dram.latency_sum = 987_654;
        dram.max_latency = 321;
        dram.record_interval(4_999);
        dram.record_interval(12_000);
        let frame = FrameStats {
            frame: FrameId(7),
            geometry_cycles: 1_000,
            raster_cycles: 9_000,
            vertex_cache: CacheStats { accesses: 1, hits: 2, misses: 3, evictions: 4 },
            tile_cache: CacheStats { accesses: 5, hits: 6, misses: 7, evictions: 8 },
            texture_cache: CacheStats { accesses: 9, hits: 10, misses: 11, evictions: 12 },
            l2_cache: CacheStats { accesses: 13, hits: 14, misses: 15, evictions: 16 },
            dram,
            heatmap,
            vertices: 17,
            primitives: 18,
            fragments: 19,
            warps: 20,
            instructions: 21,
            texture_requests: 22,
            texture_latency_sum: 23,
            texture_fill_lines: 24,
            texture_unique_lines: 25,
            micro_events: 26,
        };
        let seq = SequenceStats { frames: vec![frame.clone(), FrameStats::default(), frame] };
        let round = SequenceStats::from_json(&seq.to_json()).expect("round trip");
        assert_eq!(round, seq, "JSON round trip must be bit-exact");
        // And the document itself is well-formed for the in-repo parser.
        assert!(json::parse(&seq.to_json()).is_ok());
    }

    #[test]
    fn sequence_stats_binary_round_trip_is_bit_exact() {
        let mut heatmap = TileHeatmap::new(2);
        heatmap.tiles[0] =
            TileTally { dram_accesses: 1, instructions: 2, fragments: 3, warps: 4 };
        let mut dram = DramStats::new(5000);
        dram.reads = 9;
        dram.record_interval(4_999);
        dram.record_interval(12_000);
        let frame = FrameStats {
            frame: FrameId(3),
            geometry_cycles: 10,
            raster_cycles: 90,
            l2_cache: CacheStats { accesses: 13, hits: 14, misses: 15, evictions: 16 },
            dram,
            heatmap,
            micro_events: 77,
            ..FrameStats::default()
        };
        let seq = SequenceStats { frames: vec![frame, FrameStats::default()] };
        let mut w = ByteWriter::new();
        seq.to_binary_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let round = SequenceStats::from_reader(&mut r, "stats").expect("round trip");
        assert_eq!(round, seq, "binary round trip must be bit-exact");
        assert!(r.is_empty(), "decoder must consume exactly the encoded bytes");
        // Truncation degrades into a located error, never a panic.
        let err = SequenceStats::from_reader(
            &mut ByteReader::new(&bytes[..bytes.len() - 1]),
            "stats",
        )
        .unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn sequence_stats_from_json_names_the_broken_field() {
        let err = SequenceStats::from_json("{\"frames\":[{\"frame\":0}]}").unwrap_err();
        assert!(err.contains("frames[0]"), "error should locate the frame: {err}");
        assert!(err.contains("missing field"), "error should name the problem: {err}");
        let err = SequenceStats::from_json("{}").unwrap_err();
        assert!(err.contains("frames"), "error should name the field: {err}");
        let err = SequenceStats::from_json("[1,2]").unwrap_err();
        assert!(err.contains("frames"), "non-object documents are rejected: {err}");
    }

    #[test]
    fn memory_fraction_clamps() {
        assert_eq!(memory_time_fraction(0, 0), 0.0);
        assert!((memory_time_fraction(100, 60) - 0.4).abs() < 1e-12);
        // Ideal can't be slower than real; clamp to 0.
        assert_eq!(memory_time_fraction(100, 150), 0.0);
    }
}

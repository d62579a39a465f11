//! # tbr-raster — the Raster Pipeline of the LIBRA TBR GPU simulator
//!
//! Implements the per-tile rendering units of Fig 3 (right) / Fig 5:
//!
//! * [`rasterizer`] — edge-function rasterisation of a primitive inside a tile,
//!   producing 2×2 [`quad::Quad`]s with interpolated depth and texture coordinates;
//! * [`zbuffer`] — the tile-sized on-chip Z-Buffer backing the Early-Z (and Late-Z)
//!   test;
//! * [`texture`] — texture addressing: mip-map selection from screen-space UV
//!   derivatives and a Morton-blocked texel layout (4×4-texel 64 B blocks), which is
//!   what gives nearby tiles their texture-locality (§III-C);
//! * [`shader`] — the multithreaded shader-core timing model: resident warp slots, an
//!   in-order issue port, and texture accesses through a per-core L1 (Table I);
//! * [`color_buffer`] — the tile-sized on-chip Colour Buffer with blending, flushed to
//!   the Frame Buffer in DRAM when a tile completes;
//! * [`raster_unit`] — one Raster Unit: tile front-end (Parameter-Buffer fetch →
//!   rasterise with Early-Z on each quad as it is emitted → warp assembly) plus its
//!   private shader cores, whose warps are followed by blending and the tile's flush.
//!   The front end comes in two halves: [`TileRasterizer`] rasterises a tile into a
//!   [`TileRaster`] without touching the memory model, on any thread, and
//!   [`RasterUnit::issue_tile`] adds the Parameter-Buffer reads and warp arrivals.
//!   The simulated path charges every stage's cycles and DRAM writes but computes
//!   no colour; the Colour Buffer is written only by
//!   [`RasterUnit::render_tile_image`], for images;
//! * [`mod@reference`] — a purely functional renderer used as a golden model in tests and
//!   to dump PPM images in the examples;
//! * [`wasp`] — WaSP-style warp scheduling (arXiv 2404.06156): a max-coverage
//!   "spearhead" warp group issued first to warm the texture caches, then the
//!   remainder in criticality order, driven by the measured miss ratio.

#![warn(missing_docs)]

pub mod color_buffer;
pub mod quad;
pub mod raster_unit;
pub mod rasterizer;
pub mod reference;
pub mod shader;
pub mod texture;
pub mod wasp;
pub mod zbuffer;

pub use quad::Quad;
pub use raster_unit::{RasterUnit, TileFrontEndOutcome, TileRaster, TileRasterizer, WarpWork};
pub use shader::{SampleLines, SampleLinesRef, ShaderCore, WarpOutcome};
pub use wasp::WaspDecision;
pub use zbuffer::ZBuffer;

//! Error types for configuration validation.

use core::fmt;

/// Error returned when a [`crate::config::GpuConfig`] (or one of its components) is
/// internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be a power of two is not.
    NotPowerOfTwo {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A field that must be non-zero is zero.
    Zero {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A field exceeds the largest value the model can represent.
    TooLarge {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// A cache's size is not divisible by `line_bytes * associativity`, so it cannot
    /// be organised into an integral number of sets.
    CacheGeometry {
        /// Name of the offending cache.
        cache: &'static str,
        /// Total capacity in bytes.
        size_bytes: u64,
        /// Line size in bytes.
        line_bytes: u64,
        /// Associativity (ways).
        assoc: u64,
    },
    /// The screen dimensions are not multiples of the tile size.
    ScreenNotTileAligned {
        /// Screen width in pixels.
        width: u32,
        /// Screen height in pixels.
        height: u32,
        /// Tile edge in pixels.
        tile_size: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "field `{field}` must be a power of two, got {value}")
            }
            ConfigError::Zero { field } => write!(f, "field `{field}` must be non-zero"),
            ConfigError::TooLarge { field, value, max } => {
                write!(f, "field `{field}` must be at most {max}, got {value}")
            }
            ConfigError::CacheGeometry { cache, size_bytes, line_bytes, assoc } => write!(
                f,
                "cache `{cache}` geometry invalid: {size_bytes} B is not divisible by \
                 line {line_bytes} B x {assoc} ways"
            ),
            ConfigError::ScreenNotTileAligned { width, height, tile_size } => write!(
                f,
                "screen {width}x{height} is not aligned to the {tile_size}-pixel tile grid"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ConfigError::NotPowerOfTwo { field: "tile_size", value: 33 };
        let msg = format!("{e}");
        assert!(msg.contains("tile_size") && msg.contains("33"));
        let e = ConfigError::Zero { field: "channels" };
        assert!(format!("{e}").contains("channels"));
        let e = ConfigError::CacheGeometry {
            cache: "l2",
            size_bytes: 100,
            line_bytes: 64,
            assoc: 8,
        };
        assert!(format!("{e}").contains("l2"));
        let e = ConfigError::ScreenNotTileAligned { width: 100, height: 100, tile_size: 32 };
        assert!(format!("{e}").contains("100x100"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<ConfigError>();
    }
}

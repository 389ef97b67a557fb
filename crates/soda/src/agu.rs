//! Address-generation-unit pipelines.
//!
//! Diet SODA dedicates one AGU pipeline to each SIMD memory bank plus the
//! prefetcher (Appendix B): the AGUs turn an access *pattern* (linear
//! stride, 2-D block) into the four per-bank row addresses of each vector
//! access, off the critical SIMD path. Here an [`AccessPattern`] is an
//! iterator-style generator of `[usize; 4]` row tuples.

use crate::{BANKS, BANK_ROWS};

/// A vector-access address pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// `count` accesses at rows `base`, `base + stride`, … (all four banks
    /// share the row index — the layout produced by
    /// [`crate::memory::SimdMemory::stage`]).
    Linear {
        /// First row.
        base: usize,
        /// Row increment between consecutive accesses.
        stride: usize,
        /// Number of accesses.
        count: usize,
    },
    /// A 2-D block walk: `rows × cols` tile whose row `r`, column step `c`
    /// accesses row `base + r·row_stride + c` (used by 2-D convolution and
    /// other image kernels).
    Block {
        /// First row.
        base: usize,
        /// Rows in the tile.
        rows: usize,
        /// Vector-columns in the tile.
        cols: usize,
        /// Row-address distance between tile rows.
        row_stride: usize,
    },
}

impl AccessPattern {
    /// Number of vector accesses the pattern generates.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            AccessPattern::Linear { count, .. } => count,
            AccessPattern::Block { rows, cols, .. } => rows * cols,
        }
    }

    /// Whether the pattern generates no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th access's per-bank rows.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn rows(&self, i: usize) -> [usize; BANKS] {
        assert!(i < self.len(), "access index {i} out of range");
        let row = match *self {
            AccessPattern::Linear { base, stride, .. } => base + i * stride,
            AccessPattern::Block {
                base,
                cols,
                row_stride,
                ..
            } => {
                let (r, c) = (i / cols, i % cols);
                base + r * row_stride + c
            }
        };
        [row; BANKS]
    }

    /// Validate that every generated address fits the bank depth.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range row.
    pub fn validate(&self) -> Result<(), PatternOutOfRange> {
        for i in 0..self.len() {
            let rows = self.rows(i);
            for &r in &rows {
                if r >= BANK_ROWS {
                    return Err(PatternOutOfRange { access: i, row: r });
                }
            }
        }
        Ok(())
    }

    /// Iterate all per-bank row tuples.
    pub fn iter(&self) -> impl Iterator<Item = [usize; BANKS]> + '_ {
        (0..self.len()).map(|i| self.rows(i))
    }
}

/// Error: a pattern generates a row beyond the bank depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternOutOfRange {
    /// Which access overflowed.
    pub access: usize,
    /// The offending row.
    pub row: usize,
}

impl std::fmt::Display for PatternOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "access {} generates row {} beyond the bank depth {}",
            self.access, self.row, BANK_ROWS
        )
    }
}

impl std::error::Error for PatternOutOfRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_pattern_strides() {
        let p = AccessPattern::Linear {
            base: 4,
            stride: 2,
            count: 3,
        };
        assert_eq!(p.len(), 3);
        assert_eq!(p.rows(0), [4; 4]);
        assert_eq!(p.rows(2), [8; 4]);
        p.validate().unwrap();
    }

    #[test]
    fn block_pattern_walks_2d() {
        let p = AccessPattern::Block {
            base: 10,
            rows: 2,
            cols: 3,
            row_stride: 8,
        };
        assert_eq!(p.len(), 6);
        assert_eq!(p.rows(0), [10; 4]);
        assert_eq!(p.rows(2), [12; 4]);
        assert_eq!(p.rows(3), [18; 4]); // second tile row
        assert_eq!(p.rows(5), [20; 4]);
    }

    #[test]
    fn validation_catches_overflow() {
        let p = AccessPattern::Linear {
            base: 250,
            stride: 4,
            count: 3,
        };
        let err = p.validate().unwrap_err();
        assert_eq!(err.access, 2);
        assert_eq!(err.row, 258);
        assert!(err.to_string().contains("row 258"));
    }

    #[test]
    fn iter_matches_rows() {
        let p = AccessPattern::Linear {
            base: 0,
            stride: 1,
            count: 5,
        };
        let collected: Vec<_> = p.iter().collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[4], p.rows(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_bounds_checked() {
        let p = AccessPattern::Linear {
            base: 0,
            stride: 1,
            count: 2,
        };
        let _ = p.rows(2);
    }
}

//! The multi-banked SIMD memory system and scalar memory.
//!
//! Diet SODA's data memory is 64 KB arranged as 4 banks, each
//! 32 lanes × 16 bit × 256 rows (Appendix B). A 128-wide vector access
//! reads one row from each bank in parallel; the four AGU pipelines supply
//! an independent row address per bank, which is what makes strided and
//! 2-D block accesses single-cycle as long as the four quarters of the
//! vector land in distinct banks. The memory system lives in the
//! full-voltage domain (data-retention limits preclude near-threshold
//! SRAM), which matters for the energy accounting.

use crate::{BANKS, BANK_ROWS, BANK_WIDTH, SCALAR_WORDS, SIMD_WIDTH};

/// Error type for out-of-range memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutOfRange {
    what: &'static str,
    index: usize,
    limit: usize,
}

impl std::fmt::Display for AccessOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} index {} out of range (limit {})",
            self.what, self.index, self.limit
        )
    }
}

impl std::error::Error for AccessOutOfRange {}

/// The 4-bank SIMD data memory.
///
/// # Example
///
/// ```
/// use ntv_soda::memory::SimdMemory;
///
/// let mut mem = SimdMemory::new();
/// let row: Vec<i16> = (0..32).collect();
/// mem.write_bank_row(0, 3, &row)?;
/// assert_eq!(mem.read_bank_row(0, 3)?[31], 31);
/// # Ok::<(), ntv_soda::memory::AccessOutOfRange>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimdMemory {
    /// `banks[b][row][lane]`.
    banks: Vec<Vec<[i16; BANK_WIDTH]>>,
}

impl Default for SimdMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl SimdMemory {
    /// Zero-initialized memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            banks: vec![vec![[0; BANK_WIDTH]; BANK_ROWS]; BANKS],
        }
    }

    fn check_bank(bank: usize) -> Result<(), AccessOutOfRange> {
        if bank >= BANKS {
            return Err(AccessOutOfRange {
                what: "bank",
                index: bank,
                limit: BANKS,
            });
        }
        Ok(())
    }

    fn check_row(row: usize) -> Result<(), AccessOutOfRange> {
        if row >= BANK_ROWS {
            return Err(AccessOutOfRange {
                what: "row",
                index: row,
                limit: BANK_ROWS,
            });
        }
        Ok(())
    }

    /// Read one 32-wide row of a bank.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] for an invalid bank or row.
    pub fn read_bank_row(
        &self,
        bank: usize,
        row: usize,
    ) -> Result<[i16; BANK_WIDTH], AccessOutOfRange> {
        Self::check_bank(bank)?;
        Self::check_row(row)?;
        // ntv:allow(panic-path): bank and row validated by the checks above
        Ok(self.banks[bank][row])
    }

    /// Write one 32-wide row of a bank.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] for an invalid bank or row, or if
    /// `data` is not exactly 32 elements.
    pub fn write_bank_row(
        &mut self,
        bank: usize,
        row: usize,
        data: &[i16],
    ) -> Result<(), AccessOutOfRange> {
        Self::check_bank(bank)?;
        Self::check_row(row)?;
        if data.len() != BANK_WIDTH {
            return Err(AccessOutOfRange {
                what: "row width",
                index: data.len(),
                limit: BANK_WIDTH,
            });
        }
        // ntv:allow(panic-path): bank and row validated by the checks above
        self.banks[bank][row].copy_from_slice(data);
        Ok(())
    }

    /// Gather a full 128-wide vector: bank `b` contributes lanes
    /// `32b..32b+32` from its row `rows[b]`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] for an invalid row.
    pub fn read_vector(&self, rows: [usize; BANKS]) -> Result<Vec<i16>, AccessOutOfRange> {
        let mut out = Vec::with_capacity(SIMD_WIDTH);
        for (bank, &row) in rows.iter().enumerate() {
            out.extend_from_slice(&self.read_bank_row(bank, row)?);
        }
        Ok(out)
    }

    /// Scatter a full 128-wide vector (inverse of [`Self::read_vector`]).
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] for an invalid row or a vector that is
    /// not 128 elements wide.
    pub fn write_vector(
        &mut self,
        rows: [usize; BANKS],
        data: &[i16],
    ) -> Result<(), AccessOutOfRange> {
        if data.len() != SIMD_WIDTH {
            return Err(AccessOutOfRange {
                what: "vector width",
                index: data.len(),
                limit: SIMD_WIDTH,
            });
        }
        for (bank, &row) in rows.iter().enumerate() {
            self.write_bank_row(bank, row, &data[bank * BANK_WIDTH..(bank + 1) * BANK_WIDTH])?;
        }
        Ok(())
    }

    /// Load a contiguous slice of values row-major starting at row
    /// `first_row` (a host-side convenience for staging kernel inputs; the
    /// slice length must be a multiple of 128).
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] if the data overruns the memory.
    pub fn stage(&mut self, first_row: usize, data: &[i16]) -> Result<(), AccessOutOfRange> {
        if !data.len().is_multiple_of(SIMD_WIDTH) {
            return Err(AccessOutOfRange {
                what: "stage length (must be a multiple of 128)",
                index: data.len(),
                limit: SIMD_WIDTH,
            });
        }
        for (i, chunk) in data.chunks(SIMD_WIDTH).enumerate() {
            let row = first_row + i;
            self.write_vector([row, row, row, row], chunk)?;
        }
        Ok(())
    }

    /// Read back `rows` consecutive 128-wide vectors starting at
    /// `first_row` (inverse of [`Self::stage`]).
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] if the range overruns the memory.
    pub fn unstage(&self, first_row: usize, rows: usize) -> Result<Vec<i16>, AccessOutOfRange> {
        let mut out = Vec::with_capacity(rows * SIMD_WIDTH);
        for i in 0..rows {
            let row = first_row + i;
            out.extend(self.read_vector([row, row, row, row])?);
        }
        Ok(out)
    }
}

/// The 4 KB scalar memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarMemory {
    words: Vec<i16>,
}

impl Default for ScalarMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ScalarMemory {
    /// Zero-initialized scalar memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            words: vec![0; SCALAR_WORDS],
        }
    }

    /// Read one word.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] for an invalid address.
    pub fn read(&self, addr: usize) -> Result<i16, AccessOutOfRange> {
        self.words.get(addr).copied().ok_or(AccessOutOfRange {
            what: "scalar address",
            index: addr,
            limit: SCALAR_WORDS,
        })
    }

    /// Write one word.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRange`] for an invalid address.
    pub fn write(&mut self, addr: usize, value: i16) -> Result<(), AccessOutOfRange> {
        if addr >= SCALAR_WORDS {
            return Err(AccessOutOfRange {
                what: "scalar address",
                index: addr,
                limit: SCALAR_WORDS,
            });
        }
        // ntv:allow(panic-path): addr validated against SCALAR_WORDS above
        self.words[addr] = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_rows_round_trip() {
        let mut mem = SimdMemory::new();
        let row: Vec<i16> = (100..132).collect();
        mem.write_bank_row(2, 17, &row).unwrap();
        assert_eq!(mem.read_bank_row(2, 17).unwrap().to_vec(), row);
        // Other banks untouched.
        assert_eq!(mem.read_bank_row(1, 17).unwrap(), [0; BANK_WIDTH]);
    }

    #[test]
    fn vector_access_spans_banks() {
        let mut mem = SimdMemory::new();
        let v: Vec<i16> = (0..128).collect();
        mem.write_vector([5, 6, 7, 8], &v).unwrap();
        assert_eq!(mem.read_vector([5, 6, 7, 8]).unwrap(), v);
        // Bank 1 row 6 holds lanes 32..64.
        assert_eq!(mem.read_bank_row(1, 6).unwrap()[0], 32);
    }

    #[test]
    fn stage_unstage_round_trip() {
        let mut mem = SimdMemory::new();
        let data: Vec<i16> = (0..384).map(|i| (i % 251) as i16).collect();
        mem.stage(10, &data).unwrap();
        assert_eq!(mem.unstage(10, 3).unwrap(), data);
    }

    #[test]
    fn capacity_matches_64_kb() {
        // 4 banks x 256 rows x 32 lanes x 2 bytes = 64 KB.
        assert_eq!(BANKS * BANK_ROWS * BANK_WIDTH * 2, 65_536);
    }

    #[test]
    fn out_of_range_errors() {
        let mut mem = SimdMemory::new();
        assert!(mem.read_bank_row(4, 0).is_err());
        assert!(mem.read_bank_row(0, 256).is_err());
        assert!(mem.write_bank_row(0, 0, &[0; 31]).is_err());
        assert!(mem.stage(255, &[0; 256]).is_err());
        let msg = mem.read_bank_row(9, 0).unwrap_err().to_string();
        assert!(msg.contains("bank index 9"));
    }

    #[test]
    fn scalar_memory_round_trip() {
        let mut sm = ScalarMemory::new();
        sm.write(100, -5).unwrap();
        assert_eq!(sm.read(100).unwrap(), -5);
        assert!(sm.read(SCALAR_WORDS).is_err());
        assert!(sm.write(SCALAR_WORDS, 0).is_err());
    }
}

//! Deterministic parallel execution over sample-index ranges.
//!
//! Because every Monte-Carlo draw in the workspace is index-addressed
//! (sample *i* is a pure function of `(seed, stream label, i)` via
//! [`ntv_mc::CounterRng`]), parallelism cannot change results: the
//! [`Executor`] splits `0..n` into contiguous chunks, evaluates them on
//! scoped `std::thread`s, and concatenates the chunk outputs in index
//! order. The merged vector is bit-identical for **any** thread count —
//! determinism and parallelism are the same property.

use std::num::NonZeroUsize;

/// A deterministic fork-join executor over sample-index ranges.
///
/// Cheap to copy and to pass by value; holds no threads of its own (workers
/// are scoped to each [`Executor::map_indexed_chunks`] call).
///
/// # Example
///
/// ```
/// use ntv_core::Executor;
/// let serial = Executor::serial();
/// let parallel = Executor::new(8);
/// let f = |i: u64| (i as f64).sqrt();
/// assert_eq!(serial.map_indexed(1000, f), parallel.map_indexed(1000, f));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self::new(0)
    }
}

impl Executor {
    /// Executor with `threads` workers; `0` means "use all available
    /// hardware parallelism".
    #[must_use]
    pub fn new(threads: usize) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "worker count only sizes chunks; results are identical for any count"
        )]
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// Single-threaded executor (the reference ordering).
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Number of worker threads this executor uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `f(i)` for every `i in 0..n` and return the results in
    /// index order.
    ///
    /// `f` must be a pure function of its index for the output to be
    /// thread-count invariant — which is exactly the contract of the
    /// counter-based samplers. This is [`Self::map_indexed_chunks`] with a
    /// per-index loop in each chunk, so the result is bit-identical to the
    /// serial loop regardless of `threads`.
    pub fn map_indexed<T, F>(&self, n: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        self.map_indexed_chunks(n, |start, len| (start..start + len).map(&f).collect())
    }

    /// Evaluate `f(start, len)` over contiguous chunks of `0..n` and
    /// concatenate the chunk outputs in index order: `f(start, len)`
    /// produces the outputs for indexes `start..start + len`.
    ///
    /// Chunks are contiguous index ranges, one per worker, merged in order,
    /// so a batch kernel that is bit-identical to its per-index scalar form
    /// stays bit-identical here for any thread count. This is the entry
    /// point the SoA sampling kernels use: one `f` call per worker
    /// amortises per-sample overhead into fixed-stride array passes.
    ///
    /// # Panics
    ///
    /// Panics if a chunk returns a vector whose length is not `len`.
    pub fn map_indexed_chunks<T, F>(&self, n: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, u64) -> Vec<T> + Sync,
    {
        // Not worth forking for tiny batches (thread spawn ≫ work).
        const MIN_CHUNK: u64 = 64;
        let workers = self
            .threads
            .min(usize::try_from(n.div_ceil(MIN_CHUNK)).unwrap_or(usize::MAX))
            .max(1);
        let check = |start: u64, len: u64, out: Vec<T>| {
            assert!(
                out.len() as u64 == len,
                "chunk [{start}, {}) returned {} outputs",
                start + len,
                out.len()
            );
            out
        };
        if workers == 1 {
            return check(0, n, f(0, n));
        }

        let workers_u64 = workers as u64;
        let base = n / workers_u64;
        let extra = n % workers_u64;
        // Worker w covers [start_w, start_w + len_w): the first `extra`
        // workers take one additional index.
        let mut starts = Vec::with_capacity(workers);
        let mut cursor = 0u64;
        for w in 0..workers_u64 {
            let len = base + u64::from(w < extra);
            starts.push((cursor, len));
            cursor += len;
        }

        let f = &f;
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = starts
                .iter()
                .map(|&(start, len)| scope.spawn(move || f(start, len)))
                .collect();
            for (&(start, len), handle) in starts.iter().zip(handles) {
                // ntv:allow(panic-path): re-raises a worker's own panic; join fails no other way
                let out = handle.join().expect("executor worker panicked");
                chunks.push(check(start, len, out));
            }
        });
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
        assert_eq!(Executor::serial().threads(), 1);
    }

    #[test]
    fn map_preserves_index_order() {
        let exec = Executor::new(4);
        let out = exec.map_indexed(1000, |i| i * 2);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    #[test]
    fn all_thread_counts_agree_bitwise() {
        let f = |i: u64| ((i as f64) * 0.1).sin();
        let reference = Executor::serial().map_indexed(5000, f);
        for threads in [2, 3, 8, 17] {
            let out = Executor::new(threads).map_indexed(5000, f);
            assert!(
                reference
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn chunked_map_matches_per_index_map_for_all_thread_counts() {
        let f = |i: u64| ((i as f64) * 0.3).cos();
        let reference = Executor::serial().map_indexed(5000, f);
        for threads in [1, 2, 3, 8, 17] {
            let out = Executor::new(threads)
                .map_indexed_chunks(5000, |start, len| (start..start + len).map(f).collect());
            assert!(
                reference
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
        }
        assert!(Executor::new(8)
            .map_indexed_chunks(0, |_, len| vec![0u64; len as usize])
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "returned 3 outputs")]
    fn chunked_map_rejects_wrong_chunk_length() {
        let _ = Executor::serial().map_indexed_chunks(5, |_, _| vec![0u64; 3]);
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let exec = Executor::new(8);
        assert!(exec.map_indexed(0, |i| i).is_empty());
        assert_eq!(exec.map_indexed(1, |i| i), vec![0]);
        assert_eq!(exec.map_indexed(3, |i| i), vec![0, 1, 2]);
    }
}

//! Errors for sample-based constructors.
//!
//! [`Quantiles`](crate::Quantiles) requires a non-empty, all-finite sample;
//! its fallible `try_from_samples` constructor reports violations through
//! [`SampleError`] instead of panicking, so Monte-Carlo pipelines can
//! surface a bad batch (a NaN from a degenerate delay model, an empty
//! sweep) as a recoverable error.

/// Why a sample was rejected by a statistics constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// The sample contained no values.
    Empty,
    /// The sample contained a NaN or infinite value at the given index.
    NonFinite {
        /// Index of the first offending value in the input order.
        index: usize,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::Empty => f.write_str("sample is empty"),
            SampleError::NonFinite { index } => {
                write!(f, "sample contains a non-finite value at index {index}")
            }
        }
    }
}

impl std::error::Error for SampleError {}

/// Validate a sample: non-empty and all-finite.
///
/// Returns the first offending index so callers can point at the bad draw.
pub(crate) fn validate(samples: &[f64]) -> Result<(), SampleError> {
    if samples.is_empty() {
        return Err(SampleError::Empty);
    }
    if let Some(index) = samples.iter().position(|x| !x.is_finite()) {
        return Err(SampleError::NonFinite { index });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_rejected() {
        assert_eq!(validate(&[]), Err(SampleError::Empty));
    }

    #[test]
    fn first_offender_is_reported() {
        let r = validate(&[1.0, f64::NAN, f64::INFINITY]);
        assert_eq!(r, Err(SampleError::NonFinite { index: 1 }));
    }

    #[test]
    fn finite_samples_pass() {
        assert_eq!(validate(&[0.0, -1.5, 3.0]), Ok(()));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(SampleError::Empty.to_string(), "sample is empty");
        assert!(SampleError::NonFinite { index: 7 }
            .to_string()
            .contains("index 7"));
    }
}

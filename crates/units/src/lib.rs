// Tests assert exact golden values; strict float equality is the point there.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Zero-cost SI unit newtypes for the ntv-simd workspace.
//!
//! Every headline result of the reproduction is a physical quantity —
//! supply and threshold voltages, delays, frequencies, powers — and before
//! this crate existed they all travelled as bare `f64`. A swapped
//! `(vdd, vth)` argument pair compiled clean and silently corrupted every
//! Monte-Carlo statistic downstream. The newtypes here make that class of
//! bug a type error while compiling to exactly the same machine code as
//! the raw `f64` (each type is `#[repr(transparent)]` with no arithmetic
//! of its own beyond trivial inlined operators).
//!
//! Conventions (enforced by `cargo xtask lint`'s `ntv::bare-unit` rule and
//! documented in DESIGN.md §8):
//!
//! * **SI base units only, no implicit scaling.** `Volts(0.55)` is 0.55 V;
//!   there is no `Millivolts` type and no constructor that multiplies by
//!   1e-3. Sub-scaled engineering quantities that the workspace keeps in
//!   ps/ns/fJ for bit-compatibility with the paper's tables stay `f64`
//!   and carry the scale in their *name* (`fo4_delay_ps`, `t_clk_ns`);
//!   SI-base quantities carry the unit in their *type*.
//! * **Wrappers, not rescalings.** Wrapping and unwrapping (`.0`) never
//!   changes the bit pattern, so migrating an API to a newtype cannot
//!   perturb a single Monte-Carlo result.
//! * **Total ordering is explicit.** The types expose `total_cmp` (and
//!   `min`/`max` built on it) instead of implementing `Ord`, mirroring the
//!   workspace float-totality policy: NaN handling is a decision, not an
//!   accident.
//!
//! Arithmetic is deliberately minimal and dimension-aware: same-unit
//! addition/subtraction, scaling by dimensionless `f64`, and same-unit
//! division yielding a dimensionless ratio. Cross-unit products (V·A,
//! W·s, …) are out of scope until a result type exists to receive them —
//! unwrap with `.0` at such sites and document the unit of the result.

/// Implements a transparent `f64` unit newtype with dimension-aware
/// arithmetic.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $symbol:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// The raw `f64` magnitude in SI base units.
            #[must_use]
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Magnitude of the quantity (same unit).
            #[must_use]
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Whether the magnitude is finite (not NaN or ±∞).
            #[must_use]
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// IEEE-754 `totalOrder` comparison of the magnitudes — total
            /// over NaN and distinguishes `-0.0` from `0.0`, like
            /// [`f64::total_cmp`].
            #[must_use]
            #[inline]
            pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }

            /// The smaller of two quantities under [`Self::total_cmp`].
            #[must_use]
            #[inline]
            pub fn min(self, other: Self) -> Self {
                match self.total_cmp(&other) {
                    core::cmp::Ordering::Greater => other,
                    _ => self,
                }
            }

            /// The larger of two quantities under [`Self::total_cmp`].
            #[must_use]
            #[inline]
            pub fn max(self, other: Self) -> Self {
                match self.total_cmp(&other) {
                    core::cmp::Ordering::Less => other,
                    _ => self,
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        /// Scale by a dimensionless factor.
        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        /// Scale by a dimensionless factor (commuted).
        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        /// Scale in place by a dimensionless factor.
        impl core::ops::MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        /// Divide in place by a dimensionless factor.
        impl core::ops::DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Divide by a dimensionless factor.
        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Same-unit ratio: the units cancel to a dimensionless `f64`.
        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        /// Renders the magnitude (honouring width/precision flags) followed
        /// by the SI symbol, e.g. `0.55 V`.
        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                self.0.fmt(f)?;
                f.write_str(concat!(" ", $symbol))
            }
        }

        impl core::str::FromStr for $name {
            type Err = core::num::ParseFloatError;

            /// Parses a bare magnitude (`"0.55"`) or a magnitude with the
            /// SI symbol (`"0.55 V"` / `"0.55V"`).
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let s = s.trim();
                let s = s.strip_suffix($symbol).unwrap_or(s).trim_end();
                s.parse::<f64>().map(Self)
            }
        }
    };
}

unit!(
    /// An electric potential in volts (SI base-derived, no scaling).
    ///
    /// The workspace's most misuse-prone quantity: supply voltages,
    /// threshold voltages, body-bias shifts and margins all share this
    /// type, so `on_current(vth, vdd)` no longer compiles.
    Volts,
    "V"
);
unit!(
    /// A time span in seconds (SI base, no scaling).
    ///
    /// The Monte-Carlo delay plumbing keeps its historical ps/ns `f64`
    /// fields (named `*_ps` / `*_ns`) for bit-compatibility with the
    /// paper's tables; `Seconds` is for genuinely SI-scaled time such as
    /// a clock period.
    Seconds,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;
    use core::cmp::Ordering;

    #[test]
    fn wrappers_are_transparent() {
        // Zero-cost contract: wrapping cannot perturb the bit pattern.
        let subnormal = f64::from_bits(1); // smallest positive subnormal
        for x in [0.0, -0.0, 0.55, f64::MIN_POSITIVE, subnormal, f64::NAN] {
            assert_eq!(Volts(x).get().to_bits(), x.to_bits());
            assert_eq!(Seconds(x).0.to_bits(), x.to_bits());
        }
        assert_eq!(core::mem::size_of::<Volts>(), core::mem::size_of::<f64>());
    }

    #[test]
    fn same_unit_arithmetic() {
        let v = Volts(0.5) + Volts(0.05) - Volts(0.1);
        assert!((v.get() - 0.45).abs() < 1e-15);
        assert_eq!(-Volts(0.2), Volts(-0.2));
        let mut acc = Volts::ZERO;
        acc += Volts(1.0);
        acc -= Volts(0.25);
        assert_eq!(acc, Volts(0.75));
        let total: Volts = [Volts(0.1), Volts(0.2)].into_iter().sum();
        assert!((total.get() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn dimensionless_scaling_and_ratio() {
        assert_eq!(Volts(0.5) * 2.0, Volts(1.0));
        assert_eq!(3.0 * Volts(0.5), Volts(1.5));
        assert_eq!(Volts(1.0) / 4.0, Volts(0.25));
        // Same-unit division cancels to a plain ratio.
        let ratio: f64 = Volts(1.0) / Volts(0.5);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    fn negative_and_subnormal_magnitudes_survive_arithmetic() {
        let sub = Seconds(f64::from_bits(1)); // smallest positive subnormal
        assert!(sub.get() > 0.0);
        assert_eq!(sub + Seconds::ZERO, sub);
        assert_eq!((sub * 1.0).get().to_bits(), 1);
        let neg = Seconds(-1.5e-9) + Seconds(0.5e-9);
        assert!(neg.get() < 0.0);
        assert!((neg.abs().get() - 1e-9).abs() < 1e-24);
    }

    #[test]
    fn total_cmp_is_total_and_orders_signed_zero() {
        // -0.0 < +0.0 under totalOrder, and NaN is ordered, not poisonous.
        assert_eq!(Volts(-0.0).total_cmp(&Volts(0.0)), Ordering::Less);
        assert_eq!(Volts(0.0).total_cmp(&Volts(-0.0)), Ordering::Greater);
        assert_eq!(Volts(1.0).total_cmp(&Volts(1.0)), Ordering::Equal);
        assert_eq!(
            Volts(f64::NAN).total_cmp(&Volts(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(Volts(-1.0).total_cmp(&Volts(1.0)), Ordering::Less);
        // min/max follow total_cmp, so they are deterministic on ties of
        // signed zero rather than returning either operand.
        assert_eq!(
            Volts(-0.0).min(Volts(0.0)).get().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            Volts(-0.0).max(Volts(0.0)).get().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(Seconds(2.0).max(Seconds(3.0)), Seconds(3.0));
        assert_eq!(Seconds(2.0).min(Seconds(3.0)), Seconds(2.0));
    }

    #[test]
    fn display_carries_the_si_symbol() {
        assert_eq!(Volts(0.55).to_string(), "0.55 V");
        assert_eq!(format!("{:.2}", Volts(0.5)), "0.50 V");
        assert_eq!(Seconds(2.5).to_string(), "2.5 s");
        assert_eq!(Seconds(1e-9).to_string(), "0.000000001 s");
    }

    #[test]
    fn from_str_accepts_bare_and_suffixed() {
        assert_eq!("0.55".parse::<Volts>().expect("bare"), Volts(0.55));
        assert_eq!("0.55 V".parse::<Volts>().expect("suffixed"), Volts(0.55));
        assert_eq!("2.5s".parse::<Seconds>().expect("tight"), Seconds(2.5));
        assert!("volts".parse::<Volts>().is_err());
    }

    #[test]
    fn parse_rejects_wrong_symbol() {
        // "0.5 V" is not a time span; the suffix strip only removes this
        // type's own symbol, so foreign symbols fail float parsing.
        assert!("0.5 V".parse::<Seconds>().is_err());
        assert!("0.5 s".parse::<Volts>().is_err());
        assert!("NaN".parse::<Volts>().map(|v| v.get().is_nan()) == Ok(true));
    }
}

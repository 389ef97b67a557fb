//! DLP kernels for the Diet SODA PE, with golden reference models.
//!
//! Diet SODA targets digital-camera signal processing; these kernels cover
//! that domain's staples — element-wise vector arithmetic, FIR filtering,
//! 2-D convolution and a 128-point fixed-point FFT — built
//! from the PE's instruction set the way a kernel compiler would emit
//! them (unrolled, with addresses and constants resolved at build time).
//!
//! Every kernel has a bit-exact (or tolerance-bounded, for the FFT) golden
//! model in [`golden`]; the integration tests in `tests/` run kernels
//! under fault injection and compare against these references.

use crate::agu::AccessPattern;
use crate::isa::{Instr, VBinOp, VReg};
use crate::pe::{PeError, ProcessingElement};
use crate::xram::ShuffleConfig;
use crate::SIMD_WIDTH;

/// Golden (scalar) reference implementations.
pub mod golden {
    /// Saturating 16-bit addition, element-wise.
    #[must_use]
    // ntv:allow(test-only-api): the oracle of tests/props.rs::vector_add_kernel_matches_golden and this file's vector-add test
    pub fn vector_add(a: &[i16], b: &[i16]) -> Vec<i16> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x.saturating_add(y))
            .collect()
    }

    /// FIR filter: `out[i] = sat16((Σ_k c[k]·x[i+k]) >> shift)`.
    #[must_use]
    pub fn fir(signal: &[i16], coeffs: &[i16], shift: u8) -> Vec<i16> {
        let n = signal.len() - coeffs.len() + 1;
        (0..n)
            .map(|i| {
                let acc: i32 = coeffs
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| i32::from(c) * i32::from(signal[i + k]))
                    .sum();
                (acc >> shift).clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
            })
            .collect()
    }

    /// 3×3 convolution over rows of width 128, circular in the column
    /// dimension, valid in the row dimension.
    #[must_use]
    pub fn conv2d_3x3(image: &[Vec<i16>], kernel: &[[i16; 3]; 3], shift: u8) -> Vec<Vec<i16>> {
        let width = 128usize;
        (0..image.len().saturating_sub(2))
            .map(|r| {
                (0..width)
                    .map(|c| {
                        let mut acc = 0i32;
                        for (dr, krow) in kernel.iter().enumerate() {
                            for (dc, &k) in krow.iter().enumerate() {
                                acc += i32::from(k) * i32::from(image[r + dr][(c + dc) % width]);
                            }
                        }
                        (acc >> shift).clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
                    })
                    .collect()
            })
            .collect()
    }

    /// Floating-point DFT of a complex signal, scaled by `1/n` (matching
    /// the fixed-point FFT's per-stage halving).
    #[cfg(test)]
    pub(crate) fn dft_scaled(re: &[i16], im: &[i16]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for (k, (or_, oi)) in out_re.iter_mut().zip(out_im.iter_mut()).enumerate() {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (s, c) = ang.sin_cos();
                *or_ += f64::from(re[t]) * c - f64::from(im[t]) * s;
                *oi += f64::from(re[t]) * s + f64::from(im[t]) * c;
            }
            *or_ /= n as f64;
            *oi /= n as f64;
        }
        (out_re, out_im)
    }
}

fn v(i: u8) -> VReg {
    VReg::new(i)
}

/// Element-wise saturating vector addition of two 128-element vectors,
/// through memory (stage → load → add → store → unstage).
///
/// # Errors
///
/// Propagates any [`PeError`] from execution.
///
/// # Panics
///
/// Panics if the inputs are not 128 elements each.
// ntv:allow(test-only-api): tests/props.rs::vector_add_kernel_matches_golden, tests/soda_pipeline.rs::energy_config_tracks_voltage and the crate example run the PE through it
pub fn vector_add(pe: &mut ProcessingElement, a: &[i16], b: &[i16]) -> Result<Vec<i16>, PeError> {
    assert_eq!(a.len(), SIMD_WIDTH, "inputs must be 128 wide");
    assert_eq!(b.len(), SIMD_WIDTH, "inputs must be 128 wide");
    pe.mem_mut().stage(0, a)?;
    pe.mem_mut().stage(1, b)?;
    pe.run(&[
        Instr::VLoad {
            vd: v(0),
            rows: [0; 4],
        },
        Instr::VLoad {
            vd: v(1),
            rows: [1; 4],
        },
        Instr::VBin {
            op: VBinOp::Add,
            vd: v(2),
            va: v(0),
            vb: v(1),
        },
        Instr::VStore {
            vs: v(2),
            rows: [2; 4],
        },
    ])?;
    Ok(pe.mem().unstage(2, 1)?)
}

/// FIR filter over a staged signal using the prefetcher's unaligned loads.
///
/// `signal.len()` must be a multiple of 128 and at least 256; the final
/// 128 samples serve as the convolution halo, so the output has
/// `signal.len() − 128` samples. `coeffs.len()` must be ≤ 128.
///
/// # Errors
///
/// Propagates any [`PeError`] from execution.
///
/// # Panics
///
/// Panics on invalid signal/coefficient shapes.
pub fn fir(
    pe: &mut ProcessingElement,
    signal: &[i16],
    coeffs: &[i16],
    shift: u8,
) -> Result<Vec<i16>, PeError> {
    assert!(
        signal.len().is_multiple_of(SIMD_WIDTH) && signal.len() >= 2 * SIMD_WIDTH,
        "signal must be a multiple of 128 samples and at least 256"
    );
    assert!(
        !coeffs.is_empty() && coeffs.len() <= SIMD_WIDTH,
        "between 1 and 128 taps supported"
    );
    let blocks = signal.len() / SIMD_WIDTH - 1;
    let out_base = 200; // staged signal occupies rows 0..blocks+1
    assert!(blocks < out_base, "signal too long for the staging layout");
    pe.mem_mut().stage(0, signal)?;

    let mut program = Vec::new();
    for b in 0..blocks {
        program.push(Instr::VMacClear);
        for (k, &c) in coeffs.iter().enumerate() {
            program.push(Instr::BroadcastImm { vd: v(1), value: c });
            program.push(Instr::VLoadUnaligned {
                vd: v(0),
                first_row: b,
                offset: k,
            });
            program.push(Instr::VMac { va: v(0), vb: v(1) });
        }
        program.push(Instr::VMacRead { vd: v(2), shift });
        program.push(Instr::VStore {
            vs: v(2),
            rows: [out_base + b; 4],
        });
    }
    pe.run(&program)?;
    Ok(pe.mem().unstage(out_base, blocks)?)
}

/// 3×3 2-D convolution over an image of 128-wide rows (circular in the
/// column dimension, valid in the row dimension), using rotation shuffles
/// through the XRAM crossbar for column alignment.
///
/// # Errors
///
/// Propagates any [`PeError`] from execution.
///
/// # Panics
///
/// Panics if the image has fewer than 3 rows or any row is not 128 wide.
pub fn conv2d_3x3(
    pe: &mut ProcessingElement,
    image: &[Vec<i16>],
    kernel: &[[i16; 3]; 3],
    shift: u8,
) -> Result<Vec<Vec<i16>>, PeError> {
    assert!(image.len() >= 3, "need at least 3 image rows");
    assert!(
        image.iter().all(|r| r.len() == SIMD_WIDTH),
        "rows must be 128 wide"
    );
    let out_rows = image.len() - 2;
    let out_base = 128;
    assert!(
        image.len() <= out_base && out_base + out_rows <= 256,
        "image too tall"
    );

    for (r, row) in image.iter().enumerate() {
        pe.mem_mut().stage(r, row)?;
    }
    let rot1 = pe.store_shuffle(ShuffleConfig::rotate(SIMD_WIDTH, 1));
    let rot2 = pe.store_shuffle(ShuffleConfig::rotate(SIMD_WIDTH, 2));

    // The 2-D tile walk (out_rows x 3 kernel rows) is one AGU block
    // pattern: access (r, dr) reads image row r + dr.
    let walk = AccessPattern::Block {
        base: 0,
        rows: out_rows,
        cols: 3,
        row_stride: 1,
    };
    debug_assert!(walk.validate().is_ok());

    let mut program = Vec::new();
    for r in 0..out_rows {
        program.push(Instr::VMacClear);
        for (dr, krow) in kernel.iter().enumerate() {
            program.push(Instr::VLoad {
                vd: v(0),
                rows: walk.rows(r * 3 + dr),
            });
            for (dc, &coeff) in krow.iter().enumerate() {
                let src = match dc {
                    0 => v(0),
                    1 => {
                        program.push(Instr::Shuffle {
                            vd: v(1),
                            va: v(0),
                            slot: rot1,
                        });
                        v(1)
                    }
                    _ => {
                        program.push(Instr::Shuffle {
                            vd: v(2),
                            va: v(0),
                            slot: rot2,
                        });
                        v(2)
                    }
                };
                program.push(Instr::BroadcastImm {
                    vd: v(3),
                    value: coeff,
                });
                program.push(Instr::VMac { va: src, vb: v(3) });
            }
        }
        program.push(Instr::VMacRead { vd: v(4), shift });
        program.push(Instr::VStore {
            vs: v(4),
            rows: [out_base + r; 4],
        });
    }
    pe.run(&program)?;

    (0..out_rows)
        .map(|r| Ok(pe.mem().unstage(out_base + r, 1)?))
        .collect()
}

/// Convert a float in `[-1, 1]` to Q15.
fn q15(x: f64) -> i16 {
    (x * 32767.0).round().clamp(-32768.0, 32767.0) as i16
}

/// 128-point radix-2 DIT fixed-point FFT of a complex Q15 signal, using
/// butterfly shuffles through the XRAM crossbar and per-stage halving for
/// overflow control (so the result approximates `DFT/128`).
///
/// Per stage, with `t = W ⊛ X` (lane-wise twiddle multiply; `W = 1` on
/// lower butterfly lanes) and `p` the butterfly-partner exchange of `t`:
/// `X' = (sign·t + p) / 2`, where `sign` is `+1` on lower and `−1` on
/// upper lanes — the classic SIMD butterfly factorization.
///
/// # Errors
///
/// Propagates any [`PeError`] from execution.
///
/// # Panics
///
/// Panics if the inputs are not 128 elements each.
pub fn fft128(
    pe: &mut ProcessingElement,
    re: &[i16],
    im: &[i16],
) -> Result<(Vec<i16>, Vec<i16>), PeError> {
    assert_eq!(re.len(), SIMD_WIDTH, "inputs must be 128 wide");
    assert_eq!(im.len(), SIMD_WIDTH, "inputs must be 128 wide");
    let n = SIMD_WIDTH;
    let stages = 7u32;

    // Bit-reversal permutation (input reorder of decimation-in-time).
    let bitrev = ShuffleConfig::new(
        (0..n)
            .map(|i| (i as u32).reverse_bits() as usize >> (32 - stages))
            .collect(),
    );
    let bitrev_slot = pe.store_shuffle(bitrev);

    // Per-stage twiddle/sign tables, staged into SIMD memory rows 100..=120.
    let table_base = 100usize;
    let mut butterfly_slots = Vec::new();
    for stage in 0..stages {
        let span = 1usize << stage;
        let mut wre = vec![0i16; n];
        let mut wim = vec![0i16; n];
        let mut sign = vec![0i16; n];
        for i in 0..n {
            if i & span == 0 {
                wre[i] = q15(1.0 - f64::EPSILON); // ~+1.0 in Q15
                wim[i] = 0;
                sign[i] = 1;
            } else {
                let k = (i & (span - 1)) as f64;
                let ang = -std::f64::consts::PI * k / span as f64;
                wre[i] = q15(ang.cos());
                wim[i] = q15(ang.sin());
                sign[i] = -1;
            }
        }
        let row = table_base + 3 * stage as usize;
        pe.mem_mut().stage(row, &wre)?;
        pe.mem_mut().stage(row + 1, &wim)?;
        pe.mem_mut().stage(row + 2, &sign)?;
        butterfly_slots.push(pe.store_shuffle(ShuffleConfig::butterfly(n, stage)));
    }

    // Register allocation: v0/v1 = X(re/im); v2/v3 = W; v4 = sign;
    // v5..v8 = scratch; v9/v10 = t; v11/v12 = partner.
    pe.set_vreg(v(0), re);
    pe.set_vreg(v(1), im);

    let mut program = vec![
        Instr::Shuffle {
            vd: v(0),
            va: v(0),
            slot: bitrev_slot,
        },
        Instr::Shuffle {
            vd: v(1),
            va: v(1),
            slot: bitrev_slot,
        },
    ];
    for (stage, &bf) in butterfly_slots.iter().enumerate() {
        let row = table_base + 3 * stage;
        program.extend([
            Instr::VLoad {
                vd: v(2),
                rows: [row; 4],
            }, // Wre
            Instr::VLoad {
                vd: v(3),
                rows: [row + 1; 4],
            }, // Wim
            Instr::VLoad {
                vd: v(4),
                rows: [row + 2; 4],
            }, // sign
            // t = X * W (complex, Q15).
            Instr::VBin {
                op: VBinOp::MulQ15,
                vd: v(5),
                va: v(0),
                vb: v(2),
            }, // re*Wre
            Instr::VBin {
                op: VBinOp::MulQ15,
                vd: v(6),
                va: v(1),
                vb: v(3),
            }, // im*Wim
            Instr::VBin {
                op: VBinOp::Sub,
                vd: v(9),
                va: v(5),
                vb: v(6),
            }, // t_re
            Instr::VBin {
                op: VBinOp::MulQ15,
                vd: v(7),
                va: v(0),
                vb: v(3),
            }, // re*Wim
            Instr::VBin {
                op: VBinOp::MulQ15,
                vd: v(8),
                va: v(1),
                vb: v(2),
            }, // im*Wre
            Instr::VBin {
                op: VBinOp::Add,
                vd: v(10),
                va: v(7),
                vb: v(8),
            }, // t_im
            // p = butterfly partner of t.
            Instr::Shuffle {
                vd: v(11),
                va: v(9),
                slot: bf,
            },
            Instr::Shuffle {
                vd: v(12),
                va: v(10),
                slot: bf,
            },
            // X' = (sign*t + p) >> 1.
            Instr::VBin {
                op: VBinOp::Mul,
                vd: v(5),
                va: v(9),
                vb: v(4),
            },
            Instr::VBin {
                op: VBinOp::Add,
                vd: v(5),
                va: v(5),
                vb: v(11),
            },
            Instr::VUn {
                op: crate::isa::VUnOp::SarImm(1),
                vd: v(0),
                va: v(5),
            },
            Instr::VBin {
                op: VBinOp::Mul,
                vd: v(6),
                va: v(10),
                vb: v(4),
            },
            Instr::VBin {
                op: VBinOp::Add,
                vd: v(6),
                va: v(6),
                vb: v(12),
            },
            Instr::VUn {
                op: crate::isa::VUnOp::SarImm(1),
                vd: v(1),
                va: v(6),
            },
        ]);
    }
    pe.run(&program)?;
    Ok((pe.vreg(v(0)).to_vec(), pe.vreg(v(1)).to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, scale: i16, offset: i16) -> Vec<i16> {
        (0..n)
            .map(|i| (i as i16).wrapping_mul(scale).wrapping_add(offset))
            .collect()
    }

    #[test]
    fn vector_add_matches_golden() {
        let mut pe = ProcessingElement::new();
        let a = ramp(128, 3, -100);
        let b = ramp(128, -2, 7);
        let got = vector_add(&mut pe, &a, &b).unwrap();
        assert_eq!(got, golden::vector_add(&a, &b));
    }

    #[test]
    fn fir_matches_golden() {
        let mut pe = ProcessingElement::new();
        let signal: Vec<i16> = (0..384).map(|i| ((i * 37) % 199) as i16 - 99).collect();
        let coeffs = [3, -1, 4, 1, -5];
        let got = fir(&mut pe, &signal, &coeffs, 2).unwrap();
        let want = golden::fir(&signal, &coeffs, 2);
        // Kernel produces len-128 outputs; golden covers len-taps+1.
        assert_eq!(got.len(), 256);
        assert_eq!(got[..], want[..256]);
    }

    #[test]
    fn conv2d_matches_golden() {
        let mut pe = ProcessingElement::new();
        let image: Vec<Vec<i16>> = (0..6)
            .map(|r| {
                (0..128)
                    .map(|c| ((r * 131 + c * 17) % 255) as i16 - 127)
                    .collect()
            })
            .collect();
        let kernel = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
        let got = conv2d_3x3(&mut pe, &image, &kernel, 4).unwrap();
        let want = golden::conv2d_3x3(&image, &kernel, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn fft_matches_dft_within_tolerance() {
        let mut pe = ProcessingElement::new();
        // A two-tone signal at bins 3 and 17, quarter scale.
        let re: Vec<i16> = (0..128)
            .map(|i| {
                let t = f64::from(i) / 128.0;
                q15(0.20 * (2.0 * std::f64::consts::PI * 3.0 * t).cos()
                    + 0.10 * (2.0 * std::f64::consts::PI * 17.0 * t).sin())
            })
            .collect();
        let im = vec![0i16; 128];
        let (got_re, got_im) = fft128(&mut pe, &re, &im).unwrap();
        let (want_re, want_im) = golden::dft_scaled(&re, &im);
        for k in 0..128 {
            let err_re = (f64::from(got_re[k]) - want_re[k]).abs();
            let err_im = (f64::from(got_im[k]) - want_im[k]).abs();
            assert!(err_re < 16.0, "bin {k}: re {} vs {}", got_re[k], want_re[k]);
            assert!(err_im < 16.0, "bin {k}: im {} vs {}", got_im[k], want_im[k]);
        }
        // The tone bins dominate.
        let mag = |k: usize| f64::from(got_re[k]).hypot(f64::from(got_im[k]));
        assert!(mag(3) > 10.0 * mag(5));
        assert!(mag(17) > 10.0 * mag(5));
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut pe = ProcessingElement::new();
        let mut re = vec![0i16; 128];
        re[0] = 12800;
        let im = vec![0i16; 128];
        let (got_re, got_im) = fft128(&mut pe, &re, &im).unwrap();
        // DFT of delta: constant 12800/128 = 100 in every bin.
        for k in 0..128 {
            assert!(
                (i32::from(got_re[k]) - 100).abs() <= 3,
                "bin {k}: {}",
                got_re[k]
            );
            assert!(i32::from(got_im[k]).abs() <= 3, "bin {k}: {}", got_im[k]);
        }
    }

    #[test]
    fn kernels_account_cycles_and_energy() {
        let mut pe = ProcessingElement::new();
        let a = ramp(128, 1, 0);
        let b = ramp(128, 1, 1);
        let _ = vector_add(&mut pe, &a, &b).unwrap();
        let stats = *pe.stats();
        assert!(stats.cycles >= 4);
        assert!(stats.fu_energy_pj > 0.0);
        assert!(stats.mem_energy_pj > 0.0);
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn fir_rejects_ragged_signal() {
        let mut pe = ProcessingElement::new();
        let _ = fir(&mut pe, &[0; 200], &[1], 0);
    }
}

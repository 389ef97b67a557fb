//! The Diet SODA instruction set.
//!
//! The PE is driven by a flat list of instructions, the way a VLIW kernel
//! compiler would emit them; sequential control (loop counts, addresses)
//! is resolved at program-build time by the kernel generators in
//! [`crate::kernels`], standing in for the scalar pipeline's bookkeeping.
//!
//! Vector arithmetic runs on the 128 near-threshold functional units and
//! is therefore subject to timing-fault injection; loads, stores and
//! shuffles run in the full-voltage domain (memory system + XRAM).

use crate::{BANKS, SCALAR_REGS, SIMD_REGS};

/// A SIMD register-file index (0..32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VReg(u8);

impl VReg {
    /// Checked constructor.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < SIMD_REGS,
            "vector register v{index} does not exist"
        );
        Self(index)
    }

    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A scalar register index (0..16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SReg(u8);

impl SReg {
    /// Checked constructor.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < SCALAR_REGS,
            "scalar register s{index} does not exist"
        );
        Self(index)
    }

    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Two-operand vector ALU/multiplier operations (element-wise, 16-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VBinOp {
    /// Saturating add.
    Add,
    /// Saturating subtract.
    Sub,
    /// Wrapping low 16-bit product (exact for ±1 sign vectors).
    Mul,
    /// Q15 fractional multiply: `(a·b) >> 15`, saturated.
    MulQ15,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// `1` where `a > b`, else `0` (predicate generation).
    CmpGt,
}

impl VBinOp {
    /// Apply the operation to one element pair.
    #[must_use]
    pub fn apply(self, a: i16, b: i16) -> i16 {
        match self {
            VBinOp::Add => a.saturating_add(b),
            VBinOp::Sub => a.saturating_sub(b),
            VBinOp::Mul => a.wrapping_mul(b),
            VBinOp::MulQ15 => {
                let p = (i32::from(a) * i32::from(b)) >> 15;
                p.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
            }
            VBinOp::Min => a.min(b),
            VBinOp::Max => a.max(b),
            VBinOp::And => a & b,
            VBinOp::Or => a | b,
            VBinOp::Xor => a ^ b,
            VBinOp::CmpGt => i16::from(a > b),
        }
    }
}

/// One-operand vector operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VUnOp {
    /// Saturating absolute value.
    Abs,
    /// Saturating negation.
    Neg,
    /// Bitwise NOT.
    Not,
    /// Logical shift left by an immediate.
    ShlImm(u8),
    /// Arithmetic shift right by an immediate.
    SarImm(u8),
}

impl VUnOp {
    /// Apply the operation to one element.
    #[must_use]
    pub fn apply(self, a: i16) -> i16 {
        match self {
            VUnOp::Abs => a.saturating_abs(),
            VUnOp::Neg => a.saturating_neg(),
            VUnOp::Not => !a,
            VUnOp::ShlImm(n) => a.wrapping_shl(u32::from(n)),
            VUnOp::SarImm(n) => a.wrapping_shr(u32::from(n).min(15)),
        }
    }
}

/// One Diet SODA instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Load a 128-wide vector: bank `b` reads its row `rows[b]`.
    VLoad {
        /// Destination register.
        vd: VReg,
        /// Per-bank row addresses (AGU output).
        rows: [usize; BANKS],
    },
    /// Unaligned 128-wide load through the prefetch buffer: elements
    /// `offset..offset+128` of the two consecutive staged rows starting at
    /// `first_row` (paper Appendix B: prefetcher + 128-wide buffer + XRAM
    /// support complex alignment).
    VLoadUnaligned {
        /// Destination register.
        vd: VReg,
        /// First staged row.
        first_row: usize,
        /// Element offset into the 256-element window (0..128).
        offset: usize,
    },
    /// Store a 128-wide vector.
    VStore {
        /// Source register.
        vs: VReg,
        /// Per-bank row addresses.
        rows: [usize; BANKS],
    },
    /// `vd = va ⊕ vb` element-wise on the SIMD FUs.
    VBin {
        /// Operation.
        op: VBinOp,
        /// Destination.
        vd: VReg,
        /// First operand.
        va: VReg,
        /// Second operand.
        vb: VReg,
    },
    /// `vd = op(va)` element-wise.
    VUn {
        /// Operation.
        op: VUnOp,
        /// Destination.
        vd: VReg,
        /// Operand.
        va: VReg,
    },
    /// Clear the 32-bit MAC accumulators.
    VMacClear,
    /// `acc += va · vb` per lane (full-precision 32-bit accumulate).
    VMac {
        /// First operand.
        va: VReg,
        /// Second operand.
        vb: VReg,
    },
    /// `vd = saturate16(acc >> shift)` per lane.
    VMacRead {
        /// Destination.
        vd: VReg,
        /// Right shift applied before saturation.
        shift: u8,
    },
    /// Predicated select on the SIMD FUs:
    /// `vd[l] = if mask[l] != 0 { va[l] } else { vb[l] }`.
    ///
    /// Masks are produced by `CmpGt` (or loaded); this is the conditional
    /// primitive DLP kernels use instead of branches.
    VSel {
        /// Destination.
        vd: VReg,
        /// Predicate register (non-zero selects `va`).
        mask: VReg,
        /// Taken value.
        va: VReg,
        /// Not-taken value.
        vb: VReg,
    },
    /// Route `va` through stored crossbar configuration `slot`.
    Shuffle {
        /// Destination.
        vd: VReg,
        /// Source.
        va: VReg,
        /// Stored configuration slot.
        slot: usize,
    },
    /// Adder-tree reduction: `sd = saturate16(Σ va >> shift)`.
    Reduce {
        /// Destination scalar register.
        sd: SReg,
        /// Vector operand.
        va: VReg,
        /// Right shift applied to the 32-bit sum before saturation.
        shift: u8,
    },
    /// Broadcast an immediate into every lane of `vd`.
    BroadcastImm {
        /// Destination.
        vd: VReg,
        /// Value.
        value: i16,
    },
    /// Broadcast scalar register `ss` into every lane of `vd`
    /// (scalar-to-SIMD interface).
    BroadcastS {
        /// Destination.
        vd: VReg,
        /// Source scalar register.
        ss: SReg,
    },
    /// Load an immediate into a scalar register.
    SLoadImm {
        /// Destination.
        sd: SReg,
        /// Value.
        value: i16,
    },
    /// Scalar add: `sd = sa + sb` (saturating).
    SAdd {
        /// Destination.
        sd: SReg,
        /// First operand.
        sa: SReg,
        /// Second operand.
        sb: SReg,
    },
    /// Scalar multiply: `sd = sa · sb` (wrapping).
    SMul {
        /// Destination.
        sd: SReg,
        /// First operand.
        sa: SReg,
        /// Second operand.
        sb: SReg,
    },
    /// Scalar memory load.
    SLoad {
        /// Destination.
        sd: SReg,
        /// Word address.
        addr: usize,
    },
    /// Scalar memory store.
    SStore {
        /// Source.
        ss: SReg,
        /// Word address.
        addr: usize,
    },
}

impl std::fmt::Display for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for SReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl std::fmt::Display for Instr {
    /// Assembly-style disassembly, e.g. `vadd v2, v0, v1`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::VLoad { vd, rows } => write!(f, "vload {vd}, rows{rows:?}"),
            Instr::VLoadUnaligned {
                vd,
                first_row,
                offset,
            } => {
                write!(f, "vloadu {vd}, row {first_row} + {offset}")
            }
            Instr::VStore { vs, rows } => write!(f, "vstore {vs}, rows{rows:?}"),
            Instr::VBin { op, vd, va, vb } => {
                let name = match op {
                    VBinOp::Add => "vadd",
                    VBinOp::Sub => "vsub",
                    VBinOp::Mul => "vmul",
                    VBinOp::MulQ15 => "vmulq15",
                    VBinOp::Min => "vmin",
                    VBinOp::Max => "vmax",
                    VBinOp::And => "vand",
                    VBinOp::Or => "vor",
                    VBinOp::Xor => "vxor",
                    VBinOp::CmpGt => "vcmpgt",
                };
                write!(f, "{name} {vd}, {va}, {vb}")
            }
            Instr::VUn { op, vd, va } => match op {
                VUnOp::Abs => write!(f, "vabs {vd}, {va}"),
                VUnOp::Neg => write!(f, "vneg {vd}, {va}"),
                VUnOp::Not => write!(f, "vnot {vd}, {va}"),
                VUnOp::ShlImm(n) => write!(f, "vshl {vd}, {va}, #{n}"),
                VUnOp::SarImm(n) => write!(f, "vsar {vd}, {va}, #{n}"),
            },
            Instr::VSel { vd, mask, va, vb } => write!(f, "vsel {vd}, {mask} ? {va} : {vb}"),
            Instr::VMacClear => f.write_str("vmac.clear"),
            Instr::VMac { va, vb } => write!(f, "vmac {va}, {vb}"),
            Instr::VMacRead { vd, shift } => write!(f, "vmac.read {vd}, #{shift}"),
            Instr::Shuffle { vd, va, slot } => write!(f, "vshuf {vd}, {va}, cfg{slot}"),
            Instr::Reduce { sd, va, shift } => write!(f, "vredsum {sd}, {va}, #{shift}"),
            Instr::BroadcastImm { vd, value } => write!(f, "vbcast {vd}, #{value}"),
            Instr::BroadcastS { vd, ss } => write!(f, "vbcast {vd}, {ss}"),
            Instr::SLoadImm { sd, value } => write!(f, "sli {sd}, #{value}"),
            Instr::SAdd { sd, sa, sb } => write!(f, "sadd {sd}, {sa}, {sb}"),
            Instr::SMul { sd, sa, sb } => write!(f, "smul {sd}, {sa}, {sb}"),
            Instr::SLoad { sd, addr } => write!(f, "sload {sd}, [{addr}]"),
            Instr::SStore { ss, addr } => write!(f, "sstore {ss}, [{addr}]"),
        }
    }
}

impl Instr {
    /// Whether the instruction executes on the near-threshold SIMD
    /// functional units (and is therefore exposed to variation-induced
    /// timing faults).
    #[must_use]
    pub fn uses_simd_fus(&self) -> bool {
        matches!(
            self,
            Instr::VBin { .. }
                | Instr::VUn { .. }
                | Instr::VSel { .. }
                | Instr::VMac { .. }
                | Instr::VMacRead { .. }
        )
    }

    /// Issue cycles for the instruction (pipelined single-issue model;
    /// unaligned loads pay one extra memory cycle for the second row).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            Instr::VLoadUnaligned { .. } => 2,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        assert_eq!(VBinOp::Add.apply(i16::MAX, 1), i16::MAX); // saturates
        assert_eq!(VBinOp::Sub.apply(i16::MIN, 1), i16::MIN);
        assert_eq!(VBinOp::Mul.apply(-3, 2), -6);
        assert_eq!(VBinOp::MulQ15.apply(16384, 16384), 8192); // 0.5*0.5=0.25
        assert_eq!(VBinOp::Min.apply(3, -4), -4);
        assert_eq!(VBinOp::Max.apply(3, -4), 3);
        assert_eq!(VBinOp::CmpGt.apply(5, 4), 1);
        assert_eq!(VBinOp::CmpGt.apply(4, 5), 0);
        assert_eq!(VBinOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn q15_multiply_saturates_minus_one_squared() {
        // (-1.0) * (-1.0) overflows Q15; must saturate to +MAX.
        assert_eq!(VBinOp::MulQ15.apply(i16::MIN, i16::MIN), i16::MAX);
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(VUnOp::Abs.apply(-7), 7);
        assert_eq!(VUnOp::Abs.apply(i16::MIN), i16::MAX); // saturating
        assert_eq!(VUnOp::Neg.apply(5), -5);
        assert_eq!(VUnOp::Not.apply(0), -1);
        assert_eq!(VUnOp::ShlImm(2).apply(3), 12);
        assert_eq!(VUnOp::SarImm(1).apply(-4), -2);
    }

    #[test]
    fn register_validation() {
        assert_eq!(VReg::new(31).index(), 31);
        assert_eq!(SReg::new(15).index(), 15);
    }

    #[test]
    #[should_panic(expected = "v32 does not exist")]
    fn bad_vreg_rejected() {
        let _ = VReg::new(32);
    }

    #[test]
    fn fu_classification() {
        let v = VReg::new(0);
        assert!(Instr::VBin {
            op: VBinOp::Add,
            vd: v,
            va: v,
            vb: v
        }
        .uses_simd_fus());
        assert!(Instr::VMac { va: v, vb: v }.uses_simd_fus());
        assert!(!Instr::VLoad {
            vd: v,
            rows: [0; 4]
        }
        .uses_simd_fus());
        assert!(!Instr::Shuffle {
            vd: v,
            va: v,
            slot: 0
        }
        .uses_simd_fus());
    }

    #[test]
    fn disassembly_round_trips_mnemonics() {
        let v0 = VReg::new(0);
        let v1 = VReg::new(1);
        let s0 = SReg::new(0);
        let program = [
            Instr::VLoad {
                vd: v0,
                rows: [3; 4],
            },
            Instr::VBin {
                op: VBinOp::Add,
                vd: v1,
                va: v0,
                vb: v0,
            },
            Instr::VUn {
                op: VUnOp::SarImm(2),
                vd: v1,
                va: v1,
            },
            Instr::VMacClear,
            Instr::Reduce {
                sd: s0,
                va: v1,
                shift: 1,
            },
            Instr::Shuffle {
                vd: v0,
                va: v1,
                slot: 7,
            },
        ];
        for (instr, want) in program.iter().zip([
            "vload v0",
            "vadd v1, v0, v0",
            "vsar v1, v1, #2",
            "vmac.clear",
            "vredsum s0, v1, #1",
            "vshuf v0, v1, cfg7",
        ]) {
            let text = instr.to_string();
            assert!(
                text.starts_with(want),
                "`{text}` does not start with `{want}`"
            );
        }
    }

    #[test]
    fn vsel_classification_and_disassembly() {
        let v0 = VReg::new(0);
        let instr = Instr::VSel {
            vd: v0,
            mask: VReg::new(1),
            va: VReg::new(2),
            vb: VReg::new(3),
        };
        assert!(instr.uses_simd_fus());
        assert_eq!(instr.to_string(), "vsel v0, v1 ? v2 : v3");
    }

    #[test]
    fn cycle_model() {
        let v = VReg::new(0);
        assert_eq!(
            Instr::VLoad {
                vd: v,
                rows: [0; 4]
            }
            .cycles(),
            1
        );
        assert_eq!(
            Instr::VLoadUnaligned {
                vd: v,
                first_row: 0,
                offset: 3
            }
            .cycles(),
            2
        );
    }
}

//! The Diet SODA processing element: state, execution, cycle and energy
//! accounting, fault handling.

use ntv_device::TechModel;
use ntv_mc::{CounterDraws, CounterRng};
use ntv_units::Volts;

use crate::fault::{ErrorPolicy, FaultModel};
use crate::isa::{Instr, VReg};
use crate::memory::{AccessOutOfRange, ScalarMemory, SimdMemory};
use crate::xram::{LaneMap, NotEnoughLanes, ShuffleConfig, XramCrossbar};
use crate::{SCALAR_REGS, SIMD_REGS, SIMD_WIDTH};

/// Extra cycles a SIMD-wide flush-and-replay costs on top of re-issuing
/// the instruction (pipeline refill; paper §4: recovery in one lane stalls
/// the whole array).
pub const REPLAY_FLUSH_CYCLES: u64 = 4;

/// Per-event energy constants (picojoules).
///
/// The defaults follow the Diet SODA power story: the SIMD datapath runs
/// near threshold (cheap per-op energy), while the memory system and the
/// XRAM shuffle network stay at full voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Energy per lane per SIMD FU operation (NTV domain).
    pub fu_lane_pj: f64,
    /// Energy per 32-wide memory-bank row access (FV domain).
    pub mem_row_pj: f64,
    /// Energy per 128-wide crossbar traversal (FV domain).
    pub ssn_pj: f64,
    /// Energy per scalar operation (FV domain).
    pub scalar_pj: f64,
}

impl EnergyConfig {
    /// Defaults corresponding to near-threshold SIMD operation.
    #[must_use]
    pub fn ntv_default() -> Self {
        Self {
            fu_lane_pj: 0.05,
            mem_row_pj: 4.0,
            ssn_pj: 6.0,
            scalar_pj: 0.5,
        }
    }

    /// Scale the NTV-domain FU energy for a supply voltage, quadratically
    /// against the node's nominal voltage (CV² switching energy).
    ///
    /// # Example
    ///
    /// ```
    /// use ntv_device::{TechModel, TechNode};
    /// use ntv_soda::pe::EnergyConfig;
    /// use ntv_units::Volts;
    /// let tech = TechModel::new(TechNode::Gp90);
    /// let ntv = EnergyConfig::for_tech(&tech, Volts(0.5));
    /// let fv = EnergyConfig::for_tech(&tech, Volts(1.0));
    /// assert!((fv.fu_lane_pj / ntv.fu_lane_pj - 4.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn for_tech(tech: &TechModel, vdd: Volts) -> Self {
        let base = Self::ntv_default();
        let nominal = tech.nominal_vdd();
        // ntv_default is calibrated at half the nominal supply.
        let ratio = (vdd / (0.5 * nominal)).powi(2);
        Self {
            fu_lane_pj: base.fu_lane_pj * ratio,
            ..base
        }
    }
}

impl Default for EnergyConfig {
    fn default() -> Self {
        Self::ntv_default()
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeStats {
    /// Total cycles (including replay penalties).
    pub cycles: u64,
    /// Instructions executed (excluding replays).
    pub instructions: u64,
    /// SIMD FU operations executed (including replays).
    pub fu_ops: u64,
    /// Whole-array replays triggered by the stall-retry policy.
    pub replays: u64,
    /// Lane-level timing errors injected.
    pub lane_errors: u64,
    /// Lane results actually corrupted (errors that reached state).
    pub corrupted_lanes: u64,
    /// 32-wide memory-bank row accesses.
    pub mem_rows: u64,
    /// Crossbar traversals.
    pub shuffles: u64,
    /// NTV-domain (FU) energy, pJ.
    pub fu_energy_pj: f64,
    /// FV-domain memory energy, pJ.
    pub mem_energy_pj: f64,
    /// FV-domain crossbar energy, pJ.
    pub ssn_energy_pj: f64,
    /// FV-domain scalar energy, pJ.
    pub scalar_energy_pj: f64,
}

impl PeStats {
    /// Total energy across domains, pJ.
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.fu_energy_pj + self.mem_energy_pj + self.ssn_energy_pj + self.scalar_energy_pj
    }
}

/// Errors surfaced by [`ProcessingElement::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeError {
    /// A memory access left the address space.
    Memory(AccessOutOfRange),
    /// A shuffle referenced an unstored configuration slot.
    BadShuffleSlot {
        /// The missing slot.
        slot: usize,
    },
    /// An unaligned load's offset was not in `0..128` or overran memory.
    BadUnalignedLoad {
        /// First staged row.
        first_row: usize,
        /// Element offset.
        offset: usize,
    },
    /// Spare repair failed: more faulty lanes than spares.
    Unrepairable(NotEnoughLanes),
}

impl std::fmt::Display for PeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeError::Memory(e) => write!(f, "memory access failed: {e}"),
            PeError::BadShuffleSlot { slot } => {
                write!(f, "no shuffle configuration in slot {slot}")
            }
            PeError::BadUnalignedLoad { first_row, offset } => {
                write!(
                    f,
                    "invalid unaligned load (row {first_row}, offset {offset})"
                )
            }
            PeError::Unrepairable(e) => write!(f, "spare repair failed: {e}"),
        }
    }
}

impl std::error::Error for PeError {}

impl From<AccessOutOfRange> for PeError {
    fn from(e: AccessOutOfRange) -> Self {
        PeError::Memory(e)
    }
}

/// The Diet SODA processing element.
///
/// # Example
///
/// ```
/// use ntv_soda::isa::{Instr, VBinOp, VReg};
/// use ntv_soda::pe::ProcessingElement;
///
/// let mut pe = ProcessingElement::new();
/// let (v0, v1, v2) = (VReg::new(0), VReg::new(1), VReg::new(2));
/// pe.set_vreg(v0, &[3; 128]);
/// pe.set_vreg(v1, &[4; 128]);
/// pe.execute(&Instr::VBin { op: VBinOp::Add, vd: v2, va: v0, vb: v1 })?;
/// assert_eq!(pe.vreg(v2)[0], 7);
/// # Ok::<(), ntv_soda::pe::PeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    vregs: Vec<[i16; SIMD_WIDTH]>,
    accs: [i32; SIMD_WIDTH],
    sregs: [i16; SCALAR_REGS],
    mem: SimdMemory,
    smem: ScalarMemory,
    xram: XramCrossbar,
    fault: FaultModel,
    policy: ErrorPolicy,
    fault_rng: CounterDraws,
    energy: EnergyConfig,
    stats: PeStats,
}

impl Default for ProcessingElement {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcessingElement {
    /// A fault-free PE with default energy constants.
    #[must_use]
    pub fn new() -> Self {
        Self {
            vregs: vec![[0; SIMD_WIDTH]; SIMD_REGS],
            accs: [0; SIMD_WIDTH],
            sregs: [0; SCALAR_REGS],
            mem: SimdMemory::new(),
            smem: ScalarMemory::new(),
            xram: XramCrossbar::new(SIMD_WIDTH),
            fault: FaultModel::none(SIMD_WIDTH),
            policy: ErrorPolicy::default(),
            fault_rng: CounterRng::new(0, "pe-fault").at(0),
            energy: EnergyConfig::default(),
            stats: PeStats::default(),
        }
    }

    /// Replace the energy constants.
    pub fn set_energy_config(&mut self, energy: EnergyConfig) {
        self.energy = energy;
    }

    /// Set the error-handling policy.
    pub fn set_error_policy(&mut self, policy: ErrorPolicy) {
        self.policy = policy;
    }

    /// Install a fault model (and the RNG stream that drives intermittent
    /// errors).
    ///
    /// # Panics
    ///
    /// Panics if the model covers fewer physical lanes than the SIMD width.
    pub fn set_fault_model(&mut self, fault: FaultModel, rng: CounterDraws) {
        assert!(
            fault.physical_lanes() >= SIMD_WIDTH,
            "fault model must cover at least {SIMD_WIDTH} physical lanes"
        );
        self.fault = fault;
        self.fault_rng = rng;
    }

    /// Test-time repair: mark lanes with error probability above
    /// `threshold` faulty and rebuild the crossbar lane map to bypass them
    /// (the paper's global sparing through XRAM, Appendix D).
    ///
    /// Returns the number of spare lanes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`PeError::Unrepairable`] if fewer than 128 healthy lanes
    /// remain.
    pub fn repair(&mut self, threshold: f64) -> Result<usize, PeError> {
        let faulty = self.fault.faulty_lanes(threshold);
        let map = LaneMap::with_faulty(SIMD_WIDTH, self.fault.physical_lanes(), &faulty)
            .map_err(PeError::Unrepairable)?;
        let spares_used = faulty.len();
        self.xram.set_lane_map(map);
        Ok(spares_used)
    }

    /// Store a crossbar shuffle configuration, returning its slot.
    pub fn store_shuffle(&mut self, config: ShuffleConfig) -> usize {
        self.xram.store(config)
    }

    /// Read a vector register.
    #[must_use]
    pub fn vreg(&self, v: VReg) -> &[i16; SIMD_WIDTH] {
        &self.vregs[v.index()]
    }

    /// Write a vector register (host-side staging).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not 128 elements.
    pub fn set_vreg(&mut self, v: VReg, data: &[i16]) {
        assert_eq!(data.len(), SIMD_WIDTH, "vector registers are 128 wide");
        self.vregs[v.index()].copy_from_slice(data);
    }

    /// Read a scalar register.
    #[cfg(test)]
    fn sreg(&self, index: usize) -> i16 {
        self.sregs[index]
    }

    /// The SIMD memory (host staging).
    #[must_use]
    pub fn mem(&self) -> &SimdMemory {
        &self.mem
    }

    /// Mutable SIMD memory (host staging).
    pub fn mem_mut(&mut self) -> &mut SimdMemory {
        &mut self.mem
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &PeStats {
        &self.stats
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] on invalid memory accesses or shuffle slots;
    /// architectural state is unchanged on error.
    pub fn execute(&mut self, instr: &Instr) -> Result<(), PeError> {
        self.stats.instructions += 1;
        self.stats.cycles += instr.cycles();

        if instr.uses_simd_fus() {
            self.execute_fu(instr);
            return Ok(());
        }

        match *instr {
            Instr::VLoad { vd, rows } => {
                let data = self.mem.read_vector(rows)?;
                self.vregs[vd.index()].copy_from_slice(&data);
                self.account_mem_rows(4);
            }
            Instr::VLoadUnaligned {
                vd,
                first_row,
                offset,
            } => {
                if offset >= SIMD_WIDTH {
                    return Err(PeError::BadUnalignedLoad { first_row, offset });
                }
                let lo = self.mem.read_vector([first_row; 4])?;
                let hi = self
                    .mem
                    .read_vector([first_row + 1; 4])
                    .map_err(|_| PeError::BadUnalignedLoad { first_row, offset })?;
                let mut window = lo;
                window.extend_from_slice(&hi);
                self.vregs[vd.index()].copy_from_slice(&window[offset..offset + SIMD_WIDTH]);
                self.account_mem_rows(8);
            }
            Instr::VStore { vs, rows } => {
                let data = self.vregs[vs.index()];
                self.mem.write_vector(rows, &data)?;
                self.account_mem_rows(4);
            }
            Instr::Shuffle { vd, va, slot } => {
                if self.xram.config(slot).is_none() {
                    return Err(PeError::BadShuffleSlot { slot });
                }
                let out = self.xram.shuffle(slot, &self.vregs[va.index()]);
                self.vregs[vd.index()].copy_from_slice(&out);
                self.stats.shuffles += 1;
                self.stats.ssn_energy_pj += self.energy.ssn_pj;
            }
            Instr::Reduce { sd, va, shift } => {
                let sum: i32 = self.vregs[va.index()].iter().map(|&x| i32::from(x)).sum();
                let shifted = sum >> shift;
                self.sregs[sd.index()] =
                    shifted.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
                // The adder tree is part of the SIMD pipeline but runs wide
                // margins; account it as one FU-class op without fault
                // exposure (its 7 levels are far off the critical path count).
                self.stats.fu_energy_pj += self.energy.fu_lane_pj * SIMD_WIDTH as f64;
            }
            Instr::BroadcastImm { vd, value } => {
                self.vregs[vd.index()] = [value; SIMD_WIDTH];
            }
            Instr::BroadcastS { vd, ss } => {
                self.vregs[vd.index()] = [self.sregs[ss.index()]; SIMD_WIDTH];
            }
            Instr::SLoadImm { sd, value } => {
                self.sregs[sd.index()] = value;
                self.account_scalar();
            }
            Instr::SAdd { sd, sa, sb } => {
                self.sregs[sd.index()] =
                    self.sregs[sa.index()].saturating_add(self.sregs[sb.index()]);
                self.account_scalar();
            }
            Instr::SMul { sd, sa, sb } => {
                self.sregs[sd.index()] =
                    self.sregs[sa.index()].wrapping_mul(self.sregs[sb.index()]);
                self.account_scalar();
            }
            Instr::SLoad { sd, addr } => {
                self.sregs[sd.index()] = self.smem.read(addr)?;
                self.account_scalar();
            }
            Instr::SStore { ss, addr } => {
                self.smem.write(addr, self.sregs[ss.index()])?;
                self.account_scalar();
            }
            Instr::VMacClear => {
                self.accs = [0; SIMD_WIDTH];
            }
            #[expect(
                clippy::unreachable,
                reason = "execute() routes every FU instruction to apply_fu first"
            )]
            Instr::VBin { .. }
            | Instr::VUn { .. }
            | Instr::VSel { .. }
            | Instr::VMac { .. }
            | Instr::VMacRead { .. } => unreachable!("FU instructions handled above"),
        }
        Ok(())
    }

    /// Run a whole program.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first failing instruction's error.
    pub fn run(&mut self, program: &[Instr]) -> Result<(), PeError> {
        for instr in program {
            self.execute(instr)?;
        }
        Ok(())
    }

    fn account_mem_rows(&mut self, rows: u64) {
        self.stats.mem_rows += rows;
        self.stats.mem_energy_pj += self.energy.mem_row_pj * rows as f64;
    }

    fn account_scalar(&mut self) {
        self.stats.scalar_energy_pj += self.energy.scalar_pj;
    }

    fn account_fu_op(&mut self) {
        self.stats.fu_ops += 1;
        self.stats.fu_energy_pj += self.energy.fu_lane_pj * SIMD_WIDTH as f64;
    }

    /// Execute a SIMD FU instruction with fault injection.
    fn execute_fu(&mut self, instr: &Instr) {
        self.account_fu_op();
        let mut errors = self.sample_logical_errors();
        self.stats.lane_errors += errors.iter().filter(|&&e| e).count() as u64;

        if self.policy == ErrorPolicy::StallRetry && errors.iter().any(|&e| e) {
            // Whole-array flush and re-execute at relaxed timing: the retry
            // succeeds, at the cost of cycles and a second pass of energy.
            self.stats.replays += 1;
            self.stats.cycles += instr.cycles() + REPLAY_FLUSH_CYCLES;
            self.account_fu_op();
            errors.iter_mut().for_each(|e| *e = false);
        }

        self.apply_fu(instr, &errors);
    }

    /// Sample which *logical* lanes err this operation, through the active
    /// lane map.
    fn sample_logical_errors(&mut self) -> Vec<bool> {
        let mut errors = vec![false; SIMD_WIDTH];
        if self.fault.is_fault_free() {
            return errors;
        }
        let physical_errors = self.fault.sample_errors(&mut self.fault_rng);
        if physical_errors.is_empty() {
            return errors;
        }
        let map = self.xram.lane_map();
        for (l, err) in errors.iter_mut().enumerate() {
            if physical_errors.contains(&map.physical(l)) {
                *err = true;
            }
        }
        errors
    }

    /// Apply an FU instruction; erring lanes keep stale destination state.
    fn apply_fu(&mut self, instr: &Instr, errors: &[bool]) {
        let corrupted = errors.iter().filter(|&&e| e).count() as u64;
        self.stats.corrupted_lanes += corrupted;
        match *instr {
            Instr::VBin { op, vd, va, vb } => {
                let a = self.vregs[va.index()];
                let b = self.vregs[vb.index()];
                let dst = &mut self.vregs[vd.index()];
                for l in 0..SIMD_WIDTH {
                    if !errors[l] {
                        dst[l] = op.apply(a[l], b[l]);
                    }
                }
            }
            Instr::VUn { op, vd, va } => {
                let a = self.vregs[va.index()];
                let dst = &mut self.vregs[vd.index()];
                for l in 0..SIMD_WIDTH {
                    if !errors[l] {
                        dst[l] = op.apply(a[l]);
                    }
                }
            }
            Instr::VSel { vd, mask, va, vb } => {
                let m = self.vregs[mask.index()];
                let a = self.vregs[va.index()];
                let b = self.vregs[vb.index()];
                let dst = &mut self.vregs[vd.index()];
                for l in 0..SIMD_WIDTH {
                    if !errors[l] {
                        dst[l] = if m[l] != 0 { a[l] } else { b[l] };
                    }
                }
            }
            Instr::VMac { va, vb } => {
                let a = self.vregs[va.index()];
                let b = self.vregs[vb.index()];
                for l in 0..SIMD_WIDTH {
                    if !errors[l] {
                        self.accs[l] += i32::from(a[l]) * i32::from(b[l]);
                    }
                }
            }
            Instr::VMacRead { vd, shift } => {
                let dst = &mut self.vregs[vd.index()];
                for l in 0..SIMD_WIDTH {
                    if !errors[l] {
                        let v = self.accs[l] >> shift;
                        dst[l] = v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
                    }
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "apply_fu's only caller filters to FU instructions"
            )]
            _ => unreachable!("only FU instructions reach apply_fu"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{VBinOp, VUnOp};
    use crate::SCALAR_WORDS;

    fn v(i: u8) -> VReg {
        VReg::new(i)
    }

    fn s(i: u8) -> crate::isa::SReg {
        crate::isa::SReg::new(i)
    }

    #[test]
    fn vector_alu_and_stats() {
        let mut pe = ProcessingElement::new();
        pe.set_vreg(v(0), &[5; 128]);
        pe.set_vreg(v(1), &[3; 128]);
        pe.execute(&Instr::VBin {
            op: VBinOp::Sub,
            vd: v(2),
            va: v(0),
            vb: v(1),
        })
        .unwrap();
        assert_eq!(pe.vreg(v(2)), &[2; 128]);
        pe.execute(&Instr::VUn {
            op: VUnOp::Neg,
            vd: v(3),
            va: v(2),
        })
        .unwrap();
        assert_eq!(pe.vreg(v(3)), &[-2; 128]);
        assert_eq!(pe.stats().instructions, 2);
        assert_eq!(pe.stats().fu_ops, 2);
        assert!(pe.stats().fu_energy_pj > 0.0);
    }

    #[test]
    fn mac_pipeline() {
        let mut pe = ProcessingElement::new();
        pe.set_vreg(v(0), &[100; 128]);
        pe.set_vreg(v(1), &[200; 128]);
        pe.execute(&Instr::VMacClear).unwrap();
        for _ in 0..3 {
            pe.execute(&Instr::VMac { va: v(0), vb: v(1) }).unwrap();
        }
        pe.execute(&Instr::VMacRead { vd: v(2), shift: 2 }).unwrap();
        assert_eq!(pe.vreg(v(2)), &[((3 * 100 * 200) >> 2) as i16; 128]);
    }

    #[test]
    fn mac_read_saturates() {
        let mut pe = ProcessingElement::new();
        pe.set_vreg(v(0), &[i16::MAX; 128]);
        pe.set_vreg(v(1), &[i16::MAX; 128]);
        pe.execute(&Instr::VMacClear).unwrap();
        pe.execute(&Instr::VMac { va: v(0), vb: v(1) }).unwrap();
        pe.execute(&Instr::VMacRead { vd: v(2), shift: 0 }).unwrap();
        assert_eq!(pe.vreg(v(2)), &[i16::MAX; 128]);
    }

    #[test]
    fn load_store_round_trip() {
        let mut pe = ProcessingElement::new();
        let data: Vec<i16> = (0..128).collect();
        pe.mem_mut().stage(10, &data).unwrap();
        pe.execute(&Instr::VLoad {
            vd: v(4),
            rows: [10; 4],
        })
        .unwrap();
        assert_eq!(pe.vreg(v(4)).to_vec(), data);
        pe.execute(&Instr::VStore {
            vs: v(4),
            rows: [20; 4],
        })
        .unwrap();
        assert_eq!(pe.mem().unstage(20, 1).unwrap(), data);
        assert_eq!(pe.stats().mem_rows, 8);
    }

    #[test]
    fn unaligned_load_extracts_window() {
        let mut pe = ProcessingElement::new();
        let data: Vec<i16> = (0..256).collect();
        pe.mem_mut().stage(0, &data).unwrap();
        pe.execute(&Instr::VLoadUnaligned {
            vd: v(0),
            first_row: 0,
            offset: 5,
        })
        .unwrap();
        let got = pe.vreg(v(0));
        assert_eq!(got[0], 5);
        assert_eq!(got[127], 132);
        assert_eq!(pe.stats().cycles, 2);
    }

    #[test]
    fn unaligned_load_rejects_bad_offset() {
        let mut pe = ProcessingElement::new();
        let err = pe
            .execute(&Instr::VLoadUnaligned {
                vd: v(0),
                first_row: 0,
                offset: 128,
            })
            .unwrap_err();
        assert!(matches!(err, PeError::BadUnalignedLoad { .. }));
    }

    #[test]
    fn shuffle_through_stored_config() {
        let mut pe = ProcessingElement::new();
        let slot = pe.store_shuffle(ShuffleConfig::rotate(SIMD_WIDTH, 1));
        let data: Vec<i16> = (0..128).collect();
        pe.set_vreg(v(0), &data);
        pe.execute(&Instr::Shuffle {
            vd: v(1),
            va: v(0),
            slot,
        })
        .unwrap();
        assert_eq!(pe.vreg(v(1))[0], 1);
        assert_eq!(pe.vreg(v(1))[127], 0);
        assert_eq!(pe.stats().shuffles, 1);
        let err = pe
            .execute(&Instr::Shuffle {
                vd: v(1),
                va: v(0),
                slot: 9,
            })
            .unwrap_err();
        assert!(err.to_string().contains("slot 9"));
    }

    #[test]
    fn vsel_predication() {
        let mut pe = ProcessingElement::new();
        let mask: Vec<i16> = (0..128).map(|i| i16::from(i % 3 == 0)).collect();
        pe.set_vreg(v(0), &mask);
        pe.set_vreg(v(1), &[7; 128]);
        pe.set_vreg(v(2), &[-9; 128]);
        pe.execute(&Instr::VSel {
            vd: v(3),
            mask: v(0),
            va: v(1),
            vb: v(2),
        })
        .unwrap();
        for (l, &got) in pe.vreg(v(3)).iter().enumerate() {
            assert_eq!(got, if l % 3 == 0 { 7 } else { -9 });
        }
        // VSel runs on the FUs and is fault-exposed.
        assert_eq!(pe.stats().fu_ops, 1);
    }

    #[test]
    fn reduce_sums_via_adder_tree() {
        let mut pe = ProcessingElement::new();
        pe.set_vreg(v(0), &[3; 128]);
        pe.execute(&Instr::Reduce {
            sd: s(1),
            va: v(0),
            shift: 0,
        })
        .unwrap();
        assert_eq!(pe.sreg(1), 384);
        // Saturation path.
        pe.set_vreg(v(0), &[i16::MAX; 128]);
        pe.execute(&Instr::Reduce {
            sd: s(2),
            va: v(0),
            shift: 0,
        })
        .unwrap();
        assert_eq!(pe.sreg(2), i16::MAX);
    }

    #[test]
    fn scalar_pipeline() {
        let mut pe = ProcessingElement::new();
        pe.run(&[
            Instr::SLoadImm { sd: s(0), value: 7 },
            Instr::SLoadImm { sd: s(1), value: 6 },
            Instr::SMul {
                sd: s(2),
                sa: s(0),
                sb: s(1),
            },
            Instr::SStore { ss: s(2), addr: 99 },
            Instr::SLoad { sd: s(3), addr: 99 },
            Instr::SAdd {
                sd: s(4),
                sa: s(3),
                sb: s(0),
            },
        ])
        .unwrap();
        assert_eq!(pe.sreg(4), 49);
        assert!(pe
            .execute(&Instr::SLoad {
                sd: s(0),
                addr: SCALAR_WORDS
            })
            .is_err());
    }

    #[test]
    fn broadcast_paths() {
        let mut pe = ProcessingElement::new();
        pe.execute(&Instr::BroadcastImm {
            vd: v(0),
            value: -9,
        })
        .unwrap();
        assert_eq!(pe.vreg(v(0)), &[-9; 128]);
        pe.execute(&Instr::SLoadImm {
            sd: s(0),
            value: 21,
        })
        .unwrap();
        pe.execute(&Instr::BroadcastS { vd: v(1), ss: s(0) })
            .unwrap();
        assert_eq!(pe.vreg(v(1)), &[21; 128]);
    }

    #[test]
    fn corrupt_policy_leaves_stale_lanes() {
        let mut pe = ProcessingElement::new();
        pe.set_error_policy(ErrorPolicy::Corrupt);
        // Physical lane 3 always errs.
        let mut probs = vec![0.0; SIMD_WIDTH];
        probs[3] = 1.0;
        pe.set_fault_model(
            FaultModel::from_probabilities(probs),
            CounterRng::new(1, "corrupt_policy_leaves_stale_lanes").at(0),
        );
        pe.set_vreg(v(0), &[1; 128]);
        pe.set_vreg(v(1), &[1; 128]);
        pe.execute(&Instr::VBin {
            op: VBinOp::Add,
            vd: v(2),
            va: v(0),
            vb: v(1),
        })
        .unwrap();
        let out = pe.vreg(v(2));
        assert_eq!(out[3], 0, "faulty lane keeps stale value");
        assert!(out.iter().enumerate().all(|(l, &x)| l == 3 || x == 2));
        assert_eq!(pe.stats().corrupted_lanes, 1);
        assert_eq!(pe.stats().replays, 0);
    }

    #[test]
    fn stall_retry_recovers_at_a_cost() {
        let mut pe = ProcessingElement::new();
        pe.set_error_policy(ErrorPolicy::StallRetry);
        let mut probs = vec![0.0; SIMD_WIDTH];
        probs[7] = 1.0;
        pe.set_fault_model(
            FaultModel::from_probabilities(probs),
            CounterRng::new(2, "stall_retry_recovers_at_a_cost").at(0),
        );
        pe.set_vreg(v(0), &[1; 128]);
        pe.set_vreg(v(1), &[1; 128]);
        pe.execute(&Instr::VBin {
            op: VBinOp::Add,
            vd: v(2),
            va: v(0),
            vb: v(1),
        })
        .unwrap();
        assert_eq!(pe.vreg(v(2)), &[2; 128], "retry produces correct data");
        assert_eq!(pe.stats().replays, 1);
        assert!(pe.stats().cycles >= 1 + 1 + REPLAY_FLUSH_CYCLES);
        assert_eq!(pe.stats().fu_ops, 2, "replay re-spends FU energy");
    }

    #[test]
    fn spare_remap_bypasses_faulty_lane() {
        let mut pe = ProcessingElement::new();
        pe.set_error_policy(ErrorPolicy::SpareRemap);
        // 130 physical lanes (2 spares); lanes 5 and 60 are hard-faulty.
        let mut probs = vec![0.0; SIMD_WIDTH + 2];
        probs[5] = 1.0;
        probs[60] = 1.0;
        pe.set_fault_model(
            FaultModel::from_probabilities(probs),
            CounterRng::new(3, "spare_remap_bypasses_faulty_lane").at(0),
        );
        let spares_used = pe.repair(0.5).unwrap();
        assert_eq!(spares_used, 2);
        pe.set_vreg(v(0), &[1; 128]);
        pe.set_vreg(v(1), &[1; 128]);
        pe.execute(&Instr::VBin {
            op: VBinOp::Add,
            vd: v(2),
            va: v(0),
            vb: v(1),
        })
        .unwrap();
        assert_eq!(pe.vreg(v(2)), &[2; 128]);
        assert_eq!(pe.stats().lane_errors, 0);
        assert_eq!(pe.stats().replays, 0);
    }

    #[test]
    fn repair_fails_without_enough_spares() {
        let mut pe = ProcessingElement::new();
        let mut probs = vec![0.0; SIMD_WIDTH + 1];
        probs[0] = 1.0;
        probs[1] = 1.0;
        pe.set_fault_model(
            FaultModel::from_probabilities(probs),
            CounterRng::new(4, "repair_fails_without_enough_spares").at(0),
        );
        let err = pe.repair(0.5).unwrap_err();
        assert!(matches!(err, PeError::Unrepairable(_)));
    }
}

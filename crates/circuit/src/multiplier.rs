//! Array-multiplier netlist generator.
//!
//! Diet SODA's functional units pair an ALU with a 16-bit multiplier, and
//! the FU multiplier path is the deepest logic in the lane — exactly the
//! kind of critical path the 50-FO4 chain emulates. [`array_multiplier`]
//! builds the classic carry-save array: an AND-gate partial-product plane
//! followed by rows of full adders, with a ripple final stage. Its STA
//! distribution under variation complements the adder studies.

use crate::gate::GateKind;
use crate::netlist::{GateId, Netlist};

/// Add a full-adder cell (sum XOR-XOR, carry as AOI21-class majority) and
/// return `(sum, carry)`.
fn full_adder(n: &mut Netlist, a: GateId, b: GateId, cin: GateId) -> (GateId, GateId) {
    let p = n.add_gate(GateKind::Xor2, &[a, b]);
    let sum = n.add_gate(GateKind::Xor2, &[p, cin]);
    let g = n.add_gate(GateKind::And2, &[a, b]);
    let carry = n.add_gate(GateKind::Aoi21, &[g, p, cin]);
    (sum, carry)
}

/// Build a `width × width` carry-save array multiplier netlist.
///
/// Structure: `width²` AND partial products, `width − 1` carry-save rows
/// of full adders, and a final ripple row; the product is `2·width` bits.
/// Critical path depth grows linearly in `width` (≈`2·width` cells),
/// making the 16-bit instance comparable in FO4 depth to the paper's
/// 50-stage critical-path proxy.
///
/// # Panics
///
/// Panics if `width < 2`.
///
/// # Example
///
/// ```
/// let m = ntv_circuit::multiplier::array_multiplier(8);
/// assert_eq!(m.outputs().len(), 16);
/// ```
#[must_use]
pub fn array_multiplier(width: usize) -> Netlist {
    assert!(width >= 2, "multiplier width must be at least 2 bits");
    let mut n = Netlist::new(format!("array-multiplier-{width}"));

    let a: Vec<_> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
    // A constant-zero source for the first carry-save row.
    let zero = n.add_input("zero");

    // Partial products pp[i][j] = a[j] & b[i].
    let pp: Vec<Vec<GateId>> = (0..width)
        .map(|i| {
            (0..width)
                .map(|j| n.add_gate(GateKind::And2, &[a[j], b[i]]))
                .collect()
        })
        .collect();

    // Carry-save accumulation of the rows.
    // Running sum/carry vectors, aligned to the current row's weight.
    let mut sums: Vec<GateId> = pp[0].clone();
    let mut carries: Vec<GateId> = vec![zero; width];
    let mut product: Vec<GateId> = Vec::with_capacity(2 * width);

    for pp_row in pp.iter().skip(1) {
        product.push(sums[0]); // the lowest live bit is final
        let mut new_sums = Vec::with_capacity(width);
        let mut new_carries = Vec::with_capacity(width);
        for col in 0..width {
            let s_in = if col + 1 < width { sums[col + 1] } else { zero };
            let (s, c) = full_adder(&mut n, pp_row[col], s_in, carries[col]);
            new_sums.push(s);
            new_carries.push(c);
        }
        sums = new_sums;
        carries = new_carries;
    }

    // Final ripple stage merges the remaining sum and carry vectors.
    product.push(sums[0]);
    let mut carry = carries[0];
    for col in 1..width {
        let (s, c) = full_adder(&mut n, sums[col], carries[col], carry);
        product.push(s);
        carry = c;
    }
    product.push(carry);

    for (i, &bit) in product.iter().enumerate() {
        n.mark_output(bit, format!("p{i}"));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::kogge_stone;
    use crate::sta;
    use ntv_device::{TechModel, TechNode};
    use ntv_mc::{CounterRng, Summary};
    use ntv_units::Volts;

    #[test]
    fn product_width_and_io() {
        let m = array_multiplier(16);
        assert_eq!(m.outputs().len(), 32);
        assert_eq!(m.inputs().len(), 33); // a, b, zero
                                          // n^2 partial products plus adder cells.
        assert!(m.gate_count() > 16 * 16);
    }

    #[test]
    fn depth_grows_linearly() {
        let d4 = array_multiplier(4).logic_depth();
        let d8 = array_multiplier(8).logic_depth();
        let d16 = array_multiplier(16).logic_depth();
        assert!(d8 > d4 + 3);
        assert!(d16 > d8 + 7);
    }

    #[test]
    fn multiplier_is_the_lane_critical_path() {
        // At equal operand width, the multiplier's critical path dwarfs the
        // prefix adder's — justifying the paper's premise that FU paths set
        // the lane timing.
        let tech = TechModel::new(TechNode::Gp90);
        let mul = array_multiplier(16);
        let add = kogge_stone(16);
        let dm =
            sta::analyze(&mul, &sta::nominal_delays(&mul, &tech, Volts(1.0))).critical_delay_ps;
        let da =
            sta::analyze(&add, &sta::nominal_delays(&add, &tech, Volts(1.0))).critical_delay_ps;
        assert!(dm > 2.0 * da, "mul {dm} vs add {da}");
        // And its nominal depth is in the ballpark of the 50-FO4 proxy.
        let fo4 = tech.fo4_delay_ps(Volts(1.0));
        let depth_fo4 = dm / fo4;
        assert!((25.0..120.0).contains(&depth_fo4), "depth {depth_fo4} FO4");
    }

    #[test]
    fn multiplier_variation_sits_in_the_chain_band() {
        let tech = TechModel::new(TechNode::Gp90);
        let m = array_multiplier(16);
        let mut rng = CounterRng::new(3, "multiplier_variation_sits_in_the_chain_band").at(0);
        let s: Summary = sta::mc_critical_delays(&m, &tech, Volts(0.5), 100, &mut rng)
            .into_iter()
            .collect();
        let v = s.three_sigma_over_mu();
        // Long chains with reconvergence: the same ~5-15% band as the
        // chain-of-50 and the prefix adders at 0.5 V.
        assert!((0.03..0.18).contains(&v), "3sigma/mu {v}");
    }
}

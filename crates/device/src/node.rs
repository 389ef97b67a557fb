//! Technology-node identifiers.

use std::fmt;
use std::str::FromStr;

use ntv_units::Volts;

/// The four technology nodes studied in the paper (§3, Fig 2).
///
/// 90 nm and 45 nm use commercial general-purpose (GP) model calibrations;
/// 32 nm and 22 nm use Predictive Technology Model (PTM) high-performance
/// (HP) calibrations, simulated only up to their nominal voltages (0.9 V and
/// 0.8 V respectively — paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TechNode {
    /// 90 nm general-purpose (commercial model), nominal 1.0 V.
    Gp90,
    /// 45 nm general-purpose (commercial model), nominal 1.0 V.
    Gp45,
    /// 32 nm PTM high-performance, nominal 0.9 V.
    PtmHp32,
    /// 22 nm PTM high-performance, nominal 0.8 V.
    PtmHp22,
}

impl TechNode {
    /// All four nodes in the order the paper presents them.
    pub const ALL: [TechNode; 4] = [
        TechNode::Gp90,
        TechNode::Gp45,
        TechNode::PtmHp32,
        TechNode::PtmHp22,
    ];

    /// Feature size in nanometres.
    #[must_use]
    pub fn feature_nm(self) -> u32 {
        match self {
            TechNode::Gp90 => 90,
            TechNode::Gp45 => 45,
            TechNode::PtmHp32 => 32,
            TechNode::PtmHp22 => 22,
        }
    }

    /// Nominal ("full") supply voltage for the node.
    ///
    /// The paper's performance-drop baseline (Fig 4) and duplication target
    /// (Table 1) are both defined at this voltage.
    #[must_use]
    pub fn nominal_vdd(self) -> Volts {
        match self {
            TechNode::Gp90 | TechNode::Gp45 => Volts(1.0),
            TechNode::PtmHp32 => Volts(0.9),
            TechNode::PtmHp22 => Volts(0.8),
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TechNode::Gp90 => "90nm GP",
            TechNode::Gp45 => "45nm GP",
            TechNode::PtmHp32 => "32nm PTM HP",
            TechNode::PtmHp22 => "22nm PTM HP",
        };
        f.write_str(name)
    }
}

/// Error returned when parsing a [`TechNode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechNodeError {
    input: String,
}

impl fmt::Display for ParseTechNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown technology node `{}` (expected one of: 90nm, 45nm, 32nm, 22nm)",
            self.input
        )
    }
}

impl std::error::Error for ParseTechNodeError {}

impl FromStr for TechNode {
    type Err = ParseTechNodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "90" | "90nm" | "gp90" | "90nm gp" => Ok(TechNode::Gp90),
            "45" | "45nm" | "gp45" | "45nm gp" => Ok(TechNode::Gp45),
            "32" | "32nm" | "ptmhp32" | "32nm ptm hp" => Ok(TechNode::PtmHp32),
            "22" | "22nm" | "ptmhp22" | "22nm ptm hp" => Ok(TechNode::PtmHp22),
            _ => Err(ParseTechNodeError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_listed_in_paper_order() {
        assert_eq!(TechNode::ALL.len(), 4);
        assert_eq!(TechNode::ALL[0].feature_nm(), 90);
        assert_eq!(TechNode::ALL[3].feature_nm(), 22);
    }

    #[test]
    fn nominal_voltages_match_paper() {
        assert_eq!(TechNode::Gp90.nominal_vdd(), Volts(1.0));
        assert_eq!(TechNode::Gp45.nominal_vdd(), Volts(1.0));
        assert_eq!(TechNode::PtmHp32.nominal_vdd(), Volts(0.9));
        assert_eq!(TechNode::PtmHp22.nominal_vdd(), Volts(0.8));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for node in TechNode::ALL {
            let shown = node.to_string();
            let parsed: TechNode = shown.parse().expect("display form parses");
            assert_eq!(parsed, node);
        }
    }

    #[test]
    fn parse_shorthand() {
        assert_eq!("90nm".parse::<TechNode>().unwrap(), TechNode::Gp90);
        assert_eq!("22".parse::<TechNode>().unwrap(), TechNode::PtmHp22);
        assert!("65nm".parse::<TechNode>().is_err());
    }
}

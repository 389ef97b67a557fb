//! Exact chip-delay quantiles — the analytic fast path for voltage sweeps.
//!
//! Every headline number in the paper (Tables 1–4, Figs 7–11) is a q99
//! chip-delay statistic swept over voltage × node × mitigation knob, and
//! the margining/DSE solvers bisect on that statistic at every probe
//! voltage. Monte-Carlo estimation inside a bisection loop multiplies
//! `samples × probes` chip draws per sweep point; but the chip delay is a
//! *maximum of exchangeable path delays*, so its CDF is available in
//! closed form and the quantile the bisection needs can be evaluated
//! exactly, noise-free, in microseconds:
//!
//! * **PaperNormal** — all `N = lanes × paths` path delays are i.i.d.
//!   `N(μ, σ²)`, so `F_chip(x) = Φ((x−μ)/σ)^N` and the q-quantile is the
//!   closed form `μ + σ·Φ⁻¹(q^{1/N})` (log-space root via
//!   [`order::max_cdf_target`] — the same target the sampler draws through,
//!   so analytic and Monte-Carlo agree in distribution by construction).
//! * **SkewedIid** — paths are i.i.d. with the Gauss–Hermite mixture CDF
//!   tabulated by [`PathDistribution`]; the quantile is one inverse-survival
//!   lookup at `1 − q^{1/N}` ([`order::max_survival_target`]).
//! * **Hierarchical** — paths are conditionally independent given the
//!   chip-global draw `g` and each lane's regional draw. Integrating the
//!   conditional normal-max CDF over both with Gauss–Hermite quadrature
//!   gives
//!   `F_chip(x) = E_g[ (E_f[ Φ((x − μ_g f)/(σ_g f))^paths ])^lanes ]`,
//!   inverted by deterministic bisection.
//!
//! The same machinery yields the distribution of the chip delay *with α
//! spare lanes* (the `lanes`-th smallest of `lanes + α` i.i.d. lane
//! delays): a binomial order-statistic tail over the lane CDF, evaluated
//! in log space so deep-tail lane probabilities do not underflow.
//!
//! One private law holds these CDFs: the quantiles invert it, and
//! [`ChipQuantileSolver::timing_yield`] reads it at a clock period, which
//! is the timing yield (on a one-lane engine, the lane CDF).
//!
//! The studies therefore default to [`Evaluation::Analytic`]. Monte Carlo
//! stays the right tool where the *empirical sample paths* are the product
//! — histograms (Figs 3, 5, 6), and any statistic of a finite-sample
//! estimator — and as the oracle the law is checked against; a study that
//! wants it asks for [`Evaluation::MonteCarlo`].

use std::f64::consts::SQRT_2;
use std::sync::Arc;

use ntv_device::ChipSample;
use ntv_mc::{normal, order, GaussHermite};
use ntv_units::{Seconds, Volts};

use crate::engine::{DatapathEngine, PathDistribution, VariationMode};

/// How a study evaluates the chip-delay quantile its search loop probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Evaluation {
    /// Counter-addressed Monte-Carlo sampling: the estimator whose noise
    /// and sample paths a caller wants to see, and the oracle the exact
    /// law is checked against.
    MonteCarlo,
    /// Exact quantiles from [`ChipQuantileSolver`] — the default:
    /// noise-free and orders of magnitude faster inside bisection loops.
    #[default]
    Analytic,
}

/// Exact quantile evaluator for the chip-delay order statistics of one
/// [`DatapathEngine`]. See the module docs for the per-mode closed forms.
#[derive(Debug, Clone, Copy)]
pub struct ChipQuantileSolver<'e, 't> {
    engine: &'e DatapathEngine<'t>,
}

/// Relative bisection tolerance for CDF inversion: ~1e-12 leaves the
/// result within a few ulps of the true quantile while keeping the
/// iteration count bounded and deterministic.
const INVERT_REL_TOL: f64 = 1e-12;

/// Gauss–Hermite order for the regional (per-lane) log-normal delay
/// factor; matches the 16-point rule `PathModel` uses for conditional
/// moments.
const GH_REGION: usize = 16;

impl<'e, 't> ChipQuantileSolver<'e, 't> {
    /// A solver borrowing `engine`'s operating-point cache and shape.
    #[must_use]
    pub fn new(engine: &'e DatapathEngine<'t>) -> Self {
        Self { engine }
    }

    /// Exact p-quantile of the chip delay (slowest lane) in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the open interval (0, 1).
    #[must_use]
    pub fn chip_quantile_ps(&self, vdd: Volts, p: f64) -> f64 {
        self.spares_quantile_ps(vdd, 0, p)
    }

    /// Exact p-quantile of the chip delay in FO4 units (the paper's
    /// "fo4chipd" axis — path-distribution mean over the stage count).
    #[must_use]
    pub fn chip_quantile_fo4(&self, vdd: Volts, p: f64) -> f64 {
        self.chip_quantile_ps(vdd, p) / self.engine.fo4_unit_ps(vdd)
    }

    /// Exact p-quantile of the chip delay in nanoseconds.
    #[must_use]
    pub fn chip_quantile_ns(&self, vdd: Volts, p: f64) -> f64 {
        self.chip_quantile_ps(vdd, p) / 1_000.0
    }

    /// The 99 % chip-delay point in FO4 units (the paper's headline
    /// statistic).
    #[must_use]
    pub fn q99_fo4(&self, vdd: Volts) -> f64 {
        self.chip_quantile_fo4(vdd, 0.99)
    }

    /// The 99 % chip-delay point in nanoseconds.
    #[must_use]
    pub fn q99_ns(&self, vdd: Volts) -> f64 {
        self.chip_quantile_ns(vdd, 0.99)
    }

    /// Exact p-quantile (ps) of the chip delay *with spares*: the
    /// `lanes`-th smallest of `lanes + spares` lane delays (the α slowest
    /// lanes are disabled at test time, §4.1).
    ///
    /// Without spares the i.i.d. modes have closed forms; every other case
    /// bisects the chip-delay law that [`Self::timing_yield`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the open interval (0, 1).
    #[must_use]
    pub fn spares_quantile_ps(&self, vdd: Volts, spares: u32, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1), got {p}");
        let n = self.engine.config().critical_path_count();
        match (self.engine.mode(), spares) {
            (VariationMode::PaperNormal, 0) => {
                let dist = self.engine.path_distribution(vdd);
                // Closed form: max of N i.i.d. normals.
                dist.mean_ps() + dist.std_ps() * normal::quantile(order::max_cdf_target(p, n))
            }
            (VariationMode::SkewedIid, 0) => {
                // One inverse-survival lookup — the same interpolant the
                // sampler draws through, evaluated at the fixed target.
                let dist = self.engine.path_distribution(vdd);
                dist.quantile_by_survival(order::max_survival_target(p, n))
            }
            _ => {
                let law = self.law(vdd, spares);
                let (lo, hi) = law.bracket();
                invert_monotone_cdf(p, lo, hi, |x| law.cdf(x))
            }
        }
    }

    /// Timing yield: the probability that the chip delay with `spares`
    /// spare lanes is at most `t_clk`, i.e. the fraction of fabricated
    /// chips that meet that clock period. On a one-lane engine it is the
    /// lane CDF, so `1 − timing_yield` is a lane's timing-failure
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if `t_clk` is NaN.
    #[must_use]
    pub fn timing_yield(&self, vdd: Volts, spares: u32, t_clk: Seconds) -> f64 {
        assert!(!t_clk.get().is_nan(), "timing yield needs a clock period");
        self.law(vdd, spares).cdf(t_clk.get() * 1e12)
    }

    /// The chip-delay law at `vdd` with `spares` spares: each mode's lane
    /// CDF `F_path(x)^paths` (conditionally, under the quadrature, for
    /// `Hierarchical`) combined over the lanes by [`LaneTail`].
    fn law(&self, vdd: Volts, spares: u32) -> ChipLaw {
        let config = self.engine.config();
        let lane = match self.engine.mode() {
            VariationMode::PaperNormal => LaneLaw::PaperNormal(self.engine.path_distribution(vdd)),
            VariationMode::SkewedIid => LaneLaw::SkewedIid(self.engine.path_distribution(vdd)),
            VariationMode::Hierarchical => LaneLaw::Hierarchical(self.hier_mixture(vdd)),
        };
        ChipLaw {
            lane,
            paths: config.paths_per_lane as f64,
            tail: LaneTail::new(config.lanes, spares),
        }
    }

    /// Exact p-quantile of the chip delay with spares, in FO4 units.
    #[must_use]
    pub fn spares_quantile_fo4(&self, vdd: Volts, spares: u32, p: f64) -> f64 {
        self.spares_quantile_ps(vdd, spares, p) / self.engine.fo4_unit_ps(vdd)
    }

    /// The hierarchical conditional mixture at `vdd`: chip-global
    /// components `(weight, μ_g ps, σ_g ps)` over the Gauss–Hermite grid of
    /// `(ΔVth_g, ln k_g)` draws, and regional factors `(weight, f)` over
    /// the log-normal lane delay factor `exp(S·ΔVth_r − ln k_r)`.
    ///
    /// Variance shares mirror `sample_chip_global` / `sample_region`:
    /// chip-global σ scales by `√(1 − lane_fraction)`, regional by
    /// `√lane_fraction`.
    fn hier_mixture(&self, vdd: Volts) -> HierMixture {
        let params = self.engine.tech().params();
        let global_share = (1.0 - params.lane_fraction).sqrt();
        let region_share = params.lane_fraction.sqrt();

        let gh_v = GaussHermite::shared(PathDistribution::GH_VTH);
        let gh_k = GaussHermite::shared(PathDistribution::GH_K);
        const INV_PI: f64 = 1.0 / std::f64::consts::PI;
        let sigma_vg = params.sigma_vth_systematic * global_share;
        let sigma_kg = params.sigma_k_systematic * global_share;
        let comps: Vec<(f64, f64, f64)> = gh_v
            .nodes()
            .iter()
            .zip(gh_v.weights())
            .flat_map(|(&xv, &wv)| {
                let dv = sigma_vg * (SQRT_2 * xv);
                let m = self.engine.path_moments(
                    vdd,
                    &ChipSample {
                        dvth: dv,
                        ln_k: 0.0,
                    },
                );
                gh_k.nodes()
                    .iter()
                    .zip(gh_k.weights())
                    .map(move |(&xk, &wk)| {
                        let k = (-(SQRT_2 * sigma_kg * xk)).exp();
                        (wv * wk * INV_PI, m.mean_ps * k, m.std_ps * k)
                    })
            })
            .collect();

        // ln f = S(vdd)·ΔVth_r − ln k_r is a sum of independent centred
        // normals, hence normal with the combined variance.
        let s = self.engine.tech().delay_vth_sensitivity(vdd);
        let sv = s * (params.sigma_vth_systematic.get() * region_share);
        let sk = params.sigma_k_systematic * region_share;
        let s_f = (sv * sv + sk * sk).sqrt();
        const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;
        let gh_f = GaussHermite::shared(GH_REGION);
        let factors: Vec<(f64, f64)> = gh_f
            .nodes()
            .iter()
            .zip(gh_f.weights())
            .map(|(&xf, &wf)| (wf * INV_SQRT_PI, (SQRT_2 * s_f * xf).exp()))
            .collect();

        HierMixture { comps, factors }
    }
}

/// The chip-delay CDF (ps) of one engine at one `(vdd, spares)`: the law
/// the quantiles invert and [`ChipQuantileSolver::timing_yield`] reads.
struct ChipLaw {
    lane: LaneLaw,
    paths: f64,
    tail: LaneTail,
}

/// Where each mode's path CDF comes from.
enum LaneLaw {
    /// i.i.d. normal paths with the operating point's moments.
    PaperNormal(Arc<PathDistribution>),
    /// i.i.d. paths with the Gauss–Hermite mixture's survival grid.
    SkewedIid(Arc<PathDistribution>),
    /// Paths conditionally normal given the chip-global and regional draws.
    Hierarchical(HierMixture),
}

impl ChipLaw {
    /// `P(chip delay ≤ x)`, `x` in ps.
    fn cdf(&self, x: f64) -> f64 {
        let iid = |ln_path_cdf| {
            let (pl, sl) = lane_split(ln_path_cdf, self.paths);
            self.tail.eval(pl, sl)
        };
        match &self.lane {
            LaneLaw::PaperNormal(dist) => iid(ln_normal_cdf((x - dist.mean_ps()) / dist.std_ps())),
            LaneLaw::SkewedIid(dist) => iid((-dist.survival(x)).ln_1p()),
            LaneLaw::Hierarchical(mix) => mix.cdf(x, self.paths, &self.tail),
        }
    }

    /// Initial bisection bracket: the survival grid's ±8σ/+12σ extent, or
    /// the mixture's.
    fn bracket(&self) -> (f64, f64) {
        match &self.lane {
            LaneLaw::PaperNormal(dist) | LaneLaw::SkewedIid(dist) => (
                dist.mean_ps() - 8.0 * dist.std_ps(),
                dist.mean_ps() + 12.0 * dist.std_ps(),
            ),
            LaneLaw::Hierarchical(mix) => mix.bracket(),
        }
    }
}

/// How the lane CDF `p` (survival `s`) becomes the chip CDF.
enum LaneTail {
    /// No spares: every one of the lanes must be ready, `p^lanes`.
    Slowest(f64),
    /// Spares: at least `lanes` of the physical lanes must be ready.
    Binomial(BinomialTail),
}

impl LaneTail {
    fn new(lanes: usize, spares: u32) -> Self {
        if spares == 0 {
            Self::Slowest(lanes as f64)
        } else {
            Self::Binomial(BinomialTail::new(lanes + spares as usize, lanes))
        }
    }

    fn eval(&self, p: f64, s: f64) -> f64 {
        match self {
            Self::Slowest(lanes) => p.powf(*lanes),
            Self::Binomial(tail) => tail.eval(p, s),
        }
    }
}

/// Conditional mixture for the hierarchical chip-delay CDF: chip-global
/// path-moment components × regional log-normal delay factors.
struct HierMixture {
    /// `(weight, μ ps, σ ps)` per chip-global Gauss–Hermite node pair.
    comps: Vec<(f64, f64, f64)>,
    /// `(weight, f)` per regional Gauss–Hermite node.
    factors: Vec<(f64, f64)>,
}

impl HierMixture {
    /// Initial bisection bracket covering the mixture's support out to the
    /// same ±8σ/+12σ extent the survival grid uses, stretched by the
    /// regional factor range.
    fn bracket(&self) -> (f64, f64) {
        let f_min = self
            .factors
            .iter()
            .map(|&(_, f)| f)
            .fold(f64::INFINITY, f64::min);
        let f_max = self
            .factors
            .iter()
            .map(|&(_, f)| f)
            .fold(f64::NEG_INFINITY, f64::max);
        let lo = self
            .comps
            .iter()
            .map(|&(_, mu, s)| (mu - 8.0 * s) * f_min)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .comps
            .iter()
            .map(|&(_, mu, s)| (mu + 12.0 * s) * f_max)
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }

    /// Lane-delay CDF and survival given chip-global component `(μ, σ)`:
    /// `E_f[Φ((x − μf)/(σf))^paths]`, with the survival side accumulated
    /// through `expm1` so it keeps relative precision when the CDF is
    /// within an ulp of 1.
    ///
    /// Batch form: the 16 regional `erfc` arguments are evaluated into a
    /// fixed-stride array and pushed through [`normal::erfc_slice`] (two
    /// full 8-lane chunks); the weighted fold then consumes the
    /// precomputed values in the same node order with the same per-term
    /// operations, so the result is bit-identical to the scalar per-node
    /// formulation (pinned by test).
    fn lane_cdf_sf(&self, x: f64, mu: f64, s: f64, paths: f64) -> (f64, f64) {
        assert_eq!(
            self.factors.len(),
            GH_REGION,
            "regional quadrature order mismatch"
        );
        let mut args = [0.0; GH_REGION];
        let mut erfcs = [0.0; GH_REGION];
        for (a, &(_, f)) in args.iter_mut().zip(&self.factors) {
            *a = ((x - mu * f) / (s * f)) / SQRT_2;
        }
        normal::erfc_slice(&args, &mut erfcs);
        let (cdf, sf) =
            ntv_mc::reduce::sum2_ordered(self.factors.iter().zip(&erfcs).map(|(&(wf, _), &e)| {
                let ln_phi = (-(0.5 * e)).ln_1p();
                let (pl, sl) = lane_split(ln_phi, paths);
                (wf * pl, wf * sl)
            }));
        (cdf.clamp(0.0, 1.0), sf.clamp(0.0, 1.0))
    }

    /// Scalar reference of [`Self::lane_cdf_sf`] as it stood before the
    /// batch `erfc` pass. Kept only to pin bit-exactness.
    #[cfg(test)]
    fn lane_cdf_sf_reference(&self, x: f64, mu: f64, s: f64, paths: f64) -> (f64, f64) {
        let (cdf, sf) = ntv_mc::reduce::sum2_ordered(self.factors.iter().map(|&(wf, f)| {
            let ln_phi = ln_normal_cdf((x - mu * f) / (s * f));
            let (pl, sl) = lane_split(ln_phi, paths);
            (wf * pl, wf * sl)
        }));
        (cdf.clamp(0.0, 1.0), sf.clamp(0.0, 1.0))
    }

    /// Chip-delay CDF: `E_g[tail of the conditional lane CDF]` (lanes are
    /// conditionally i.i.d. given the chip-global draw).
    fn cdf(&self, x: f64, paths: f64, tail: &LaneTail) -> f64 {
        let total = ntv_mc::reduce::sum_ordered(self.comps.iter().map(|&(w, mu, s)| {
            let (cdf, sf) = self.lane_cdf_sf(x, mu, s, paths);
            w * tail.eval(cdf, sf)
        }));
        total.clamp(0.0, 1.0)
    }
}

/// `ln Φ(z)` computed through the survival side so it keeps full relative
/// precision for large positive `z`, where `Φ(z).ln()` would round to −0.
fn ln_normal_cdf(z: f64) -> f64 {
    // Φ(z) = 1 − Q(z) with Q(z) = erfc(z/√2)/2 ∈ [0, 1].
    (-(0.5 * normal::erfc(z / SQRT_2))).ln_1p()
}

/// Lane-delay CDF and survival from the log path CDF: `p = F_path^paths`
/// and its complement, each computed at its own stable end
/// (`exp` / `−expm1`).
fn lane_split(ln_f_path: f64, paths: f64) -> (f64, f64) {
    let ln_p = paths * ln_f_path;
    (ln_p.exp(), -ln_p.exp_m1())
}

/// The binomial order-statistic tail `P(at least k of m ≤ x)` with its
/// log-coefficient table `ln C(m, j)`, `j = k..=m`, precomputed once per
/// solve. The bisection evaluates the tail at about 40–45 probe points
/// (it stops at [`INVERT_REL_TOL`] relative width; 200 halvings is only
/// its loop cap), × 288 mixture components in hierarchical mode;
/// materializing the coefficient recurrence hoists an O(m) log-space
/// recurrence out of every probe while keeping each [`eval`](Self::eval)
/// bit-identical to the retired recompute-per-call formulation (pinned by
/// test).
struct BinomialTail {
    m: usize,
    k: usize,
    /// `ln_c[j - k] = ln C(m, j)`, built by the same ratio recurrence the
    /// scalar code ran inline: `ln C(m, k) = Σ ln((m−k+i)/i)` then
    /// `C(m, j+1) = C(m, j)·(m−j)/(j+1)`.
    ln_c: Vec<f64>,
}

impl BinomialTail {
    /// Precompute the coefficient table for rank `k` of `m`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `k` is outside `1..=m`.
    fn new(m: usize, k: usize) -> Self {
        debug_assert!(k >= 1 && k <= m, "order statistic rank out of range");
        let mut ln_c = 0.0;
        for i in 1..=k {
            // ntv:allow(reduction-order): ln C(m,k) ratio recurrence — terms are defined by the running value, not reorderable
            ln_c += ((m - k + i) as f64 / i as f64).ln();
        }
        let mut table = Vec::with_capacity(m - k + 1);
        for j in k..=m {
            table.push(ln_c);
            if j < m {
                // ntv:allow(reduction-order): binomial-coefficient ratio recurrence, order is the definition
                ln_c += ((m - j) as f64 / (j + 1) as f64).ln();
            }
        }
        Self { m, k, ln_c: table }
    }

    /// `Σ_{j=k}^{m} C(m,j) pʲ s^{m−j}` accumulated in log space, for
    /// i.i.d. events with probability `p` (survival `s = 1 − p` passed
    /// separately so each side keeps its own precision).
    fn eval(&self, p: f64, s: f64) -> f64 {
        if s <= 0.0 {
            return 1.0; // every lane is ≤ x almost surely
        }
        if p <= 0.0 {
            return 0.0;
        }
        let (ln_p, ln_s) = (p.ln(), s.ln());
        let mut total = 0.0;
        for (idx, &ln_c) in self.ln_c.iter().enumerate() {
            let j = self.k + idx;
            // ntv:allow(reduction-order): log-space tail terms span ~600 decades; the left-to-right fold is the pinned reference order
            total += (ln_c + j as f64 * ln_p + (self.m - j) as f64 * ln_s).exp();
        }
        total.min(1.0)
    }
}

/// Invert a monotone CDF by deterministic bisection: the smallest `x` (to
/// relative tolerance [`INVERT_REL_TOL`]) with `cdf(x) ≥ p`.
///
/// The initial bracket is expanded geometrically if it does not straddle
/// `p` (defensive — the analytic brackets cover all practical quantiles).
fn invert_monotone_cdf(p: f64, mut lo: f64, mut hi: f64, cdf: impl Fn(f64) -> f64) -> f64 {
    debug_assert!(lo < hi, "empty bisection bracket");
    let mut width = hi - lo;
    let mut guard = 0;
    while cdf(hi) < p && guard < 64 {
        // ntv:allow(reduction-order): geometric bracket expansion, not a reduction — each step doubles the stride
        hi += width;
        width *= 2.0;
        guard += 1;
    }
    let mut width = hi - lo;
    while cdf(lo) >= p && guard < 128 {
        lo -= width;
        width *= 2.0;
        guard += 1;
    }
    for _ in 0..200 {
        if hi - lo <= INVERT_REL_TOL * hi.abs().max(1.0) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if cdf(mid) >= p {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    fn solver_quantiles(mode: VariationMode, vdd: Volts) -> (f64, f64) {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
        let solver = ChipQuantileSolver::new(&engine);
        (
            solver.chip_quantile_ps(vdd, 0.5),
            solver.chip_quantile_ps(vdd, 0.99),
        )
    }

    #[test]
    fn quantiles_are_ordered_and_finite() {
        for mode in [
            VariationMode::PaperNormal,
            VariationMode::SkewedIid,
            VariationMode::Hierarchical,
        ] {
            for vdd in [Volts(0.5), Volts(1.0)] {
                let (q50, q99) = solver_quantiles(mode, vdd);
                assert!(q50.is_finite() && q99.is_finite(), "{mode:?} {vdd}");
                assert!(q99 > q50, "{mode:?} {vdd}: q99 {q99} <= q50 {q50}");
            }
        }
    }

    #[test]
    fn paper_normal_matches_closed_form() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let solver = ChipQuantileSolver::new(&engine);
        let dist = engine.path_distribution(Volts(0.6));
        let n = engine.config().critical_path_count();
        let q = solver.chip_quantile_ps(Volts(0.6), 0.99);
        let expect =
            dist.mean_ps() + dist.std_ps() * normal::quantile(order::max_cdf_target(0.99, n));
        assert_eq!(q.to_bits(), expect.to_bits());
    }

    #[test]
    fn chip_quantile_is_monotone_in_p_and_n() {
        let tech = TechModel::new(TechNode::PtmHp22);
        for mode in [
            VariationMode::PaperNormal,
            VariationMode::SkewedIid,
            VariationMode::Hierarchical,
        ] {
            let wide = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
            let narrow = DatapathEngine::with_mode(&tech, DatapathConfig::new(8, 100, 50), mode);
            let ws = ChipQuantileSolver::new(&wide);
            let ns = ChipQuantileSolver::new(&narrow);
            let vdd = Volts(0.55);
            assert!(ws.chip_quantile_ps(vdd, 0.99) > ws.chip_quantile_ps(vdd, 0.5));
            // More parallel paths push the max right.
            assert!(
                ws.chip_quantile_ps(vdd, 0.5) > ns.chip_quantile_ps(vdd, 0.5),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn spares_quantile_decreases_with_spares() {
        let tech = TechModel::new(TechNode::Gp45);
        for mode in [
            VariationMode::PaperNormal,
            VariationMode::SkewedIid,
            VariationMode::Hierarchical,
        ] {
            let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
            let solver = ChipQuantileSolver::new(&engine);
            let vdd = Volts(0.6);
            let mut prev = f64::INFINITY;
            for spares in [0u32, 2, 8, 26] {
                let q = solver.spares_quantile_ps(vdd, spares, 0.99);
                assert!(q.is_finite());
                assert!(q < prev, "{mode:?} spares {spares}: {q} !< {prev}");
                prev = q;
            }
        }
    }

    #[test]
    fn zero_spares_equals_chip_quantile() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let solver = ChipQuantileSolver::new(&engine);
        assert_eq!(
            solver.spares_quantile_ps(Volts(0.5), 0, 0.99).to_bits(),
            solver.chip_quantile_ps(Volts(0.5), 0.99).to_bits()
        );
    }

    #[test]
    fn one_lane_spares_tail_matches_power_form() {
        // With one physical lane the binomial tail degenerates to the lane
        // CDF itself, so the spares path must agree with the chip path.
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::with_mode(
            &tech,
            DatapathConfig::new(1, 100, 50),
            VariationMode::PaperNormal,
        );
        let solver = ChipQuantileSolver::new(&engine);
        let dist = engine.path_distribution(Volts(0.7));
        let direct = solver.chip_quantile_ps(Volts(0.7), 0.9);
        // Invert the spares CDF machinery at spares = 1, lanes = 1: the
        // median of min(2 lanes) sits strictly below the 1-lane quantile.
        let min2 = solver.spares_quantile_ps(Volts(0.7), 1, 0.9);
        assert!(min2 < direct);
        assert!(min2 > dist.mean_ps() - 8.0 * dist.std_ps());
    }

    #[test]
    fn timing_yield_spans_zero_to_one_and_rises_with_spares() {
        let tech = TechModel::new(TechNode::Gp45);
        for mode in [
            VariationMode::PaperNormal,
            VariationMode::SkewedIid,
            VariationMode::Hierarchical,
        ] {
            let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
            let solver = ChipQuantileSolver::new(&engine);
            let vdd = Volts(0.6);
            for spares in [0, 2] {
                assert_eq!(solver.timing_yield(vdd, spares, Seconds(0.0)), 0.0);
                let y = solver.timing_yield(vdd, spares, Seconds(1.0));
                assert!(y > 1.0 - 1e-12 && y <= 1.0, "{mode:?} {spares}: {y}");
            }
            let median = Seconds(solver.chip_quantile_ps(vdd, 0.5) * 1e-12);
            let bare = solver.timing_yield(vdd, 0, median);
            let spared = solver.timing_yield(vdd, 8, median);
            assert!(spared > bare + 0.1, "{mode:?}: {spared} vs {bare}");
        }
    }

    #[test]
    #[should_panic(expected = "timing yield needs a clock period")]
    fn timing_yield_rejects_nan_clock() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let _ = ChipQuantileSolver::new(&engine).timing_yield(Volts(0.6), 0, Seconds(f64::NAN));
    }

    /// The retired recompute-per-call formulation: coefficient recurrence
    /// interleaved with the tail accumulation. Kept only to pin that the
    /// precomputed [`BinomialTail`] table reproduces it bit for bit.
    fn binomial_tail_legacy(m: usize, k: usize, p: f64, s: f64) -> f64 {
        if s <= 0.0 {
            return 1.0;
        }
        if p <= 0.0 {
            return 0.0;
        }
        let (ln_p, ln_s) = (p.ln(), s.ln());
        let mut ln_c = 0.0;
        for i in 1..=k {
            ln_c += ((m - k + i) as f64 / i as f64).ln();
        }
        let mut total = 0.0;
        for j in k..=m {
            total += (ln_c + j as f64 * ln_p + (m - j) as f64 * ln_s).exp();
            if j < m {
                ln_c += ((m - j) as f64 / (j + 1) as f64).ln();
            }
        }
        total.min(1.0)
    }

    #[test]
    fn binomial_tail_matches_direct_sum() {
        // Small case checked against the literal binomial sum.
        let (m, k, p) = (6usize, 4usize, 0.3f64);
        let s = 1.0 - p;
        let mut direct = 0.0;
        for j in k..=m {
            let c: f64 = (1..=m).map(|i| i as f64).product::<f64>()
                / ((1..=j).map(|i| i as f64).product::<f64>()
                    * (1..=(m - j)).map(|i| i as f64).product::<f64>());
            direct += c * p.powi(j as i32) * s.powi((m - j) as i32);
        }
        let fast = BinomialTail::new(m, k).eval(p, s);
        assert!((fast - direct).abs() < 1e-14, "{fast} vs {direct}");
    }

    #[test]
    fn binomial_tail_edges() {
        assert_eq!(BinomialTail::new(128, 128).eval(0.0, 1.0), 0.0);
        assert_eq!(BinomialTail::new(128, 128).eval(1.0, 0.0), 1.0);
        // k = m reduces to p^m in log space.
        let t = BinomialTail::new(100, 100).eval(0.999, 0.001);
        assert!((t - 0.999f64.powi(100)).abs() < 1e-12);
    }

    #[test]
    fn binomial_tail_table_is_bit_identical_to_legacy_recurrence() {
        for &(m, k) in &[(1usize, 1usize), (66, 64), (128, 100), (300, 299)] {
            let tail = BinomialTail::new(m, k);
            for &p in &[1e-300, 1e-12, 0.3, 0.5, 0.999, 1.0 - 1e-15] {
                let s = 1.0 - p;
                assert_eq!(
                    tail.eval(p, s).to_bits(),
                    binomial_tail_legacy(m, k, p, s).to_bits(),
                    "m={m} k={k} p={p}"
                );
            }
        }
    }

    #[test]
    fn batched_lane_cdf_matches_scalar_reference_bitwise() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::with_mode(
            &tech,
            DatapathConfig::paper_default(),
            VariationMode::Hierarchical,
        );
        let solver = ChipQuantileSolver::new(&engine);
        let mix = solver.hier_mixture(Volts(0.55));
        let (lo, hi) = mix.bracket();
        for i in 0..50 {
            let x = lo + (hi - lo) * f64::from(i) / 49.0;
            for &(_, mu, s) in mix.comps.iter().step_by(37) {
                let batch = mix.lane_cdf_sf(x, mu, s, 100.0);
                let scalar = mix.lane_cdf_sf_reference(x, mu, s, 100.0);
                assert_eq!(batch.0.to_bits(), scalar.0.to_bits(), "cdf at x={x}");
                assert_eq!(batch.1.to_bits(), scalar.1.to_bits(), "sf at x={x}");
            }
        }
    }

    #[test]
    fn ln_normal_cdf_keeps_tail_precision() {
        // Deep upper tail: ln Φ(8) ≈ −Q(8); the naive ln(Φ) rounds to 0.
        let q = 0.5 * normal::erfc(8.0 / SQRT_2);
        let l = ln_normal_cdf(8.0);
        assert!(l < 0.0, "must stay strictly negative: {l}");
        assert!((l + q).abs() < 1e-3 * q);
        // Deep lower tail → −∞ rather than NaN.
        assert_eq!(ln_normal_cdf(-60.0), f64::NEG_INFINITY);
    }

    #[test]
    fn invert_monotone_cdf_recovers_normal_quantile() {
        let q = invert_monotone_cdf(0.99, -6.0, 6.0, normal::cdf);
        assert!((q - normal::quantile(0.99)).abs() < 1e-9);
        // Bracket expansion: start with a bracket that misses the target.
        let q2 = invert_monotone_cdf(0.99, -0.1, 0.1, normal::cdf);
        assert!((q2 - normal::quantile(0.99)).abs() < 1e-9);
    }
}

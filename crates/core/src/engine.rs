//! The fast Monte-Carlo chip-delay engine.
//!
//! The paper's architecture model (§3.2) treats every critical path as an
//! independent draw from the chain-of-50 cross-chip delay distribution
//! (Fig 1b): *"a chain of 50 FO4 inverters is used to emulate a critical
//! path"*, a lane is the slowest of its 100 paths and the chip the slowest
//! of its lanes. Three correlation/shape models are provided:
//!
//! * [`VariationMode::PaperNormal`] (default) — paths are i.i.d. **normal**
//!   with the chain distribution's exact mean and σ. This is the
//!   "distribution curves generated from Monte-Carlo data" methodology the
//!   paper describes, and it reproduces Table 1/2 and Fig 4 quantitatively
//!   (the paper's 22 nm performance drop of 18 % equals the normal-tail
//!   order-statistics prediction to within a point).
//! * [`VariationMode::SkewedIid`] — paths are i.i.d. draws from the *exact*
//!   unconditional mixture CDF `F(x) = E_sys[Φ((x − μ(sys))/σ(sys))]`,
//!   including the heavy right tail the exponential near-threshold delay
//!   law produces. Used by the tail-shape ablation: extreme
//!   quantiles of maxima are substantially more pessimistic than the
//!   normal fit suggests.
//! * [`VariationMode::Hierarchical`] — chip-global + per-lane regional
//!   systematic variation shared by a lane's paths, random variation per
//!   device. Correlated variation makes the slowest-lane tail less
//!   trimmable by spares; the correlation-structure ablation quantifies
//!   this.
//!
//! All engines precompute one [`PathDistribution`] per operating point
//! (Gauss–Hermite quadrature over the systematic draws of the conditional
//! CLT path moments; a 1024-point survival grid serves the skewed mode's
//! deep tail). FO4 units are defined as the paper defines them — the
//! simulated chain delay divided by the chain length (e.g. 22.05 ns / 50 =
//! 441 ps at 0.5 V in 90 nm), i.e. the distribution *mean* per stage.

use std::sync::{Arc, OnceLock};

use ntv_circuit::path_model::{PathModel, PathMoments};
use ntv_device::{ChipSample, TechModel};
use ntv_mc::{normal, order, CounterDraws, CounterRng, GaussHermite, Histogram, Quantiles};
use ntv_units::Volts;

use crate::config::DatapathConfig;
use crate::exec::Executor;
use crate::op_cache::OpPointCache;

/// How process variation is correlated across the datapath, and what tail
/// shape path delays have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VariationMode {
    /// The paper's methodology: every critical path is an independent
    /// normal draw with the chain distribution's mean and σ.
    #[default]
    PaperNormal,
    /// Every path is an independent draw from the exact (right-skewed)
    /// unconditional chain-delay distribution.
    SkewedIid,
    /// Physical decomposition: chip-global + per-lane regional systematic
    /// variation shared by a lane's paths, random variation per device.
    Hierarchical,
}

/// The survival grid of a [`PathDistribution`] plus its constant-time
/// inverse-lookup acceleration structure, built lazily on first use.
#[derive(Debug, Clone)]
struct SurvivalGrid {
    /// Delay grid (ps), ascending.
    xs: Vec<f64>,
    /// Survival function `P(delay > x)` at each grid point.
    sf: Vec<f64>,
    /// `sf[i].ln()` precomputed, so the per-draw log-survival interpolation
    /// costs one `ln` (of the query target) instead of three.
    ln_sf: Vec<f64>,
    /// Bucketed inverse index over `ln g`: `hint[b]` is the partition point
    /// of `sf[i] > g` for the upper edge of bucket `b` — a lower bound for
    /// every `g` in the bucket, making inversion O(1) per draw.
    hint: Vec<u32>,
}

impl SurvivalGrid {
    /// Buckets of the inverse index. The grid's log-survival slope is at
    /// most ~0.24 per cell (12σ tail edge over a 20σ/1024 spacing), so with
    /// 4096 buckets over the ~708-wide `ln g` range (bucket width ~0.17) a
    /// lookup scans at most a couple of cells past its hint.
    const HINT: usize = 4096;
    /// Lower edge of the `ln g` bucket range; survival targets are floored
    /// at `f64::MIN_POSITIVE` by every caller.
    const LN_G_MIN: f64 = -708.396_418_532_264_1;

    /// Bucket index for a survival target `g ∈ (0, 1)`.
    fn bucket(g: f64) -> usize {
        let t = (g.ln() - Self::LN_G_MIN) * (Self::HINT as f64 / -Self::LN_G_MIN);
        // Negative t (g below the f64::MIN_POSITIVE floor) cannot occur for
        // clamped callers; clamp anyway so a stray subnormal stays in range.
        (t.max(0.0) as usize).min(Self::HINT - 1)
    }

    /// Partition point of the predicate `sf[i] > g`: the first index whose
    /// survival is `<= g`. Equals `sf.partition_point(|&s| s > g)` exactly
    /// — the hint only seeds the scan, and the backward leg absorbs the
    /// ulp-level `ln`/`exp` round-trip in the bucket edges — but runs in
    /// O(1) because a bucket spans at most a couple of grid cells.
    fn partition(&self, g: f64) -> usize {
        let mut i = self.hint[Self::bucket(g)] as usize;
        while i > 0 && self.sf[i - 1] <= g {
            i -= 1;
        }
        while i < self.sf.len() && self.sf[i] > g {
            i += 1;
        }
        i
    }
}

/// Precomputed unconditional path-delay distribution at one operating
/// point: exact mean/σ (all modes) plus a lazily built survival grid
/// (skewed/hierarchical draws and analytic tail queries).
#[derive(Debug, Clone)]
pub struct PathDistribution {
    mean_ps: f64,
    std_ps: f64,
    /// Grid extent: `min(μ − 8σ)` / `max(μ + 12σ)` over the components.
    lo_ps: f64,
    hi_ps: f64,
    /// Gauss–Hermite mixture components `(weight, mean_ps, std_ps)` over
    /// the systematic draws; retained so the survival grid can be built on
    /// demand instead of eagerly (the paper-normal mode never needs it).
    comps: Vec<(f64, f64, f64)>,
    grid: OnceLock<SurvivalGrid>,
}

impl PathDistribution {
    const GRID: usize = 1024;
    /// Gauss–Hermite order for the systematic-ΔVth dimension (shared with
    /// the analytic quantile solver so both integrate on the same grid).
    pub(crate) const GH_VTH: usize = 24;
    /// Gauss–Hermite order for the systematic current-factor dimension.
    pub(crate) const GH_K: usize = 12;

    /// Build the distribution for a `length`-stage path at `vdd`.
    ///
    /// The mixture moments are computed eagerly (cheap: one conditional
    /// CLT evaluation per Gauss–Hermite node); the 1024-point survival
    /// grid is deferred until a grid-backed query first needs it. Callers
    /// outside the operating-point cache should obtain distributions via
    /// [`crate::op_cache::OpPointCache`] (enforced by clippy's
    /// `disallowed_methods` list in `crates/clippy.toml`) so identical
    /// builds are shared process-wide.
    #[must_use]
    pub fn build(tech: &TechModel, vdd: Volts, length: usize) -> Self {
        let params = tech.params();
        let model = PathModel::new(tech, length);
        let gh_v = GaussHermite::shared(Self::GH_VTH);
        let gh_k = GaussHermite::shared(Self::GH_K);
        const INV_PI: f64 = 1.0 / std::f64::consts::PI;

        // Conditional moments at each systematic-Vth node; the systematic
        // current factor scales both moments by exp(−lk) exactly.
        let sqrt2 = std::f64::consts::SQRT_2;
        let comps: Vec<(f64, f64, f64)> = gh_v
            .nodes()
            .iter()
            .zip(gh_v.weights())
            .flat_map(|(&xv, &wv)| {
                let dv = sqrt2 * params.sigma_vth_systematic * xv;
                let m = model.conditional_moments(
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
                        let k = (-(sqrt2 * params.sigma_k_systematic * xk)).exp();
                        (wv * wk * INV_PI, m.mean_ps * k, m.std_ps * k)
                    })
            })
            .collect();

        let mean_ps = ntv_mc::reduce::sum_ordered(comps.iter().map(|&(w, mu, _)| w * mu));
        let second =
            ntv_mc::reduce::sum_ordered(comps.iter().map(|&(w, mu, s)| w * (mu * mu + s * s)));
        let std_ps = (second - mean_ps * mean_ps).max(0.0).sqrt();
        let lo_ps = comps
            .iter()
            .map(|&(_, mu, s)| mu - 8.0 * s)
            .fold(f64::INFINITY, f64::min);
        let hi_ps = comps
            .iter()
            .map(|&(_, mu, s)| mu + 12.0 * s)
            .fold(f64::NEG_INFINITY, f64::max);

        Self {
            mean_ps,
            std_ps,
            lo_ps,
            hi_ps,
            comps,
            grid: OnceLock::new(),
        }
    }

    /// [`build`](Self::build) at each voltage of `vdds`, in order,
    /// bypassing the operating-point cache. No library code calls it: its
    /// only caller is the `perf` benchmark's `core.engine.build_grid` row.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "perf's `core.engine.build_grid` row times uncached builds on purpose"
    )]
    pub fn build_grid(tech: &TechModel, vdds: &[Volts], length: usize) -> Vec<Self> {
        vdds.iter().map(|&v| Self::build(tech, v, length)).collect()
    }

    /// The lazily built survival grid. Deterministic: the grid is a pure
    /// function of the build inputs, so first-use timing and thread
    /// interleaving cannot change any value.
    ///
    /// The mixture-CDF accumulation is component-major (loop interchange
    /// over the 288 × 1024 term matrix): each component hoists its
    /// invariants once, computes its `erfc` arguments `(x − μ)/(σ√2)` for
    /// the whole grid, and folds its terms into the survival vector with
    /// the ordered batch accumulators — every grid point still sums its
    /// components left to right, so the result is bit-identical to the
    /// point-major scalar formulation (pinned by test).
    ///
    /// The arguments ascend with the grid, so the terms `erfc` saturates
    /// form a prefix at or below [`normal::ERFC_TWO_AT_OR_BELOW`] (exactly
    /// `2.0`) and a suffix at or above [`normal::ERFC_ZERO_AT_OR_ABOVE`]
    /// (exactly `0.0`); both cuts are pinned by test over every f64 past
    /// them. Two `partition_point`s bound the unsaturated window, only the
    /// window goes through [`normal::erfc_slice`], and the row's ends take
    /// the constants `erfc` would have returned. NaN arguments stay in the
    /// window, so `erfc` still propagates them.
    fn grid(&self) -> &SurvivalGrid {
        self.grid.get_or_init(|| {
            let sqrt2 = std::f64::consts::SQRT_2;
            let (lo, hi) = (self.lo_ps, self.hi_ps);
            let xs: Vec<f64> = (0..Self::GRID)
                .map(|i| lo + (hi - lo) * i as f64 / (Self::GRID - 1) as f64)
                .collect();
            let mut sf = vec![0.0; Self::GRID];
            let mut args = vec![0.0; Self::GRID];
            let mut row = vec![0.0; Self::GRID];
            for &(w, mu, s) in &self.comps {
                if s > 0.0 {
                    let w2 = w * 0.5;
                    let d = s * sqrt2;
                    for (a, &x) in args.iter_mut().zip(&xs) {
                        *a = (x - mu) / d;
                    }
                    let start = args.partition_point(|&a| a <= normal::ERFC_TWO_AT_OR_BELOW);
                    let end = start
                        + args[start..]
                            .partition_point(|&a| a < normal::ERFC_ZERO_AT_OR_ABOVE || a.is_nan());
                    row[..start].fill(2.0);
                    normal::erfc_slice(&args[start..end], &mut row[start..end]);
                    row[end..].fill(0.0);
                    ntv_mc::reduce::axpy_ordered(&mut sf, w2, &row);
                } else {
                    for (r, &x) in row.iter_mut().zip(&xs) {
                        *r = if x < mu { w } else { 0.0 };
                    }
                    ntv_mc::reduce::add_assign_ordered(&mut sf, &row);
                }
            }
            let ln_sf: Vec<f64> = sf.iter().map(|&s| s.ln()).collect();
            // hint[b] = partition point of `sf[i] > g` at bucket b's upper
            // edge: a lower bound for every smaller g in the bucket.
            let hint: Vec<u32> = (0..SurvivalGrid::HINT)
                .map(|b| {
                    let ln_edge =
                        SurvivalGrid::LN_G_MIN * (1.0 - (b + 1) as f64 / SurvivalGrid::HINT as f64);
                    let edge = ln_edge.exp();
                    // ntv:allow(lossy-cast): partition_point ≤ GRID = 1024, far inside u32
                    sf.partition_point(|&s| s > edge) as u32
                })
                .collect();
            SurvivalGrid {
                xs,
                sf,
                ln_sf,
                hint,
            }
        })
    }

    /// Reference formulation of the survival grid as it stood before the
    /// component-major batch kernels: point-major, one scalar `erfc` per
    /// (point, component) term. Kept only to pin bit-exactness of the
    /// interchanged accumulation.
    #[cfg(test)]
    fn survival_sf_reference(&self) -> Vec<f64> {
        let sqrt2 = std::f64::consts::SQRT_2;
        let (lo, hi) = (self.lo_ps, self.hi_ps);
        (0..Self::GRID)
            .map(|i| lo + (hi - lo) * i as f64 / (Self::GRID - 1) as f64)
            .map(|x| {
                ntv_mc::reduce::sum_ordered(self.comps.iter().map(|&(w, mu, s)| {
                    if s > 0.0 {
                        w * 0.5 * normal::erfc((x - mu) / (s * sqrt2))
                    } else if x < mu {
                        w
                    } else {
                        0.0
                    }
                }))
            })
            .collect()
    }

    /// Force construction of the lazy survival grid (idempotent). Called
    /// once before forking parallel sampling loops so workers never
    /// contend on the one-time initialisation.
    pub fn warm_grid(&self) {
        let _ = self.grid();
    }

    /// Unconditional mean path delay (ps).
    #[must_use]
    pub fn mean_ps(&self) -> f64 {
        self.mean_ps
    }

    /// Unconditional path-delay standard deviation (ps), exact for the
    /// mixture (used by the normal fit of [`VariationMode::PaperNormal`]).
    #[must_use]
    pub fn std_ps(&self) -> f64 {
        self.std_ps
    }

    /// Survival `P(delay > x)` by linear interpolation on the grid.
    #[must_use]
    pub fn survival(&self, x: f64) -> f64 {
        let grid = self.grid();
        if x <= grid.xs[0] {
            return 1.0;
        }
        if x >= grid.xs[grid.xs.len() - 1] {
            return 0.0;
        }
        let i = grid.xs.partition_point(|&g| g <= x) - 1;
        let t = (x - grid.xs[i]) / (grid.xs[i + 1] - grid.xs[i]);
        grid.sf[i] * (1.0 - t) + grid.sf[i + 1] * t
    }

    /// Delay (ps) whose survival equals `g` (log-interpolated in the tail).
    ///
    /// O(1) per query: the bucketed inverse index finds the unique bracket
    /// of the monotone predicate `sf[i] > g` without a binary search, and
    /// the grid's log-survival values are precomputed, leaving a single
    /// `ln(g)` per call. The interpolant is bit-identical to the original
    /// binary-search-plus-4-`ln` formulation (pinned by test).
    #[must_use]
    pub fn quantile_by_survival(&self, g: f64) -> f64 {
        debug_assert!(g > 0.0 && g < 1.0);
        let grid = self.grid();
        if g >= grid.sf[0] {
            return grid.xs[0];
        }
        let last = grid.sf.len() - 1;
        if g <= grid.sf[last].max(f64::MIN_POSITIVE) && grid.sf[last] <= 0.0 {
            return grid.xs[last];
        }
        // Unique bracket (lo, hi = lo + 1) with sf[lo] > g >= sf[hi],
        // clamped to the final cell when g undershoots the whole grid —
        // exactly what the former binary search converged to.
        let pp = grid.partition(g);
        let lo = pp.min(last) - 1;
        let hi = lo + 1;
        let (ga, gb) = (grid.sf[lo], grid.sf[hi]);
        if gb <= 0.0 || ga <= gb {
            return grid.xs[hi];
        }
        // Interpolate in log-survival: near-linear for Gaussian-class tails.
        let t = (grid.ln_sf[lo] - g.ln()) / (grid.ln_sf[lo] - grid.ln_sf[hi]);
        grid.xs[lo] + (grid.xs[hi] - grid.xs[lo]) * t.clamp(0.0, 1.0)
    }

    /// Reference implementation of [`Self::quantile_by_survival`] as it
    /// stood before the O(1) inverse index: full binary search and `ln`
    /// evaluated at query time. Kept only to pin bit-exactness.
    #[cfg(test)]
    fn quantile_by_survival_reference(&self, g: f64) -> f64 {
        debug_assert!(g > 0.0 && g < 1.0);
        let grid = self.grid();
        if g >= grid.sf[0] {
            return grid.xs[0];
        }
        let last = grid.sf.len() - 1;
        if g <= grid.sf[last].max(f64::MIN_POSITIVE) && grid.sf[last] <= 0.0 {
            return grid.xs[last];
        }
        // Binary search: sf is non-increasing.
        let (mut lo, mut hi) = (0usize, last);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if grid.sf[mid] > g {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (ga, gb) = (grid.sf[lo], grid.sf[hi]);
        if gb <= 0.0 || ga <= gb {
            return grid.xs[hi];
        }
        let t = (ga.ln() - g.ln()) / (ga.ln() - gb.ln());
        grid.xs[lo] + (grid.xs[hi] - grid.xs[lo]) * t.clamp(0.0, 1.0)
    }

    /// Sample one path delay (ps).
    pub fn sample(&self, rng: &mut CounterDraws) -> f64 {
        let u = rng.uniform_open();
        self.quantile_by_survival((1.0 - u).max(f64::MIN_POSITIVE))
    }

    /// Sample the maximum of `n` i.i.d. path delays (ps) in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sample_max(&self, n: usize, rng: &mut CounterDraws) -> f64 {
        assert!(n > 0, "maximum of zero paths is undefined");
        let u = rng.uniform_open();
        self.quantile_by_survival(order::max_survival_target(u, n))
    }
}

/// Monte-Carlo distribution of the chip delay at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipDelayDistribution {
    /// Supply voltage this distribution was sampled at.
    pub vdd: Volts,
    /// The FO4 unit at `vdd` (ps): simulated chain delay ÷ chain length,
    /// the paper's definition (441 ps at 0.5 V in 90 nm).
    pub fo4_unit_ps: f64,
    /// Chip-delay samples in FO4 units, ready for quantile queries.
    pub fo4_quantiles: Quantiles,
}

impl ChipDelayDistribution {
    /// The paper's comparison statistic: the 99 % point in FO4 units
    /// ("fo4chipd").
    #[must_use]
    pub fn q99_fo4(&self) -> f64 {
        self.fo4_quantiles.q99()
    }

    /// The 99 % point in nanoseconds ("chipd").
    #[must_use]
    pub fn q99_ns(&self) -> f64 {
        self.q99_fo4() * self.fo4_unit_ps / 1000.0
    }

    /// Histogram of the FO4-unit samples (the "Occurrences" series of
    /// Figs 3/5/6).
    #[must_use]
    pub fn histogram(&self, bins: usize) -> Histogram {
        Histogram::from_samples(self.fo4_quantiles.as_sorted_slice(), bins)
    }

    /// Number of Monte-Carlo samples behind the distribution.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.fo4_quantiles.len()
    }
}

/// Fast architecture-level Monte-Carlo engine for one technology model and
/// datapath shape.
///
/// # Example
///
/// ```
/// use ntv_core::{DatapathConfig, DatapathEngine, Executor};
/// use ntv_device::{TechModel, TechNode};
/// use ntv_mc::CounterRng;
/// use ntv_units::Volts;
///
/// let tech = TechModel::new(TechNode::Gp90);
/// let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
/// let stream = CounterRng::new(1, "example");
/// let dist = engine.chip_delay_distribution(Volts(0.55), 1_000, &stream, Executor::serial());
/// // The slowest of 12,800 paths always exceeds the 50-FO4 ideal.
/// assert!(dist.fo4_quantiles.min() > 50.0);
/// ```
#[derive(Debug)]
pub struct DatapathEngine<'a> {
    tech: &'a TechModel,
    config: DatapathConfig,
    mode: VariationMode,
    path_model: PathModel<'a>,
    // Engines on a node's calibrated parameters share the process-wide
    // operating-point cache; custom-parameter engines get a private one
    // (the cache key does not encode DeviceParams).
    cache: Arc<OpPointCache>,
}

impl<'a> DatapathEngine<'a> {
    /// Engine for `tech` with the given datapath shape, in the paper's
    /// normal-fit i.i.d. variation mode.
    #[must_use]
    pub fn new(tech: &'a TechModel, config: DatapathConfig) -> Self {
        Self::with_mode(tech, config, VariationMode::PaperNormal)
    }

    /// Engine with an explicit [`VariationMode`].
    #[must_use]
    pub fn with_mode(tech: &'a TechModel, config: DatapathConfig, mode: VariationMode) -> Self {
        Self {
            tech,
            config,
            mode,
            path_model: PathModel::new(tech, config.path_length),
            cache: OpPointCache::shared_for(tech),
        }
    }

    /// The datapath shape.
    #[must_use]
    pub fn config(&self) -> &DatapathConfig {
        &self.config
    }

    /// The variation-correlation mode.
    #[must_use]
    pub fn mode(&self) -> VariationMode {
        self.mode
    }

    /// The technology model.
    #[must_use]
    pub fn tech(&self) -> &TechModel {
        self.tech
    }

    /// Conditional path moments for an explicit chip (exposed for
    /// validation tests and the hierarchical mode).
    #[must_use]
    pub fn path_moments(&self, vdd: Volts, chip: &ChipSample) -> PathMoments {
        self.path_model.conditional_moments(vdd, chip)
    }

    /// The precomputed unconditional path distribution at `vdd`
    /// (built on first use, then shared through the operating-point cache
    /// — process-wide for calibrated nodes, per-engine for custom
    /// parameter sets).
    #[must_use]
    pub fn path_distribution(&self, vdd: Volts) -> Arc<PathDistribution> {
        self.cache
            .get_or_build(self.tech, vdd, self.config.path_length)
    }

    /// The distribution at `vdd`, with its survival grid built when this
    /// mode draws through it. Sampling loops call this once before forking,
    /// so workers never contend on (or double-build) either lazy structure.
    pub(crate) fn warmed_distribution(&self, vdd: Volts) -> Arc<PathDistribution> {
        let dist = self.path_distribution(vdd);
        if self.mode != VariationMode::PaperNormal {
            dist.warm_grid();
        }
        dist
    }

    /// Sample the delays (FO4 units) of `n_lanes` lanes on a fresh chip.
    ///
    /// Each lane delay is the maximum of `paths_per_lane` path delays. In
    /// paper-normal mode the lanes run as passes over the whole row (one
    /// uniform per lane, the order-statistic targets, the 8-lane
    /// [`normal::quantile_slice`], the scale), bit-identical to one
    /// [`order::sample_max_normal`] per lane and drawing exactly what that
    /// loop draws; the other modes sample lane by lane.
    ///
    /// Passing `&mut stream.at(i)` makes chip `i`'s lanes a pure function
    /// of `(stream key, i)`, so any subset of chips can be sampled on any
    /// thread without changing a value.
    #[must_use]
    pub fn sample_lane_delays_fo4(
        &self,
        vdd: Volts,
        n_lanes: usize,
        rng: &mut CounterDraws,
    ) -> Vec<f64> {
        let dist = self.path_distribution(vdd);
        let fo4 = dist.mean_ps() / self.config.path_length as f64;
        match self.mode {
            // One uniform per lane from the cursor, in lane order, and none
            // when σ = 0: the draws of one `sample_max_normal` per lane.
            VariationMode::PaperNormal => {
                let mut lanes = vec![0.0; n_lanes];
                paper_normal_max_fo4(
                    (dist.mean_ps(), dist.std_ps()),
                    self.config.paths_per_lane,
                    fo4,
                    &mut lanes,
                    |u| u.iter_mut().for_each(|u| *u = rng.uniform_open()),
                );
                lanes
            }
            VariationMode::SkewedIid => (0..n_lanes)
                .map(|_| dist.sample_max(self.config.paths_per_lane, rng) / fo4)
                .collect(),
            VariationMode::Hierarchical => {
                let chip = self.tech.sample_chip_global(rng);
                let m = self.path_moments(vdd, &chip);
                (0..n_lanes)
                    .map(|_| {
                        let region = self.tech.sample_region(rng);
                        let f = self.tech.region_delay_factor(vdd, &region);
                        order::sample_max_normal(
                            rng,
                            self.config.paths_per_lane,
                            m.mean_ps * f,
                            m.std_ps * f,
                        ) / fo4
                    })
                    .collect()
            }
        }
    }

    /// The per-lane loop [`Self::sample_lane_delays_fo4`]'s paper-normal
    /// arm replaced: one [`order::sample_max_normal`] call per lane. The
    /// oracle the lane kernel is pinned against.
    #[cfg(test)]
    fn sample_lane_delays_fo4_per_lane(
        &self,
        vdd: Volts,
        n_lanes: usize,
        rng: &mut CounterDraws,
    ) -> Vec<f64> {
        let dist = self.path_distribution(vdd);
        let fo4 = dist.mean_ps() / self.config.path_length as f64;
        (0..n_lanes)
            .map(|_| {
                order::sample_max_normal(
                    rng,
                    self.config.paths_per_lane,
                    dist.mean_ps(),
                    dist.std_ps(),
                ) / fo4
            })
            .collect()
    }

    /// Per-chip scalar form of [`Self::sample_chip_delays_fo4_batch`]: one
    /// chip delay (FO4 units), the slowest lane of the datapath. The oracle
    /// the batch kernel is pinned against.
    #[cfg(test)]
    fn sample_chip_delay_fo4(&self, vdd: Volts, rng: &mut CounterDraws) -> f64 {
        let dist = self.path_distribution(vdd);
        let fo4 = dist.mean_ps() / self.config.path_length as f64;
        match self.mode {
            // Max over lanes of max over paths == max over all paths.
            VariationMode::PaperNormal => {
                order::sample_max_normal(
                    rng,
                    self.config.critical_path_count(),
                    dist.mean_ps(),
                    dist.std_ps(),
                ) / fo4
            }
            VariationMode::SkewedIid => {
                dist.sample_max(self.config.critical_path_count(), rng) / fo4
            }
            VariationMode::Hierarchical => self
                .sample_lane_delays_fo4(vdd, self.config.lanes, rng)
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Sample `out.len()` consecutive chip delays (FO4 units) starting at
    /// stream index `first`: `out[i]` is chip `first + i`, the slowest lane
    /// of the datapath drawn from the cursor `stream.at(first + i)`.
    ///
    /// This is the SoA kernel behind [`Self::sample_batch`]. It hoists the
    /// per-voltage distribution lookup out of the loop and, for the modes
    /// whose chip delay consumes exactly one uniform draw, splits the work
    /// into fixed-stride passes: a batched counter-RNG draw, an
    /// elementwise order-statistic target map, and a quantile inversion
    /// (the 8-lane [`normal::quantile_slice`] for paper-normal chips,
    /// [`PathDistribution::quantile_by_survival`] per element for
    /// skewed-iid ones). Element `i` is bit-identical to the per-chip
    /// scalar sampler on that cursor (pinned by the unit tests).
    pub fn sample_chip_delays_fo4_batch(
        &self,
        vdd: Volts,
        stream: &CounterRng,
        first: u64,
        out: &mut [f64],
    ) {
        let dist = self.path_distribution(vdd);
        let fo4 = dist.mean_ps() / self.config.path_length as f64;
        let n = self.config.critical_path_count();
        match self.mode {
            // Max over lanes of max over paths == max over all paths.
            VariationMode::PaperNormal => {
                paper_normal_max_fo4((dist.mean_ps(), dist.std_ps()), n, fo4, out, |u| {
                    stream.uniform_open_batch(first, u);
                });
            }
            VariationMode::SkewedIid => {
                assert!(n > 0, "maximum of zero paths is undefined");
                stream.uniform_open_batch(first, out);
                // Separate passes: one fused target-invert-scale loop
                // measured about 30 % slower per 1 000 chips.
                for o in out.iter_mut() {
                    *o = order::max_survival_target(*o, n);
                }
                for o in out.iter_mut() {
                    *o = dist.quantile_by_survival(*o);
                }
                for o in out {
                    *o /= fo4;
                }
            }
            // Hierarchical chips consume a variable number of draws in a
            // data-dependent order; sample each chip's lanes from its own
            // cursor and keep the slowest.
            VariationMode::Hierarchical => {
                for (i, o) in out.iter_mut().enumerate() {
                    let mut draws = stream.at(first + i as u64);
                    *o = self
                        .sample_lane_delays_fo4(vdd, self.config.lanes, &mut draws)
                        .into_iter()
                        .fold(f64::NEG_INFINITY, f64::max);
                }
            }
        }
    }

    /// Chip-delay samples (FO4 units) for a contiguous index range,
    /// evaluated in parallel by `exec`. Output is in index order and
    /// bit-identical for any thread count.
    #[must_use]
    pub fn sample_batch(
        &self,
        vdd: Volts,
        stream: &CounterRng,
        range: std::ops::Range<u64>,
        exec: Executor,
    ) -> Vec<f64> {
        self.warmed_distribution(vdd);
        let start = range.start;
        exec.map_indexed_chunks(range.end - range.start, |s, len| {
            let mut out = vec![0.0; len as usize];
            self.sample_chip_delays_fo4_batch(vdd, stream, start + s, &mut out);
            out
        })
    }

    /// Monte-Carlo chip-delay distribution at `vdd` from a counter-based
    /// stream, evaluated in parallel by `exec`.
    ///
    /// Sample `i` is `(stream key, i)`-addressed, so the distribution is
    /// bit-identical for any thread count — the deterministic-parallel
    /// contract DESIGN.md §7 documents.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    #[must_use]
    pub fn chip_delay_distribution(
        &self,
        vdd: Volts,
        samples: usize,
        stream: &CounterRng,
        exec: Executor,
    ) -> ChipDelayDistribution {
        assert!(samples > 0, "need at least one Monte-Carlo sample");
        let data = self.sample_batch(vdd, stream, 0..samples as u64, exec);
        ChipDelayDistribution {
            vdd,
            fo4_unit_ps: self.fo4_unit_ps(vdd),
            fo4_quantiles: Quantiles::from_samples(data),
        }
    }

    /// Distribution of a *single critical path's* delay in FO4 units (the
    /// leftmost curve of Fig 3), index-addressed like
    /// [`Self::chip_delay_distribution`] and evaluated in parallel by
    /// `exec`.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    #[must_use]
    pub fn path_delay_distribution(
        &self,
        vdd: Volts,
        samples: usize,
        stream: &CounterRng,
        exec: Executor,
    ) -> ChipDelayDistribution {
        assert!(samples > 0, "need at least one Monte-Carlo sample");
        let dist = self.warmed_distribution(vdd);
        let fo4 = dist.mean_ps() / self.config.path_length as f64;
        let data = exec.map_indexed(samples as u64, |i| {
            let mut draws = stream.at(i);
            match self.mode {
                VariationMode::SkewedIid | VariationMode::Hierarchical => {
                    dist.sample(&mut draws) / fo4
                }
                VariationMode::PaperNormal => draws.normal(dist.mean_ps(), dist.std_ps()) / fo4,
            }
        });
        ChipDelayDistribution {
            vdd,
            fo4_unit_ps: fo4,
            fo4_quantiles: Quantiles::from_samples(data),
        }
    }

    /// The FO4 unit at `vdd`: the simulated chain delay divided by the
    /// chain length (the paper's definition, e.g. 22.05 ns / 50 = 441 ps
    /// at 0.5 V in 90 nm).
    #[must_use]
    pub fn fo4_unit_ps(&self, vdd: Volts) -> f64 {
        self.path_distribution(vdd).mean_ps() / self.config.path_length as f64
    }
}

/// The paper-normal slowest of `n` paths, in FO4 units, over a batch:
/// `out[i] = (μ + σ·Φ⁻¹(u_i^(1/n))) / fo4`, the
/// [`order::sample_max_normal`] transform of one uniform per element.
///
/// `draw` fills `out` with the uniforms; then come three passes over the
/// batch: the [`order::max_cdf_target`] map, [`normal::quantile_slice`] and
/// the scale. Each pass runs the scalar operation sequence, so element `i`
/// carries the per-draw form's bits. With σ = 0 every element is `μ / fo4`
/// and `draw` is never called, so no uniform is consumed, as in
/// [`order::sample_max_normal`].
///
/// # Panics
///
/// Panics if `n == 0` or `σ < 0`.
fn paper_normal_max_fo4(
    (mean, std_dev): (f64, f64),
    n: usize,
    fo4: f64,
    out: &mut [f64],
    draw: impl FnOnce(&mut [f64]),
) {
    assert!(n > 0, "maximum of zero variables is undefined");
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    if std_dev == 0.0 {
        out.fill(mean / fo4);
        return;
    }
    draw(out);
    for o in out.iter_mut() {
        *o = order::max_cdf_target(*o, n);
    }
    normal::quantile_slice(out);
    for o in out {
        *o = (mean + std_dev * *o) / fo4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::TechNode;
    use ntv_mc::Summary;

    fn engine_default(tech: &TechModel) -> DatapathEngine<'_> {
        DatapathEngine::new(tech, DatapathConfig::paper_default())
    }

    fn stream(seed: u64) -> CounterRng {
        CounterRng::new(seed, "engine-test")
    }

    #[test]
    fn path_distribution_matches_gate_level_chain() {
        // The precomputed CDF must agree with the exact gate-level chain
        // Monte Carlo (cross-chip) in mean, spread and upper tail.
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        for vdd in [Volts(0.5), Volts(1.0)] {
            let dist = engine.path_distribution(vdd);
            let chain = ntv_circuit::chain::ChainMc::new(&tech, 50);
            let stream = CounterRng::new(31, "path_distribution_matches_gate_level_chain");
            let mc: Vec<f64> = chain.distribution_ps(vdd, 6000, &stream);
            let s: Summary = mc.iter().copied().collect();
            assert!(
                (dist.mean_ps() / s.mean() - 1.0).abs() < 0.01,
                "{vdd}: mean {} vs {}",
                dist.mean_ps(),
                s.mean()
            );
            // Compare the 99% point via inverse survival.
            let q = ntv_mc::Quantiles::from_samples(mc);
            let q99_model = dist.quantile_by_survival(0.01);
            assert!(
                (q99_model / q.q99() - 1.0).abs() < 0.02,
                "{vdd}: q99 {} vs {}",
                q99_model,
                q.q99()
            );
        }
    }

    #[test]
    fn sample_max_matches_brute_force() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let dist = engine.path_distribution(Volts(0.55));
        let mut rng = CounterRng::new(9, "sample_max_matches_brute_force").at(0);
        let fast: Summary = (0..20_000).map(|_| dist.sample_max(32, &mut rng)).collect();
        let slow: Summary = (0..20_000)
            .map(|_| {
                (0..32)
                    .map(|_| dist.sample(&mut rng))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        assert!((fast.mean() / slow.mean() - 1.0).abs() < 0.005);
        assert!((fast.std_dev() / slow.std_dev() - 1.0).abs() < 0.05);
    }

    #[test]
    fn survival_is_monotone_and_bounded() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let engine = engine_default(&tech);
        let dist = engine.path_distribution(Volts(0.5));
        let mean = dist.mean_ps();
        let mut prev = 1.0;
        for i in 0..100 {
            let x = mean * (0.5 + 1.5 * f64::from(i) / 100.0);
            let s = dist.survival(x);
            assert!((0.0..=1.0).contains(&s));
            assert!(s <= prev + 1e-12);
            prev = s;
        }
        assert!((dist.survival(mean) - 0.5).abs() < 0.1);
    }

    #[test]
    fn wider_simd_is_slower() {
        // Fig 3: 128-wide@1V right of 1-wide@1V, right of a single path@1V.
        let tech = TechModel::new(TechNode::Gp90);
        let (rng, exec) = (stream(3), Executor::serial());
        let one_path = DatapathEngine::new(&tech, DatapathConfig::new(1, 1, 50))
            .chip_delay_distribution(Volts(1.0), 2000, &rng, exec);
        let one_lane = DatapathEngine::new(&tech, DatapathConfig::new(1, 100, 50))
            .chip_delay_distribution(Volts(1.0), 2000, &rng, exec);
        let full = engine_default(&tech).chip_delay_distribution(Volts(1.0), 2000, &rng, exec);
        assert!(one_path.fo4_quantiles.median() < one_lane.fo4_quantiles.median());
        assert!(one_lane.fo4_quantiles.median() < full.fo4_quantiles.median());
    }

    #[test]
    fn low_voltage_distributions_drift_right_in_fo4_units() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let (rng, exec) = (stream(4), Executor::serial());
        let at_1v = engine.chip_delay_distribution(Volts(1.0), 2000, &rng, exec);
        let at_055 = engine.chip_delay_distribution(Volts(0.55), 2000, &rng, exec);
        let at_05 = engine.chip_delay_distribution(Volts(0.5), 2000, &rng, exec);
        assert!(at_055.q99_fo4() > at_1v.q99_fo4());
        assert!(at_05.q99_fo4() > at_055.q99_fo4());
    }

    #[test]
    fn lane_sampling_matches_whole_chip_reduction() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let mut rng_a = CounterRng::new(10, "lane_sampling_matches_whole_chip_reduction").at(0);
        let mut rng_b = CounterRng::new(20, "lane_sampling_matches_whole_chip_reduction").at(0);
        let n = 3000;
        let via_lanes: Vec<f64> = (0..n)
            .map(|_| {
                let lanes = engine.sample_lane_delays_fo4(Volts(0.6), 128, &mut rng_a);
                lanes.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let direct: Vec<f64> = (0..n)
            .map(|_| engine.sample_chip_delay_fo4(Volts(0.6), &mut rng_b))
            .collect();
        let qa = Quantiles::from_samples(via_lanes);
        let qb = Quantiles::from_samples(direct);
        for p in [0.1, 0.5, 0.9] {
            let (a, b) = (qa.quantile(p), qb.quantile(p));
            assert!((a / b - 1.0).abs() < 0.01, "p={p}: {a} vs {b}");
        }
    }

    #[test]
    fn hierarchical_mode_also_works() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::with_mode(
            &tech,
            DatapathConfig::paper_default(),
            VariationMode::Hierarchical,
        );
        let d = engine.chip_delay_distribution(Volts(0.55), 800, &stream(6), Executor::serial());
        assert!(d.q99_fo4() > 50.0);
        assert_eq!(engine.mode(), VariationMode::Hierarchical);
    }

    #[test]
    fn chip_delay_exceeds_ideal_path() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let engine = engine_default(&tech);
        let d = engine.chip_delay_distribution(Volts(0.5), 500, &stream(5), Executor::serial());
        assert!(d.fo4_quantiles.min() > 50.0);
    }

    #[test]
    fn q99_ns_consistent_with_fo4() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let d = engine.chip_delay_distribution(Volts(0.5), 500, &stream(6), Executor::serial());
        assert!((d.q99_ns() - d.q99_fo4() * d.fo4_unit_ps / 1000.0).abs() < 1e-12);
        assert!(d.q99_ns() > 20.0 && d.q99_ns() < 30.0, "{}", d.q99_ns());
    }

    #[test]
    fn path_distribution_centres_near_50_fo4() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let d = engine.path_delay_distribution(Volts(1.0), 3000, &stream(7), Executor::serial());
        assert!((d.fo4_quantiles.median() / 50.0 - 1.0).abs() < 0.03);
    }

    /// Chip `i` is a pure function of `(stream key, i)`, and the parallel
    /// batch path equals the per-chip scalar loop in every mode for any
    /// thread count, including chunk boundaries that split mid-lane.
    #[test]
    fn counter_sampling_is_index_pure_and_thread_invariant() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let stream = ntv_mc::CounterRng::new(2012, "engine-test");
        // Pure function of (key, index): repeated evaluation is bitwise equal.
        let a = engine.sample_chip_delay_fo4(Volts(0.55), &mut stream.at(7));
        let b = engine.sample_chip_delay_fo4(Volts(0.55), &mut stream.at(7));
        assert_eq!(a.to_bits(), b.to_bits());
        // Batch output equals the per-index loop, for any thread count.
        let serial = engine.sample_batch(Volts(0.55), &stream, 0..500, Executor::serial());
        let par = engine.sample_batch(Volts(0.55), &stream, 0..500, Executor::new(8));
        assert!(serial
            .iter()
            .zip(&par)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(serial[7].to_bits(), a.to_bits());

        let stream = ntv_mc::CounterRng::new(7, "batch-identity-par");
        for mode in [
            VariationMode::PaperNormal,
            VariationMode::SkewedIid,
            VariationMode::Hierarchical,
        ] {
            let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
            let scalar: Vec<f64> = (0..333)
                .map(|i| engine.sample_chip_delay_fo4(Volts(0.55), &mut stream.at(i)))
                .collect();
            for threads in [1, 2, 5, 8] {
                let batch =
                    engine.sample_batch(Volts(0.55), &stream, 0..333, Executor::new(threads));
                assert_eq!(batch.len(), scalar.len());
                for (i, (x, y)) in batch.iter().zip(&scalar).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{mode:?} threads={threads} i={i}");
                }
            }
        }
    }

    #[test]
    fn hierarchical_counter_sampling_is_thread_invariant() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::with_mode(
            &tech,
            DatapathConfig::paper_default(),
            VariationMode::Hierarchical,
        );
        let stream = ntv_mc::CounterRng::new(3, "engine-test");
        let serial = engine.chip_delay_distribution(Volts(0.6), 300, &stream, Executor::serial());
        let par = engine.chip_delay_distribution(Volts(0.6), 300, &stream, Executor::new(8));
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_path_distribution_is_thread_invariant() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = engine_default(&tech);
        let stream = ntv_mc::CounterRng::new(5, "engine-test");
        let serial = engine.path_delay_distribution(Volts(0.6), 2000, &stream, Executor::serial());
        let par = engine.path_delay_distribution(Volts(0.6), 2000, &stream, Executor::new(4));
        assert_eq!(serial, par);
        assert!((serial.fo4_quantiles.median() / 50.0 - 1.0).abs() < 0.05);
    }

    #[test]
    fn inverse_cdf_fast_path_is_bit_exact() {
        // The O(1) bucketed inverse index must reproduce the retired
        // binary-search interpolant bit for bit, across the entire clamp
        // range (f64::MIN_POSITIVE up to 1 − ε) and the survival targets
        // the samplers actually generate.
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        for vdd in [Volts(0.5), Volts(1.0)] {
            let dist = engine.path_distribution(vdd);
            let check = |g: f64| {
                assert_eq!(
                    dist.quantile_by_survival(g).to_bits(),
                    dist.quantile_by_survival_reference(g).to_bits(),
                    "{vdd}: g={g:e}"
                );
            };
            check(f64::MIN_POSITIVE);
            check(1.0 - f64::EPSILON);
            for i in 0..4000_i32 {
                let t = f64::from(i) / 4000.0;
                let g = (f64::MIN_POSITIVE.ln() * (1.0 - t) - f64::EPSILON * t).exp();
                check(g.min(1.0 - f64::EPSILON));
            }
            let mut rng = CounterRng::new(77, "inverse_cdf_fast_path_is_bit_exact").at(0);
            for _ in 0..4000 {
                let u = rng.uniform_open();
                check((1.0 - u).max(f64::MIN_POSITIVE));
                check(order::max_survival_target(u, 100));
                check(order::max_survival_target(u, 12_800));
            }
        }
    }

    #[test]
    fn sample_max_routes_through_shared_survival_target() {
        // PathDistribution::sample_max and the deduped helper must consume
        // one uniform draw and agree bitwise on the resulting quantile.
        let tech = TechModel::new(TechNode::Gp90);
        let engine = engine_default(&tech);
        let dist = engine.path_distribution(Volts(0.55));
        let mut a = CounterRng::new(123, "sample_max_routes_through_shared_survival_target").at(0);
        let mut b = CounterRng::new(123, "sample_max_routes_through_shared_survival_target").at(0);
        for &n in &[1usize, 100, 12_800] {
            let direct = dist.sample_max(n, &mut a);
            let manual = dist.quantile_by_survival(order::max_survival_target(b.uniform_open(), n));
            assert_eq!(direct.to_bits(), manual.to_bits(), "n={n}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = engine_default(&tech);
        let a = engine
            .chip_delay_distribution(Volts(0.6), 50, &stream(42), Executor::serial())
            .q99_fo4();
        let b = engine
            .chip_delay_distribution(Volts(0.6), 50, &stream(42), Executor::serial())
            .q99_fo4();
        assert_eq!(a, b);
    }

    /// The component-major survival-grid build — 8-lane `erfc_slice` over
    /// each component's unsaturated window, saturated ends filled with the
    /// constants, `axpy_ordered` fold — must reproduce the retired
    /// point-major scalar accumulation bit for bit at every grid point, on
    /// every node, at the ends of the serve lattice (0.45 and 0.80 V) and
    /// beyond. Every case has saturated terms at both ends, so the skip is
    /// compared, not just the kernel.
    #[test]
    fn vectorized_survival_grid_is_bit_exact() {
        let sqrt2 = std::f64::consts::SQRT_2;
        for node in TechNode::ALL {
            let tech = TechModel::new(node);
            for vdd in [Volts(0.45), Volts(0.5), Volts(0.8), Volts(1.0)] {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "each case needs its own fresh survival grid"
                )]
                let dist = PathDistribution::build(&tech, vdd, 50);
                let reference = dist.survival_sf_reference();
                let grid = dist.grid();
                assert_eq!(grid.sf.len(), reference.len());
                for (i, (a, b)) in grid.sf.iter().zip(&reference).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{node:?} {vdd} grid point {i}");
                }
                let (mut twos, mut zeros) = (0usize, 0usize);
                for &(_, mu, s) in &dist.comps {
                    for &x in &grid.xs {
                        let a = (x - mu) / (s * sqrt2);
                        twos += usize::from(a <= normal::ERFC_TWO_AT_OR_BELOW);
                        zeros += usize::from(a >= normal::ERFC_ZERO_AT_OR_ABOVE);
                    }
                }
                assert!(twos > 0 && zeros > 0, "{node:?} {vdd}: {twos} / {zeros}");
            }
        }
    }

    /// The paper-normal lane kernel must equal one `sample_max_normal` per
    /// lane bit for bit, on every node, at low and nominal voltage, for
    /// lane counts around the 8-lane chunk and the matrix widths, and it
    /// must leave the cursor where the per-lane loop leaves it: soda's
    /// fault injection keeps drawing from the same cursor afterwards.
    #[test]
    fn paper_normal_lane_kernel_is_bit_exact_and_draw_exact() {
        let stream = ntv_mc::CounterRng::new(505, "engine-lanes");
        for node in TechNode::ALL {
            let tech = TechModel::new(node);
            let engine = engine_default(&tech);
            for vdd in [Volts(0.5), Volts(0.55), Volts(1.0)] {
                for n_lanes in [0usize, 1, 7, 8, 9, 128, 160] {
                    for cursor in [0u64, 1, 77, 9_999] {
                        let mut kernel = stream.at(cursor);
                        let mut oracle = stream.at(cursor);
                        let got = engine.sample_lane_delays_fo4(vdd, n_lanes, &mut kernel);
                        let want =
                            engine.sample_lane_delays_fo4_per_lane(vdd, n_lanes, &mut oracle);
                        assert_eq!(got.len(), n_lanes);
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{node:?} {vdd} lanes={n_lanes} cursor={cursor} i={i}"
                            );
                        }
                        assert_eq!(
                            kernel.next_word(),
                            oracle.next_word(),
                            "{node:?} {vdd} lanes={n_lanes} cursor={cursor}: next draw"
                        );
                    }
                }
            }
        }
    }

    /// With σ = 0 the batch transform writes `μ / fo4` without drawing,
    /// as `sample_max_normal` returns μ without drawing.
    #[test]
    fn paper_normal_batch_draws_nothing_at_zero_sigma() {
        let mut rng = CounterRng::new(6, "zero-sigma").at(0);
        let mut out = [1.0; 9];
        let mut drawn = false;
        paper_normal_max_fo4((400.0, 0.0), 100, 8.0, &mut out, |_| drawn = true);
        assert!(!drawn, "no uniform may be drawn at zero sigma");
        let scalar = order::sample_max_normal(&mut rng, 100, 400.0, 0.0) / 8.0;
        assert!(out.iter().all(|o| o.to_bits() == scalar.to_bits()));
    }

    /// The SoA chip-delay kernel must equal the per-index scalar sampler
    /// bitwise for every node × mode × voltage, at several stream offsets
    /// and batch lengths: 0, 1, and sizes that are not a multiple of any
    /// lane width.
    #[test]
    fn batched_chip_delay_kernel_is_bit_exact_per_mode() {
        let stream = ntv_mc::CounterRng::new(404, "engine-batch");
        for node in [
            TechNode::Gp90,
            TechNode::Gp45,
            TechNode::PtmHp32,
            TechNode::PtmHp22,
        ] {
            let tech = TechModel::new(node);
            for mode in [
                VariationMode::PaperNormal,
                VariationMode::SkewedIid,
                VariationMode::Hierarchical,
            ] {
                let engine =
                    DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
                for vdd in [Volts(0.5), Volts(0.55), Volts(0.7), Volts(1.0)] {
                    for first in [0u64, 31, 1000] {
                        for n in [0usize, 1, 13, 27, 64, 96] {
                            let mut out = vec![0.0; n];
                            engine.sample_chip_delays_fo4_batch(vdd, &stream, first, &mut out);
                            for (i, &o) in out.iter().enumerate() {
                                let scalar = engine
                                    .sample_chip_delay_fo4(vdd, &mut stream.at(first + i as u64));
                                assert_eq!(
                                    o.to_bits(),
                                    scalar.to_bits(),
                                    "{node:?} {mode:?} {vdd} first={first} n={n} i={i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

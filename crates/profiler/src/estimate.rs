//! Fragment-ensemble estimation (paper Section 5.2, Section 6).
//!
//! The profiler's breakdowns come from analyzing a statistically
//! representative set of reconstructed fragments exactly as if each were a
//! simulator-built graph. A [`Profile`] is that set; the runner's graph
//! backend (`uarch_runner::Backend::profile`) answers `cost(S)` over it,
//! summing each `t(S)` across the fragments.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::reconstruct::{reconstruct, ReconstructStats};
use crate::sampler::Samples;
use uarch_graph::DepGraph;
use uarch_trace::{MachineConfig, StaticProgram};

/// Shotgun-reconstructed dependence-graph fragments, in pick order.
///
/// Random skeleton selection gives every signature sample equal
/// probability, which naturally weights hot microexecution paths (they
/// produce more samples).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    graphs: Vec<DepGraph>,
    stats: Vec<ReconstructStats>,
    discarded: usize,
}

impl Profile {
    /// Reconstruct up to `max_fragments` fragments from `samples`.
    /// Fragments failing reconstruction are discarded and counted.
    ///
    /// # Panics
    /// Panics if `samples` contains no signature samples.
    pub fn new(
        samples: &Samples,
        program: &StaticProgram,
        config: &MachineConfig,
        max_fragments: usize,
        seed: u64,
    ) -> Profile {
        assert!(
            !samples.signatures.is_empty(),
            "no signature samples collected"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut profile = Profile::default();
        // Random selection with replacement (step 1 of Figure 5a).
        let attempts = max_fragments.max(1) * 2;
        for _ in 0..attempts {
            if profile.graphs.len() >= max_fragments {
                break;
            }
            let pick = rng.random_range(0..samples.signatures.len());
            match reconstruct(&samples.signatures[pick], &samples.details, program, config) {
                Ok(f) => {
                    profile.graphs.push(f.graph);
                    profile.stats.push(f.stats);
                }
                Err(_) => profile.discarded += 1,
            }
        }
        profile
    }

    /// The fragment graphs, in pick order: the ensemble the runner's
    /// graph backend analyzes.
    pub fn graphs(&self) -> &[DepGraph] {
        &self.graphs
    }

    /// Number of fragments in the ensemble.
    pub fn fragment_count(&self) -> usize {
        self.graphs.len()
    }

    /// Number of skeleton picks that failed reconstruction.
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Mean fraction of positions filled from detailed samples.
    pub fn match_rate(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats
            .iter()
            .map(ReconstructStats::match_rate)
            .sum::<f64>()
            / self.stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{collect_samples, SamplerConfig};
    use icost::CostOracle;
    use uarch_runner::{Backend, Runner};
    use uarch_sim::{Idealization, Simulator};
    use uarch_trace::{EventClass, EventSet};
    use uarch_workloads::{generate, BenchProfile};

    /// A profile of `bench`, and the full graph a deployed system would
    /// not have.
    fn build_profile(bench: &str, n: usize, fragments: usize) -> (Profile, DepGraph) {
        let cfg = MachineConfig::table6();
        let w = generate(BenchProfile::by_name(bench).expect("known"), n, 17);
        let result = Simulator::new(&cfg).run(&w.trace, Idealization::none());
        let samples = collect_samples(&w.trace, &result, &SamplerConfig::default());
        let profile = Profile::new(&samples, &w.program, &cfg, fragments, 5);
        (profile, DepGraph::build(&w.trace, &result, &cfg))
    }

    #[test]
    fn builds_fragments_from_real_workload() {
        let (profile, _) = build_profile("gcc", 30_000, 12);
        assert!(
            profile.fragment_count() >= 4,
            "{}",
            profile.fragment_count()
        );
        assert!(
            profile.match_rate() > 0.5,
            "match rate {:.2} too low",
            profile.match_rate()
        );
    }

    #[test]
    fn profiler_costs_have_sane_signs() {
        let (profile, _) = build_profile("mcf", 30_000, 12);
        let mut oracle = Runner::new().oracle(Backend::profile(profile.graphs()));
        let dmiss = oracle.cost(EventSet::single(EventClass::Dmiss));
        assert!(dmiss > 0, "mcf dmiss cost must be large, got {dmiss}");
        assert_eq!(oracle.cost(EventSet::EMPTY), 0);
        let all = oracle.cost(EventSet::ALL);
        assert!(all >= dmiss);
    }

    #[test]
    fn profiler_tracks_fullgraph_dmiss_cost() {
        // The headline Table 7 claim: the profiler's breakdown tracks the
        // full-graph analysis. Check the dominant category for mcf in
        // percentage terms.
        let (profile, graph) = build_profile("mcf", 30_000, 16);
        let runner = Runner::new();
        let mut full = runner.oracle(Backend::graph(&graph));
        let mut prof = runner.oracle(Backend::profile(profile.graphs()));
        let set = EventSet::single(EventClass::Dmiss);
        let full_pct = full.cost_percent(set);
        let prof_pct = prof.cost_percent(set);
        assert!(
            (full_pct - prof_pct).abs() < 15.0,
            "profiler {prof_pct:.1}% vs fullgraph {full_pct:.1}%"
        );
    }
}

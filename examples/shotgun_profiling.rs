//! Shotgun profiling end to end (paper Section 5).
//!
//! Plays the role of a deployed system: the "hardware" collects signature
//! and detailed samples while a workload runs; post-mortem software
//! reassembles dependence-graph fragments from the samples and the
//! program binary; and the fragment ensemble answers the same breakdown
//! queries a simulator-built graph would — no re-simulation possible, none
//! needed.
//!
//! Run with: `cargo run --release --example shotgun_profiling`

use icost::{Breakdown, CostOracle};
use shotgun::{collect_samples, reconstruct, Profile, SamplerConfig};
use uarch_graph::DepGraph;
use uarch_runner::{Backend, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, MachineConfig};
use uarch_workloads::{generate, BenchProfile};

fn main() {
    let w = generate(
        BenchProfile::by_name("twolf").expect("suite benchmark"),
        60_000,
        2003,
    );
    let cfg = MachineConfig::table6();
    let result =
        Simulator::new(&cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);

    // 1. The monitoring hardware: two signature bits per retired
    //    instruction, sampled into 1000-instruction skeletons, plus
    //    ProfileMe-style detailed samples of single instructions.
    let sampler = SamplerConfig::default();
    let samples = collect_samples(&w.trace, &result, &sampler);
    println!(
        "hardware collected {} signature samples and {} detailed samples \
         over {} instructions",
        samples.signatures.len(),
        samples.details.len(),
        w.trace.len()
    );

    // 2. One fragment, reconstructed by hand, to see the machinery.
    let frag = reconstruct(&samples.signatures[0], &samples.details, &w.program, &cfg)
        .expect("first skeleton reconstructs");
    println!(
        "first fragment: {} instructions, {:.0}% filled from detailed samples{}",
        frag.graph.len(),
        100.0 * frag.stats.match_rate(),
        if frag.stats.truncated {
            " (truncated at an unresolvable indirect target)"
        } else {
            ""
        }
    );

    // 3. The full ensemble, answered like one graph: t(S) sums over it.
    let profile = Profile::new(&samples, &w.program, &cfg, 16, 42);
    println!(
        "ensemble: {} fragments ({} skeleton picks discarded)",
        profile.fragment_count(),
        profile.discarded()
    );
    let mut prof = Runner::new().oracle(Backend::profile(profile.graphs()));
    let profiled = Breakdown::with_focus(&mut prof, &EventClass::ALL, EventClass::Dl1);

    // 4. Compare with the full simulator-built graph (which a deployed
    //    system would NOT have).
    let graph = DepGraph::build(&w.trace, &result, &cfg);
    let mut full = Runner::new().oracle(Backend::graph(&graph));
    let reference = Breakdown::with_focus(&mut full, &EventClass::ALL, EventClass::Dl1);

    println!(
        "\n{:<12} {:>10} {:>10}",
        "category", "profiler", "fullgraph"
    );
    for row in &profiled.rows {
        let full_pct = reference.percent(&row.label).unwrap_or(f64::NAN);
        println!("{:<12} {:>10.1} {:>10.1}", row.label, row.percent, full_pct);
    }

    let dmiss = uarch_trace::EventSet::single(EventClass::Dmiss);
    println!(
        "\nheadline: the profiler blames data misses for {:.1}% of time; \
         the full graph says {:.1}%",
        prof.cost_percent(dmiss),
        full.cost_percent(dmiss),
    );
}

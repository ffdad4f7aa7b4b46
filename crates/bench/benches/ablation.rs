//! Ablations over the shotgun profiler's design choices (paper
//! Section 5's stated tradeoffs): signature-sample length, detailed-sample
//! density, signature-context width, and fragment-ensemble size, each
//! scored by breakdown error against the full-graph analysis.

use icost::CostOracle;
use icost_bench::{bench_insts, harness_runner, workload, Shape};
use shotgun::{collect_samples, Profile, SamplerConfig};
use uarch_graph::DepGraph;
use uarch_runner::Backend;
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};

fn main() {
    let n = bench_insts();
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    let w = workload("twolf", n, icost_bench::DEFAULT_SEED);
    let sim = Simulator::new(&cfg);
    let result = sim.run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let graph = DepGraph::build(&w.trace, &result, &cfg);
    let runner = harness_runner();
    let mut full = runner.oracle(Backend::graph(&graph));
    let mut shape = Shape::new();

    // Mean absolute breakdown error (pp over the 8 singleton categories)
    // of a profile sampled by `sampler` versus the full graph, with its
    // fragment count and detail match rate.
    let mut profiler_error = |sampler: &SamplerConfig, fragments: usize| {
        let samples = collect_samples(&w.trace, &result, sampler);
        let profile = Profile::new(&samples, &w.program, &cfg, fragments, 7);
        let mut prof = runner.oracle(Backend::profile(profile.graphs()));
        let mut err = 0.0;
        for c in EventClass::ALL {
            let set = EventSet::single(c);
            err += (prof.cost_percent(set) - full.cost_percent(set)).abs();
        }
        let err = err / EventClass::ALL.len() as f64;
        (err, profile.fragment_count(), profile.match_rate())
    };

    println!("Profiler design ablations on twolf ({n} insts); error = mean |pp| vs fullgraph\n");

    println!("(a) detailed-sample density (mean instructions between samples):");
    let mut density_errs = Vec::new();
    for interval in [7usize, 29, 117, 468] {
        let s = SamplerConfig {
            detail_interval: interval,
            ..SamplerConfig::default()
        };
        let (err, frags, match_rate) = profiler_error(&s, 16);
        println!(
            "  every ~{interval:>4} insts: error {err:>5.2}pp  ({frags} fragments, {:>3.0}% matched)",
            100.0 * match_rate
        );
        density_errs.push((interval, err, match_rate));
    }
    shape.check(
        "denser detailed sampling raises the detail match rate",
        density_errs.first().map(|x| x.2).unwrap_or(0.0)
            > density_errs.last().map(|x| x.2).unwrap_or(1.0),
    );

    println!("\n(b) signature-sample length (fragment size):");
    for len in [125usize, 250, 500, 1000] {
        let s = SamplerConfig {
            signature_len: len,
            signature_interval: 2000,
            ..SamplerConfig::default()
        };
        let (err, frags, _) = profiler_error(&s, 16);
        println!("  {len:>5}-inst skeletons: error {err:>5.2}pp  ({frags} fragments)");
    }

    println!("\n(c) signature context around detailed samples (match window):");
    let mut ctx_errs = Vec::new();
    for ctx in [0usize, 2, 10, 20] {
        let s = SamplerConfig {
            detail_context: ctx,
            ..SamplerConfig::default()
        };
        let (err, _, _) = profiler_error(&s, 16);
        println!("  +/-{ctx:>2} instructions: error {err:>5.2}pp");
        ctx_errs.push((ctx, err));
    }
    shape.check(
        "the paper's +/-10 context beats no context",
        ctx_errs
            .iter()
            .find(|(c, _)| *c == 10)
            .map(|x| x.1)
            .unwrap_or(f64::MAX)
            <= ctx_errs
                .iter()
                .find(|(c, _)| *c == 0)
                .map(|x| x.1)
                .unwrap_or(0.0)
                + 1.0,
    );

    println!("\n(d) fragment-ensemble size:");
    let mut frag_errs = Vec::new();
    for frags in [2usize, 4, 8, 16] {
        let (err, got, _) = profiler_error(&SamplerConfig::default(), frags);
        println!("  {frags:>2} fragments requested ({got} built): error {err:>5.2}pp");
        frag_errs.push(err);
    }
    // Tiny ensembles are dominated by *which* fragments happened to be
    // sampled, so the robust claim is convergence: large ensembles
    // settle, and adding fragments does not hurt.
    shape.check(
        "ensemble accuracy converges (8 vs 16 fragments within 2pp, 16 no worse than 2)",
        (frag_errs[2] - frag_errs[3]).abs() < 2.0 && frag_errs[3] <= frag_errs[0] + 0.5,
    );
    std::process::exit(i32::from(!shape.finish("Ablations")));
}

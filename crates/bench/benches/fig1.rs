//! Figure 1: correctly reporting breakdowns. A micro-execution with two
//! parallel cache-miss groups plus serial ALU work, broken down the
//! traditional way (which cannot account for all cycles) and with
//! interaction-cost categories (which can), plus the stacked-bar style
//! visualization (Figure 1b).

use icost::{icost, render_bar_chart, traditional_breakdown, Breakdown, CostOracle, GraphOracle};
use icost_bench::{observe, Shape};
use uarch_runner::{Backend, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{parallel_misses, serial_misses_parallel_alu};

fn main() {
    let cfg = MachineConfig::table6();
    let mut shape = Shape::new();

    println!("Figure 1 — parallelism-aware breakdowns on the canonical kernels\n");

    // (1) Two parallel miss streams: costs do not decompose additively.
    let t = parallel_misses(200);
    let (result, graph) = observe(&t, &cfg);

    // Figure 1a's left-hand side: the traditional single-cause breakdown.
    let trad = traditional_breakdown(&t, &result);
    println!("traditional single-cause breakdown (Figure 1a, 'old method'):");
    print!("{}", trad.to_table());
    println!();
    let runner = Runner::new();
    let mut oracle = runner.oracle(Backend::graph(&graph));
    let classes = [EventClass::Dmiss, EventClass::Dl1, EventClass::ShortAlu];
    let b = Breakdown::full(&mut oracle, &classes);
    println!("parallel-miss kernel, full power-set breakdown:");
    print!("{}", b.to_table("%"));
    println!("\n{}", render_bar_chart(&b, 30));
    let total: f64 = b
        .rows
        .iter()
        .filter(|r| r.label != "Total")
        .map(|r| r.percent)
        .sum();
    shape.check(
        "interaction categories account for exactly 100% of execution time",
        (total - 100.0).abs() < 1e-6,
    );
    // The traditional method blames one category for the overlapped
    // cycles and cannot express that both streams must be optimized
    // together — the icost breakdown carries that in its dmiss rows.
    shape.check(
        "traditional breakdown collapses the overlap into a single cause",
        trad.percent_of(uarch_trace::EventClass::Dmiss) > 40.0,
    );

    // (2) The serial kernel: a miss feeding ALU work under a long-latency
    // cover chain ⇒ icost(dmiss, shalu) < 0.
    let t2 = serial_misses_parallel_alu(120, 110);
    let (_, graph2) = observe(&t2, &cfg);
    let mut oracle2 = runner.oracle(Backend::graph(&graph2));
    let pair = EventSet::from([EventClass::Dmiss, EventClass::ShortAlu]);
    let serial_icost = icost(&mut oracle2, pair);
    let dmiss_cost = oracle2.cost(EventSet::single(EventClass::Dmiss));
    let shalu_cost = oracle2.cost(EventSet::single(EventClass::ShortAlu));
    println!(
        "serial kernel: cost(dmiss) = {dmiss_cost}, cost(shalu) = {shalu_cost}, \
         icost(dmiss, shalu) = {serial_icost} cycles"
    );
    shape.check(
        "serial kernel: icost(dmiss, shalu) is negative",
        serial_icost < 0,
    );

    // (3) The parallel kernel's two miss streams, treated as two event
    // *sets* at the instruction level, interact in parallel: individual
    // costs are small, the joint cost is large. At the class level this
    // shows as cost({dmiss}) >> 0 while most of that cost is recoverable
    // only by attacking all misses at once (the bandwidth of one stream
    // covers the other).
    let dmiss = oracle.cost(EventSet::single(EventClass::Dmiss));
    shape.check("parallel kernel: dmiss carries most of the time", {
        let base = oracle.baseline() as i64;
        dmiss * 2 > base
    });

    // (4) Traditional breakdown failure: the sum of singleton costs does
    // not equal total time on the serial kernel (cycles are double- or
    // un-counted without interaction categories).
    let singleton_sum: i64 = EventClass::ALL
        .iter()
        .map(|&c| oracle2.cost(EventSet::single(c)))
        .sum();
    let base2 = oracle2.baseline() as i64;
    println!(
        "serial kernel: singleton costs sum to {singleton_sum} of {base2} cycles \
         ({:.0}%) — a traditional breakdown cannot account for all cycles",
        100.0 * singleton_sum as f64 / base2 as f64
    );
    shape.check(
        "singleton costs alone do not account for execution time",
        (singleton_sum - base2).unsigned_abs() > (base2 / 20) as u64,
    );

    // (5) The lane-batched oracle behind every breakdown above is
    // bit-identical to per-set graph evaluation across the full 8-event
    // lattice, on both kernels.
    let full_lattice: Vec<EventSet> = (0u16..256).map(|b| EventSet::from_bits(b as u8)).collect();
    let mut exact = true;
    for (lattice, g) in [(&mut oracle, &graph), (&mut oracle2, &graph2)] {
        let mut scalar = GraphOracle::new(g);
        lattice.prefetch(&full_lattice);
        exact &= full_lattice
            .iter()
            .all(|&s| lattice.cost(s) == scalar.cost(s));
    }
    shape.check(
        "lane-batched oracle matches per-set GraphOracle on the full lattice",
        exact,
    );

    // (6) The graph-cost analysis agrees with ground-truth re-simulation
    // on the serial sign.
    let mut multi = icost::MultiSimOracle::new(&cfg, &t2);
    let multi_icost = icost(&mut multi, pair);
    println!("serial kernel re-simulated: icost(dmiss, shalu) = {multi_icost} cycles");
    shape.check(
        "multisim ground truth agrees the interaction is serial",
        multi_icost < 0,
    );
    std::process::exit(i32::from(!shape.finish("Figure 1")));
}

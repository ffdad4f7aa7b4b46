//! Ledger coverage for the lane-batched graph oracle: batched graph
//! queries must appear in the run ledger with a header, provenance, and
//! stable result hashes — the same contract the simulation oracles keep.
//!
//! Lives in its own integration-test binary because it installs the
//! process-wide global ledger, which the library's unit tests (that touch
//! the ledger lazily) would race.

use icost::CostOracle;
use uarch_graph::DepGraph;
use uarch_obs::ledger::{
    install_global, parse_ledger, JobRecord, Ledger, LedgerRecord, Provenance,
};
use uarch_runner::{Backend, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

fn graph(cfg: &MachineConfig) -> DepGraph {
    let mut b = TraceBuilder::new();
    for k in 0..60u64 {
        b.load(Reg::int(1), 0x10_0000 + k * 4096);
        b.alu(Reg::int(2), &[Reg::int(1)]);
    }
    let t = b.finish();
    let res = uarch_sim::Simulator::new(cfg).run(&t, uarch_sim::Idealization::none());
    DepGraph::build(&t, &res, cfg)
}

#[test]
fn graph_jobs_are_ledgered_with_provenance() {
    let ledger = Ledger::in_memory();
    assert!(
        install_global(ledger.clone()),
        "another ledger was installed first in this process"
    );
    let cfg = MachineConfig::table6();
    let g = graph(&cfg);
    let mut lattice = Runner::new().with_threads(2).oracle(Backend::graph(&g));
    let d = EventSet::single(EventClass::Dmiss);
    let w = EventSet::single(EventClass::Win);
    lattice.prefetch(&[d, w]);
    let _ = lattice.cost(d); // memo hit → memory-provenance record
    let text = ledger.buffered_text().expect("in-memory ledger");
    ledger.set_enabled(false);

    let records = parse_ledger(&text).expect("ledger parses");
    let header = records
        .iter()
        .find_map(|r| match r {
            LedgerRecord::Run(h) => Some(h.clone()),
            _ => None,
        })
        .expect("graph run header present");
    assert_eq!(header.ctx, lattice.context().to_string());
    assert_eq!(header.insts, g.len() as u64);

    let computed: Vec<&JobRecord> = records
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Job(j) if j.provenance == Provenance::Computed => Some(j),
            _ => None,
        })
        .collect();
    assert_eq!(computed.len(), 2, "one computed record per distinct set");
    let memo = records
        .iter()
        .filter(|r| matches!(r, LedgerRecord::Job(j) if j.provenance == Provenance::Memory))
        .count();
    assert_eq!(memo, 1, "each memo-served answer carries memory provenance");
    for j in computed {
        assert_eq!(j.hash.len(), 16, "stable result hash present: {}", j.hash);
    }
}

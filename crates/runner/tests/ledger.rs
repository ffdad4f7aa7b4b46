//! End-to-end check that `Runner::run` writes a coherent run ledger:
//! one header per run, one job record per answered simulation job, and
//! provenance that flips from `computed` to `memory` on the second,
//! fully-cached batch. Lives in its own integration binary because the
//! global ledger is process-wide (installed once).

use std::collections::BTreeMap;

use uarch_obs::ledger::{install_global, parse_ledger, Ledger, LedgerRecord, Provenance};
use uarch_runner::{Query, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

fn kernel() -> uarch_trace::Trace {
    let mut b = TraceBuilder::new();
    for k in 0..25u64 {
        b.load(Reg::int(1), 0x10_0000 + k * 4096);
        b.alu(Reg::int(2), &[Reg::int(1)]);
    }
    b.finish()
}

#[test]
fn runner_runs_append_headers_and_job_records() {
    assert!(
        install_global(Ledger::in_memory()),
        "another ledger was installed first in this process"
    );
    let cfg = MachineConfig::table6();
    let t = kernel();
    let u = EventSet::from([EventClass::Dmiss, EventClass::Win]);
    let runner = Runner::new().with_threads(2);

    let (first, r1) = runner.run(&cfg, &t, &[Query::Icost(u)]);
    let (second, r2) = runner.run(&cfg, &t, &[Query::Icost(u)]);
    assert_eq!(first, second);
    assert_eq!(r1.sims_run, 4);
    assert_eq!(r2.sims_run, 0);

    let text = uarch_obs::ledger::global()
        .buffered_text()
        .expect("in-memory ledger captures lines");
    let records = parse_ledger(&text).expect("every appended line parses");

    let headers: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Run(h) => Some(h),
            _ => None,
        })
        .collect();
    assert_eq!(headers.len(), 2, "one header per Runner::run");
    assert_eq!(headers[0].queries, 1);
    assert_eq!(headers[0].ctx, headers[1].ctx, "same context both runs");
    assert!(headers[0].run < headers[1].run, "dense increasing run ids");
    assert_eq!(headers[0].insts, t.len() as u64);

    let jobs_by_run: BTreeMap<u64, Vec<_>> = records
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Job(j) => Some(j),
            _ => None,
        })
        .fold(BTreeMap::new(), |mut m, j| {
            m.entry(j.run).or_default().push(j);
            m
        });

    // First run: the {∅, d, w, d∪w} lattice costs four computed sims;
    // every later lookup of the same sets (the answer phase) is a
    // memory hit, and each answered job gets its own ledger row.
    let first_jobs = &jobs_by_run[&headers[0].run];
    let computed: Vec<_> = first_jobs
        .iter()
        .filter(|j| j.provenance == Provenance::Computed)
        .collect();
    assert_eq!(computed.len(), 4, "one computed record per distinct set");
    assert_eq!(
        computed.len() as u64,
        r1.sims_run,
        "one computed record per sim"
    );
    assert!(
        computed.iter().any(|j| j.stalls.values().any(|&v| v > 0)),
        "computed records carry nonzero stall rows"
    );
    assert!(first_jobs
        .iter()
        .filter(|j| j.provenance != Provenance::Computed)
        .all(|j| j.provenance == Provenance::Memory && j.stalls.is_empty()));

    // Second run: nothing simulated, everything from the in-memory cache.
    let second_jobs = &jobs_by_run[&headers[1].run];
    assert!(second_jobs
        .iter()
        .all(|j| j.provenance == Provenance::Memory));
    assert_eq!(
        second_jobs
            .iter()
            .map(|j| j.set.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        4,
        "same four distinct sets answered"
    );
    assert!(
        second_jobs.iter().all(|j| j.stalls.is_empty()),
        "cache hits do not repeat stall rows"
    );

    // Result hashes are stable: the same set yields the same hash in
    // both runs (content-addressed identity for cross-run diffing).
    for c in &computed {
        let s = second_jobs
            .iter()
            .find(|j| j.set == c.set)
            .expect("same lattice both runs");
        assert_eq!(c.hash, s.hash, "hash differs for set {}", c.set);
        assert_eq!(c.cycles, s.cycles);
    }
}

//! End-to-end check of the runner's attribution audit hook: with
//! audits enabled, each distinct sim context gets exactly one `audit`
//! ledger record per process, the record is self-contained (verdict,
//! per-category maps, evidence), and re-running the same context does
//! not re-audit. Lives in its own integration binary because both the
//! global ledger and the audited-context memo are process-wide.

use uarch_obs::ledger::{install_global, parse_ledger, Ledger, LedgerRecord};
use uarch_runner::{Query, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

fn kernel(stride: u64) -> uarch_trace::Trace {
    let mut b = TraceBuilder::new();
    for k in 0..40u64 {
        b.load(Reg::int(1), 0x20_0000 + k * stride);
        b.alu(Reg::int(2), &[Reg::int(1)]);
    }
    b.finish()
}

fn audit_records(text: &str) -> Vec<uarch_obs::ledger::AuditRecord> {
    parse_ledger(text)
        .expect("every appended line parses")
        .into_iter()
        .filter_map(|r| match r {
            LedgerRecord::Audit(a) => Some(a),
            _ => None,
        })
        .collect()
}

#[test]
fn audits_fire_once_per_context_and_are_self_contained() {
    assert!(
        install_global(Ledger::in_memory()),
        "another ledger was installed first in this process"
    );
    let cfg = MachineConfig::table6();
    let t = kernel(4096);
    let q = [Query::Cost(EventSet::single(EventClass::Dmiss))];
    let runner = Runner::new().with_threads(2).with_audit();

    runner.run(&cfg, &t, &q);
    runner.run(&cfg, &t, &q);
    let text = uarch_obs::ledger::global()
        .buffered_text()
        .expect("in-memory ledger captures lines");
    let audits = audit_records(&text);
    assert_eq!(audits.len(), 1, "one audit per context per process");

    let a = &audits[0];
    assert_eq!(a.scope, "run");
    assert!(a.baseline > 0, "audits carry the graph baseline");
    assert!(
        matches!(a.verdict.as_str(), "confirmed" | "refuted" | "unmodeled"),
        "unexpected verdict {:?}",
        a.verdict
    );
    assert_eq!(
        a.confirmed + a.refuted + a.unmodeled,
        EventClass::ALL.len() as u64,
        "every category is classified"
    );
    assert!(
        !a.attributed.is_empty() && !a.counters.is_empty(),
        "audit records are self-contained"
    );
    // The audit is stamped with the batch's run id, so it joins
    // against that run's header.
    let header_runs: Vec<u64> = parse_ledger(&text)
        .unwrap()
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Run(h) => Some(h.run),
            _ => None,
        })
        .collect();
    assert!(header_runs.contains(&a.run), "audit joins a run header");

    // A different trace is a different sim context: it gets its own
    // audit, while audits stay absent when the hook is not enabled.
    let t2 = kernel(64);
    runner.run(&cfg, &t2, &q);
    Runner::new().run(&cfg, &kernel(8), &q);
    let audits = audit_records(&uarch_obs::ledger::global().buffered_text().unwrap());
    assert_eq!(
        audits.len(),
        2,
        "new context audits once; un-audited runner adds none"
    );
    assert_ne!(audits[0].run, audits[1].run);
}

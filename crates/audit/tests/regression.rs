//! Attribution-quality regression gates for the auditor itself.
//!
//! Two pins, both over the paper's Table-4a/Table-7 benchmark
//! stand-ins: a well-calibrated model must *confirm* (≥90% of checked
//! base-category attributions within tolerance across the suite), and
//! a deliberately mis-calibrated model must be *refuted* with the
//! mis-modeled category named in the evidence — the auditor is only
//! useful if it both trusts good models and catches bad ones.

use uarch_audit::{audit_attribution, Verdict};
use uarch_graph::{breakdown_lattice, DepGraph, LaneScratch, DEFAULT_CHUNK};
use uarch_sim::{Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, MachineConfig, Trace};
use uarch_workloads::{generate, BenchProfile, Workload};

const INSTS: usize = 6_000;
const SEED: u64 = 2003;

fn baseline(w: &Workload, config: &MachineConfig) -> SimResult {
    Simulator::new(config).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code)
}

/// The graph-side lattice of `trace` as modeled by `config`.
fn lattice(
    trace: &Trace,
    result: &SimResult,
    config: &MachineConfig,
) -> (u64, [i64; 8], Vec<(uarch_trace::EventSet, i64)>) {
    let graph = DepGraph::build(trace, result, config);
    let mut scratch = LaneScratch::new();
    breakdown_lattice(&graph, DEFAULT_CHUNK, &mut scratch)
}

#[test]
fn table7_suite_confirms_at_least_90_pct_of_checked_categories() {
    let config = MachineConfig::table6();
    let mut confirmed = 0u64;
    let mut refuted = 0u64;
    let mut checked_profiles = 0usize;
    for profile in BenchProfile::suite() {
        let w = generate(profile, INSTS, SEED);
        let result = baseline(&w, &config);
        let (base, costs, pairs) = lattice(&w.trace, &result, &config);
        let audit = audit_attribution(profile.name, base, &costs, &pairs, &result.stalls);
        assert!(base > 0, "{}: empty baseline", profile.name);
        if audit.checked {
            checked_profiles += 1;
        }
        confirmed += audit.confirmed();
        refuted += audit.refuted();
        assert!(
            audit.verdict() != Verdict::Refuted || !audit.evidence.is_empty(),
            "{}: refuted without evidence",
            profile.name
        );
    }
    assert!(
        checked_profiles >= 10,
        "only {checked_profiles}/12 profiles cleared the noise floor"
    );
    let total = confirmed + refuted;
    assert!(total > 0, "no categories were checkable");
    let rate = confirmed as f64 / total as f64;
    assert!(
        rate >= 0.90,
        "well-calibrated model confirmed only {confirmed}/{total} ({:.1}%) checked categories",
        rate * 100.0
    );
}

#[test]
fn miscalibrated_memory_latency_is_refuted_and_dmiss_is_named() {
    // The "real machine" (counter side) is table6; the model under
    // audit (graph side) thinks memory is nearly free. A memory-bound
    // workload must expose that as a dmiss refutation.
    let real = MachineConfig::table6();
    let mut wrong = MachineConfig::table6();
    wrong.mem_latency = 5;
    let w = generate(BenchProfile::by_name("mcf").expect("mcf"), INSTS, SEED);
    let counters = baseline(&w, &real);

    // Control arm: the honest model confirms on the same workload.
    let honest = lattice(&w.trace, &counters, &real);
    let audit = audit_attribution("run", honest.0, &honest.1, &honest.2, &counters.stalls);
    assert_eq!(
        audit.verdict(),
        Verdict::Confirmed,
        "honest model should confirm: {}",
        audit.evidence
    );

    // Mis-calibrated arm: graph and its costs come from the wrong
    // config, counters from the real machine.
    let modeled = baseline(&w, &wrong);
    let (base, costs, pairs) = lattice(&w.trace, &modeled, &wrong);
    let audit = audit_attribution("run", base, &costs, &pairs, &counters.stalls);
    assert_eq!(
        audit.verdict(),
        Verdict::Refuted,
        "wrong memory latency must be caught"
    );
    let dmiss = &audit.categories[EventClass::Dmiss as usize];
    assert_eq!(dmiss.class, EventClass::Dmiss);
    assert_eq!(
        dmiss.verdict,
        Verdict::Refuted,
        "the mis-modeled category itself must be refuted (divergence {}pm)",
        dmiss.divergence_pm
    );
    assert!(
        audit.evidence.contains("dmiss"),
        "evidence must name dmiss: {}",
        audit.evidence
    );
    // The model underestimates memory, so dmiss is *under*-attributed
    // relative to the counters: signed divergence is negative.
    assert!(
        dmiss.divergence_pm < 0,
        "expected under-attribution, got {}pm",
        dmiss.divergence_pm
    );
}

#[test]
fn waterfalls_are_identical_across_the_wire() {
    // A rendered waterfall must survive ledger serialization: whoever
    // holds the record — the server's /explain response, the CLI's
    // ledger tail, an SSE subscriber — reproduces the same table.
    let config = MachineConfig::table6();
    let w = generate(BenchProfile::by_name("gcc").expect("gcc"), INSTS, SEED);
    let result = baseline(&w, &config);
    let (base, costs, pairs) = lattice(&w.trace, &result, &config);
    let audit = audit_attribution("run", base, &costs, &pairs, &result.stalls);
    let record = audit.to_record(7);
    let line = uarch_obs::ledger::LedgerRecord::Audit(record.clone()).to_json_line();
    let (parsed, skipped) = uarch_obs::ledger::parse_ledger_lenient(&line).expect("parses");
    assert_eq!(skipped, 0);
    let uarch_obs::ledger::LedgerRecord::Audit(roundtripped) = &parsed[0] else {
        panic!("wrong kind");
    };
    assert_eq!(&record, roundtripped);
    assert_eq!(
        uarch_audit::render_waterfall(&record),
        uarch_audit::render_waterfall(roundtripped)
    );
}

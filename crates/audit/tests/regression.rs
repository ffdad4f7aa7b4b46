//! Attribution-quality regression gates for the auditor itself.
//!
//! Two pins, both over the paper's Table-4a/Table-7 benchmark
//! stand-ins: a well-calibrated model must *confirm* (≥90% of checked
//! base-category attributions within tolerance across the suite), and
//! a deliberately mis-calibrated model must be *refuted* with the
//! mis-modeled category named in the evidence — the auditor is only
//! useful if it both trusts good models and catches bad ones.

use uarch_audit::{audit_attribution, Verdict};
use uarch_graph::{Attribution, LaneScratch};
use uarch_trace::{EventClass, MachineConfig};
use uarch_workloads::{generate, BenchProfile, Workload};

const INSTS: usize = 6_000;
const SEED: u64 = 2003;

/// The warmed workload's attribution as modeled by `config`.
fn attribution(w: &Workload, config: &MachineConfig) -> Attribution {
    let mut scratch = LaneScratch::new();
    Attribution::simulate(config, &w.trace, &w.warm_data, &w.warm_code, &mut scratch)
}

#[test]
fn table7_suite_confirms_at_least_90_pct_of_checked_categories() {
    let config = MachineConfig::table6();
    let mut confirmed = 0u64;
    let mut refuted = 0u64;
    let mut checked_profiles = 0usize;
    for profile in BenchProfile::suite() {
        let w = generate(profile, INSTS, SEED);
        let attribution = attribution(&w, &config);
        let audit = audit_attribution(profile.name, &attribution);
        assert!(attribution.baseline > 0, "{}: empty baseline", profile.name);
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
    let honest = attribution(&w, &real);

    // Control arm: the honest model confirms on the same workload.
    let audit = audit_attribution("run", &honest);
    assert_eq!(
        audit.verdict(),
        Verdict::Confirmed,
        "honest model should confirm: {}",
        audit.evidence
    );

    // Mis-calibrated arm: graph and its costs come from the wrong
    // config, counters from the real machine.
    let modeled = Attribution {
        stalls: honest.stalls,
        ..attribution(&w, &wrong)
    };
    let audit = audit_attribution("run", &modeled);
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
    let audit = audit_attribution("run", &attribution(&w, &config));
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

//! Golden wire lines for every ledger record kind: each record renders
//! to exactly the bytes below, parses back to itself, and still parses
//! when a field from a future schema is prepended. Traced kinds are
//! checked with and without a stamped trace id; `calib` carries none.

use std::collections::BTreeMap;

use uarch_obs::ledger::{
    AuditRecord, CalibRecord, JobRecord, LedgerRecord, PlanRecord, Provenance, ReportRecord,
    RunHeader, WindowRecord,
};

const TRACE: &str = "00000000000c0ffe";

fn map<V: Copy>(entries: &[(&str, V)]) -> BTreeMap<String, V> {
    entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn job(provenance: Provenance, stalls: &[(&str, u64)]) -> LedgerRecord {
    LedgerRecord::Job(JobRecord {
        run: 3,
        set: "dmiss+win".into(),
        provenance,
        cycles: 4567,
        wall_us: 123,
        hash: "0123456789abcdef".into(),
        stalls: map(stalls),
        trace: String::new(),
    })
}

fn window(costs: &[(&str, i64)], pairs: &[(&str, i64)]) -> LedgerRecord {
    LedgerRecord::Window(WindowRecord {
        run: 5,
        window: 2,
        start: 2048,
        end: 3072,
        baseline: 5120,
        lag: 776,
        eval_us: 1200,
        costs: map(costs),
        pairs: map(pairs),
        trace: String::new(),
    })
}

fn audit(
    attributed: &[(&str, i64)],
    counters: &[(&str, i64)],
    divergence: &[(&str, i64)],
) -> LedgerRecord {
    LedgerRecord::Audit(AuditRecord {
        run: 11,
        scope: "window 3".into(),
        baseline: 4096,
        tolerance_pm: 150,
        score_pm: 312,
        confirmed: 4,
        refuted: 1,
        unmodeled: 3,
        verdict: "refuted".into(),
        attributed: map(attributed),
        counters: map(counters),
        divergence: map(divergence),
        evidence: "dmiss: attributed 31.0% vs counters 52.4%".into(),
        trace: String::new(),
    })
}

fn report(skipped: u64) -> LedgerRecord {
    LedgerRecord::Report(ReportRecord {
        run: 7,
        queries: 2,
        jobs: 5,
        deduped: 1,
        cache_hits: 2,
        disk_hits: 1,
        sims_run: 1,
        cycles: 9001,
        insts: 3000,
        threads: 8,
        expand_us: 40,
        sim_us: 1234,
        skipped,
        trace: String::new(),
    })
}

/// Every unstamped record this test pins, with its exact wire line.
fn golden() -> Vec<(LedgerRecord, &'static str)> {
    let stalls = [("load_mem_fill", 7), ("issue_fu_busy", 2)];
    vec![
        (
            LedgerRecord::Run(RunHeader {
                run: 3,
                ctx: "00aa11bb22cc33dd".into(),
                queries: 2,
                threads: 8,
                insts: 900,
                ts_ms: 1_722_945_600_000,
                trace: String::new(),
            }),
            "{\"kind\":\"run\",\"run\":3,\"ctx\":\"00aa11bb22cc33dd\",\"queries\":2,\
             \"threads\":8,\"insts\":900,\"ts_ms\":1722945600000}",
        ),
        (
            job(Provenance::Computed, &stalls),
            "{\"kind\":\"job\",\"run\":3,\"set\":\"dmiss+win\",\"provenance\":\"computed\",\
             \"cycles\":4567,\"wall_us\":123,\"hash\":\"0123456789abcdef\",\
             \"stalls\":{\"issue_fu_busy\":2,\"load_mem_fill\":7}}",
        ),
        (
            job(Provenance::Memory, &stalls),
            "{\"kind\":\"job\",\"run\":3,\"set\":\"dmiss+win\",\"provenance\":\"memory\",\
             \"cycles\":4567,\"wall_us\":123,\"hash\":\"0123456789abcdef\",\
             \"stalls\":{\"issue_fu_busy\":2,\"load_mem_fill\":7}}",
        ),
        (
            job(Provenance::Disk, &stalls),
            "{\"kind\":\"job\",\"run\":3,\"set\":\"dmiss+win\",\"provenance\":\"disk\",\
             \"cycles\":4567,\"wall_us\":123,\"hash\":\"0123456789abcdef\",\
             \"stalls\":{\"issue_fu_busy\":2,\"load_mem_fill\":7}}",
        ),
        // Empty stalls are omitted from the wire entirely.
        (
            job(Provenance::Computed, &[]),
            "{\"kind\":\"job\",\"run\":3,\"set\":\"dmiss+win\",\"provenance\":\"computed\",\
             \"cycles\":4567,\"wall_us\":123,\"hash\":\"0123456789abcdef\"}",
        ),
        (
            job(Provenance::Memory, &[]),
            "{\"kind\":\"job\",\"run\":3,\"set\":\"dmiss+win\",\"provenance\":\"memory\",\
             \"cycles\":4567,\"wall_us\":123,\"hash\":\"0123456789abcdef\"}",
        ),
        (
            job(Provenance::Disk, &[]),
            "{\"kind\":\"job\",\"run\":3,\"set\":\"dmiss+win\",\"provenance\":\"disk\",\
             \"cycles\":4567,\"wall_us\":123,\"hash\":\"0123456789abcdef\"}",
        ),
        (
            LedgerRecord::Calib(CalibRecord {
                sim_ctx: "00aa11bb22cc33dd".into(),
                graph_ctx: "44ee55ff66778899".into(),
                set: "dmiss+win".into(),
                graph_cost: -12,
                sim_cost: 3,
            }),
            "{\"kind\":\"calib\",\"sim_ctx\":\"00aa11bb22cc33dd\",\
             \"graph_ctx\":\"44ee55ff66778899\",\"set\":\"dmiss+win\",\
             \"graph_cost\":-12,\"sim_cost\":3}",
        ),
        (
            LedgerRecord::Plan(PlanRecord {
                run: 9,
                query: "icost(dmiss+win)".into(),
                backend: "graph".into(),
                confidence_pm: 875,
                reason: "calibrated".into(),
                trace: String::new(),
            }),
            "{\"kind\":\"plan\",\"run\":9,\"query\":\"icost(dmiss+win)\",\"backend\":\"graph\",\
             \"confidence_pm\":875,\"reason\":\"calibrated\"}",
        ),
        (
            window(
                &[("dmiss", 820), ("win", 140)],
                &[("dl1+dmiss", -42), ("dmiss+win", 64)],
            ),
            "{\"kind\":\"window\",\"run\":5,\"window\":2,\"start\":2048,\"end\":3072,\
             \"baseline\":5120,\"lag\":776,\"eval_us\":1200,\
             \"costs\":{\"dmiss\":820,\"win\":140},\
             \"pairs\":{\"dl1+dmiss\":-42,\"dmiss+win\":64}}",
        ),
        // Empty maps still render as objects so the fields always exist.
        (
            window(&[], &[]),
            "{\"kind\":\"window\",\"run\":5,\"window\":2,\"start\":2048,\"end\":3072,\
             \"baseline\":5120,\"lag\":776,\"eval_us\":1200,\"costs\":{},\"pairs\":{}}",
        ),
        (
            report(420),
            "{\"kind\":\"report\",\"run\":7,\"queries\":2,\"jobs\":5,\"deduped\":1,\
             \"cache_hits\":2,\"disk_hits\":1,\"sims_run\":1,\"cycles\":9001,\"insts\":3000,\
             \"threads\":8,\"expand_us\":40,\"sim_us\":1234,\"skipped\":420}",
        ),
        // A zero skip count still renders: the field is always present.
        (
            report(0),
            "{\"kind\":\"report\",\"run\":7,\"queries\":2,\"jobs\":5,\"deduped\":1,\
             \"cache_hits\":2,\"disk_hits\":1,\"sims_run\":1,\"cycles\":9001,\"insts\":3000,\
             \"threads\":8,\"expand_us\":40,\"sim_us\":1234,\"skipped\":0}",
        ),
        (
            audit(
                &[("dmiss", 820), ("win", 140)],
                &[("dmiss", 1400), ("win", 120)],
                &[("dmiss", -214), ("win", 31)],
            ),
            "{\"kind\":\"audit\",\"run\":11,\"scope\":\"window 3\",\"baseline\":4096,\
             \"tolerance_pm\":150,\"score_pm\":312,\"confirmed\":4,\"refuted\":1,\
             \"unmodeled\":3,\"verdict\":\"refuted\",\
             \"attributed\":{\"dmiss\":820,\"win\":140},\
             \"counters\":{\"dmiss\":1400,\"win\":120},\
             \"divergence\":{\"dmiss\":-214,\"win\":31},\
             \"evidence\":\"dmiss: attributed 31.0% vs counters 52.4%\"}",
        ),
        (
            audit(&[], &[], &[]),
            "{\"kind\":\"audit\",\"run\":11,\"scope\":\"window 3\",\"baseline\":4096,\
             \"tolerance_pm\":150,\"score_pm\":312,\"confirmed\":4,\"refuted\":1,\
             \"unmodeled\":3,\"verdict\":\"refuted\",\
             \"attributed\":{},\"counters\":{},\"divergence\":{},\
             \"evidence\":\"dmiss: attributed 31.0% vs counters 52.4%\"}",
        ),
    ]
}

/// Render, parse back, and parse with a future field prepended.
fn check(record: &LedgerRecord, line: &str) {
    assert_eq!(record.to_json_line(), line);
    assert_eq!(LedgerRecord::parse(line).as_ref(), Ok(record), "{line}");
    let extended = line.replacen('{', "{\"schema\":9,", 1);
    assert_eq!(
        LedgerRecord::parse(&extended).as_ref(),
        Ok(record),
        "{extended}"
    );
}

#[test]
fn every_kind_renders_its_golden_wire_line() {
    let golden = golden();
    let kinds: std::collections::BTreeSet<&str> = golden
        .iter()
        .map(|(_, line)| line.split('"').nth(3).expect("kind value"))
        .collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["audit", "calib", "job", "plan", "report", "run", "window"],
        "the table covers every record kind"
    );
    for (record, line) in &golden {
        // Unstamped: no trace field on the wire.
        assert_eq!(record.trace().unwrap_or(""), "", "{line}");
        check(record, line);
        // Stamped: the trace id is the last field; calib has no trace
        // field, so stamping it changes nothing.
        let mut stamped = record.clone();
        stamped.set_trace(TRACE);
        if record.trace().is_some() {
            assert_eq!(stamped.trace(), Some(TRACE));
            let traced = format!("{},\"trace\":\"{TRACE}\"}}", &line[..line.len() - 1]);
            check(&stamped, &traced);
        } else {
            assert_eq!(stamped.trace(), None);
            check(&stamped, line);
        }
    }
}

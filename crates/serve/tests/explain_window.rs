//! `POST /explain` over an instruction range and the streamed window
//! over the same range are one attribution: both audit records must
//! agree on every judged number.

use uarch_obs::ledger::{AuditRecord, LedgerRecord};
use uarch_runner::Runner;
use uarch_serve::{inst_to_json, ServeContext, ServeHost};
use uarch_trace::MachineConfig;

const N: usize = 1_000;

#[test]
fn explain_over_a_range_equals_the_streamed_window_over_it() {
    let w = uarch_workloads::generate(
        uarch_workloads::BenchProfile::by_name("mcf").expect("profile"),
        2 * N,
        2003,
    );
    let mut ctx = ServeContext::new(w.name.clone(), MachineConfig::table6(), w.trace);
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    let host = ServeHost::new(Runner::new().with_threads(1), ctx).with_audit();

    // Stream the first N instructions as one window.
    let events = uarch_obs::ledger::global().subscribe(64);
    let insts: Vec<String> = host.context().trace.insts()[..N]
        .iter()
        .map(inst_to_json)
        .collect();
    let body = format!(
        r#"{{"session":"eq","window":{N},"insts":[{}],"done":true}}"#,
        insts.join(",")
    );
    let outcome = host.handle_ingest(body.as_bytes()).expect("ingest");
    assert_eq!((outcome.ingested, outcome.windows), (N as u64, 1));
    let streamed: Vec<AuditRecord> = events
        .drain()
        .iter()
        .filter_map(|line| match LedgerRecord::parse(line) {
            Ok(LedgerRecord::Audit(a)) => Some(a),
            _ => None,
        })
        .collect();
    let [window] = streamed.as_slice() else {
        panic!("one window audit expected, got {streamed:?}");
    };
    assert_eq!(window.scope, "window 0");

    let explained = host
        .handle_explain(format!(r#"{{"start":0,"end":{N}}}"#).as_bytes())
        .expect("explain");
    let Ok(LedgerRecord::Audit(range)) = LedgerRecord::parse(explained.trim()) else {
        panic!("explain body is not an audit record: {explained}");
    };
    assert_eq!(range.scope, format!("range 0..{N}"));

    assert!(!window.divergence.is_empty(), "the range must be judged");
    assert_eq!(window.baseline, range.baseline);
    assert_eq!(window.score_pm, range.score_pm);
    assert_eq!(window.verdict, range.verdict);
    assert_eq!(window.attributed, range.attributed);
    assert_eq!(window.counters, range.counters);
    assert_eq!(window.divergence, range.divergence);
}

//! End-to-end tests of the `icost-obs` binary: real process spawns over
//! ledger files on disk, checking output shape and exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_icost-obs");

/// A two-run ledger: run 1 computes the lattice, run 2 replays it from
/// the cache (the shape `Runner::run` writes).
const LEDGER: &str = r#"{"kind":"run","run":1,"ctx":"00000000deadbeef","queries":1,"threads":8,"insts":900,"ts_ms":1700000000000}
{"kind":"job","run":1,"set":"(none)","provenance":"computed","cycles":5000,"wall_us":120,"hash":"aaaa","stalls":{"issue_fu_busy":2,"load_mem_fill":7}}
{"kind":"job","run":1,"set":"dmiss","provenance":"computed","cycles":4200,"wall_us":110,"hash":"bbbb","stalls":{"issue_fu_busy":2}}
{"kind":"run","run":2,"ctx":"00000000deadbeef","queries":1,"threads":8,"insts":900,"ts_ms":1700000000100}
{"kind":"job","run":2,"set":"(none)","provenance":"memory","cycles":5000,"wall_us":3,"hash":"aaaa"}
{"kind":"job","run":2,"set":"dmiss","provenance":"disk","cycles":4200,"wall_us":9,"hash":"bbbb"}
"#;

/// Same workload gone bad: more sims, more cycles, a flipped hash.
const WORSE: &str = r#"{"kind":"run","run":1,"ctx":"00000000deadbeef","queries":1,"threads":4,"insts":900,"ts_ms":1700000001000}
{"kind":"job","run":1,"set":"(none)","provenance":"computed","cycles":9000,"wall_us":500,"hash":"aaaa"}
{"kind":"job","run":1,"set":"dmiss","provenance":"computed","cycles":8000,"wall_us":400,"hash":"cccc"}
{"kind":"job","run":1,"set":"win","provenance":"computed","cycles":7000,"wall_us":300,"hash":"dddd"}
"#;

fn write_fixture(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icost-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn icost-obs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn summarize_renders_table_and_json() {
    let ledger = write_fixture("summarize.jsonl", LEDGER);
    let out = run(&["summarize", ledger.to_str().unwrap()]);
    assert!(out.status.success());
    let table = stdout(&out);
    for key in [
        "runs",
        "jobs",
        "sims_computed",
        "reuse_pct",
        "issue_fu_busy",
    ] {
        assert!(table.contains(key), "missing {key} in:\n{table}");
    }

    let out = run(&["summarize", "--json", ledger.to_str().unwrap()]);
    assert!(out.status.success());
    let doc = uarch_obs::json::parse(stdout(&out).trim()).expect("valid JSON");
    assert_eq!(doc.get("runs").and_then(|v| v.as_num()), Some(2.0));
    assert_eq!(doc.get("jobs").and_then(|v| v.as_num()), Some(4.0));
    assert_eq!(doc.get("sims_computed").and_then(|v| v.as_num()), Some(2.0));
    assert_eq!(doc.get("cycles").and_then(|v| v.as_num()), Some(9200.0));
    assert_eq!(doc.get("reuse_pct").and_then(|v| v.as_num()), Some(50.0));
}

#[test]
fn self_diff_is_deterministically_clean() {
    let ledger = write_fixture("self.jsonl", LEDGER);
    let path = ledger.to_str().unwrap();
    let first = run(&["diff", path, path]);
    let second = run(&["diff", path, path]);
    assert!(first.status.success(), "self-diff must exit 0");
    assert_eq!(stdout(&first), stdout(&second), "diff output deterministic");
    assert!(stdout(&first).contains("all matching sets agree"));

    let json = run(&["diff", "--json", path, path]);
    let doc = uarch_obs::json::parse(stdout(&json).trim()).expect("valid JSON");
    assert_eq!(doc.get("regressions").and_then(|v| v.as_num()), Some(0.0));
}

#[test]
fn diff_exits_nonzero_on_regression_and_tolerance_forgives() {
    let base = write_fixture("base.jsonl", LEDGER);
    let worse = write_fixture("worse.jsonl", WORSE);
    let out = run(&["diff", base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "regressions must exit 1");
    let table = stdout(&out);
    assert!(
        table.contains("REGRESSION"),
        "table flags regressions:\n{table}"
    );
    assert!(
        table.contains("MISMATCH for set dmiss"),
        "hash flip surfaces:\n{table}"
    );

    // A huge tolerance forgives the metric deltas, but a flipped result
    // hash in the same context is never forgivable.
    let out = run(&[
        "diff",
        "--tolerance",
        "100",
        "--wall-tolerance",
        "100",
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!stdout(&out).contains("REGRESSION"));
    assert!(stdout(&out).contains("MISMATCH"));
}

/// A ledger written by a (hypothetical) newer build: a record kind this
/// build has never heard of, plus an extra field on a known kind. Both
/// must be tolerated — version skew between the process that wrote the
/// ledger and the CLI that audits it must not fail the regression gate.
const FUTURE: &str = r#"{"kind":"run","run":1,"ctx":"00000000deadbeef","queries":1,"threads":8,"insts":900,"ts_ms":1700000000000,"schema":9}
{"kind":"job","run":1,"set":"(none)","provenance":"computed","cycles":5000,"wall_us":120,"hash":"aaaa","stalls":{"issue_fu_busy":2,"load_mem_fill":7}}
{"kind":"job","run":1,"set":"dmiss","provenance":"computed","cycles":4200,"wall_us":110,"hash":"bbbb","stalls":{"issue_fu_busy":2}}
{"kind":"hologram","run":1,"payload":"from the future"}
{"kind":"run","run":2,"ctx":"00000000deadbeef","queries":1,"threads":8,"insts":900,"ts_ms":1700000000100}
{"kind":"job","run":2,"set":"(none)","provenance":"memory","cycles":5000,"wall_us":3,"hash":"aaaa"}
{"kind":"job","run":2,"set":"dmiss","provenance":"disk","cycles":4200,"wall_us":9,"hash":"bbbb"}
"#;

#[test]
fn diff_and_summarize_tolerate_future_record_kinds() {
    let base = write_fixture("skew-base.jsonl", LEDGER);
    let future = write_fixture("skew-new.jsonl", FUTURE);
    // Same runs/jobs plus an unknown record and an unknown field: the
    // diff must treat them as equivalent and exit 0, not 2.
    let out = run(&["diff", base.to_str().unwrap(), future.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("skipped 1 record"),
        "skips are reported, not silent"
    );
    let out = run(&["summarize", future.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("runs"));
}

#[test]
fn plan_subcommand_reports_routing_and_calibration() {
    let ledger = write_fixture(
        "plan.jsonl",
        r#"{"kind":"calib","sim_ctx":"00000000deadbeef","graph_ctx":"00000000feedface","set":"dmiss","graph_cost":100,"sim_cost":93}
{"kind":"calib","sim_ctx":"00000000deadbeef","graph_ctx":"00000000feedface","set":"win","graph_cost":50,"sim_cost":48}
{"kind":"plan","run":1,"query":"cost(dmiss)","backend":"sim","confidence_pm":1000,"reason":"uncalibrated"}
{"kind":"plan","run":1,"query":"icost(dmiss+win)","backend":"graph","confidence_pm":905,"reason":"trusted"}
{"kind":"plan","run":2,"query":"cost(dmiss)","backend":"cache","confidence_pm":1000,"reason":"cache_complete"}
"#,
    );
    let out = run(&["plan", ledger.to_str().unwrap()]);
    assert!(out.status.success());
    let table = stdout(&out);
    for needle in [
        "plan_answers",
        "via cache",
        "via graph",
        "via sim",
        "reason trusted",
        "calib_records",
        "samples=2",
    ] {
        assert!(table.contains(needle), "missing {needle} in:\n{table}");
    }

    let out = run(&["plan", "--json", ledger.to_str().unwrap()]);
    assert!(out.status.success());
    let doc = uarch_obs::json::parse(stdout(&out).trim()).expect("valid JSON");
    assert_eq!(doc.get("answers").and_then(|v| v.as_num()), Some(3.0));
    assert_eq!(doc.get("calib_records").and_then(|v| v.as_num()), Some(2.0));
    let contexts = doc.get("contexts").and_then(|v| v.as_arr()).expect("arr");
    assert_eq!(contexts.len(), 1);
    assert_eq!(
        contexts[0].get("samples").and_then(|v| v.as_num()),
        Some(2.0)
    );
}

#[test]
fn bad_usage_and_bad_input_exit_two() {
    let out = run(&["diff", "/nonexistent/a.jsonl", "/nonexistent/b.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["summarize"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let garbled = write_fixture("garbled.jsonl", "{\"kind\":\"job\"\n");
    let out = run(&["summarize", garbled.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let help = run(&["--help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("summarize"));
    assert!(
        !stdout(&help).contains("bench-export"),
        "subcommand retired"
    );
}

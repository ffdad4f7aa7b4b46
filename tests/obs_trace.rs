//! End-to-end trace contract: running an analysis through the runner with
//! the global tracer enabled yields a valid Chrome trace-event document
//! whose spans are balanced per thread and properly nested, with counter
//! tracks, written to the file the environment names and foldable into
//! flamegraph stacks.
//!
//! This lives in its own integration-test binary because [`install_global`]
//! claims the process-wide tracer: the first instrumented call in the
//! process freezes it.

use uarch_obs::{install_global, Tracer};
use uarch_runner::{Query, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

fn kernel() -> uarch_trace::Trace {
    let mut b = TraceBuilder::new();
    for k in 0..40u64 {
        b.load(Reg::int(1), 0x10_0000 + k * 4096);
        b.alu(Reg::int(2), &[Reg::int(1)]);
    }
    b.finish()
}

#[test]
fn runner_trace_is_valid_balanced_and_nested() {
    let tracer = Tracer::enabled();
    assert!(
        install_global(tracer.clone()),
        "this test must own the global tracer (run in its own process)"
    );

    let cfg = MachineConfig::table6();
    let t = kernel();
    let d = EventSet::single(EventClass::Dmiss);
    let w = EventSet::single(EventClass::Win);
    let runner = Runner::new().with_threads(2);
    let (_, report) = runner.run(&cfg, &t, &[Query::Icost(d.union(w))]);
    assert_eq!(report.sims_run, 4, "the 2x2 lattice simulates 4 sets");

    // 1. The export is a valid Chrome trace-event JSON document.
    let json = tracer.export_json();
    let doc = uarch_obs::json::parse(&json).expect("export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(field).is_some(), "event missing {field}: {ev:?}");
        }
    }

    // 2. Begin/end events form a balanced stack on every thread, with
    //    matching names (RAII guards make any imbalance a bug).
    let recorded = tracer.events();
    let mut stacks: std::collections::HashMap<u64, Vec<&str>> = Default::default();
    for ev in &recorded {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase {
            'B' => stack.push(ev.name.as_ref()),
            'E' => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("E '{}' on tid {} with no open span", ev.name, ev.tid)
                });
                assert_eq!(open, ev.name.as_ref(), "mismatched E on tid {}", ev.tid);
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }

    // 3. The parallel wave nests inside the run span: when its B event is
    //    recorded, "runner.run" is an open ancestor on the same thread.
    let mut saw_wave = false;
    let mut open: std::collections::HashMap<u64, Vec<&str>> = Default::default();
    for ev in &recorded {
        let stack = open.entry(ev.tid).or_default();
        match ev.phase {
            'B' => {
                if ev.name == "wave" {
                    saw_wave = true;
                    assert!(
                        stack.contains(&"runner.run"),
                        "wave began outside runner.run: open = {stack:?}"
                    );
                }
                stack.push(ev.name.as_ref());
            }
            'E' => {
                stack.pop();
            }
            _ => {}
        }
    }
    assert!(saw_wave, "the run recorded no wave span");

    // The simulation spans are there too (on worker threads or inline).
    assert!(recorded.iter().any(|e| e.name == "sim" && e.phase == 'B'));
    assert!(recorded
        .iter()
        .any(|e| e.name == "worker" || e.name == "job"));

    // 4. The runner's counter sampler leaves counter tracks, and the
    //    trace file the environment names parses and folds into
    //    flamegraph stacks under the run span.
    assert!(recorded.iter().any(|e| e.phase == 'C'), "no counter track");
    let path = std::env::temp_dir().join(format!("icost-obs-trace-{}.json", std::process::id()));
    std::env::set_var(uarch_obs::TRACE_FILE_ENV, &path);
    assert_eq!(uarch_obs::flush_global().unwrap(), Some(path.clone()));
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    uarch_obs::json::parse(&text).expect("trace file parses as JSON");
    let folded = uarch_obs::Profile::from_chrome_json(&text).expect("trace folds");
    assert!(folded.render().contains("runner.run"));
}

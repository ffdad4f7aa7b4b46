//! Differential equivalence suite for the two run loops: over every
//! Table 6 benchmark profile, random idealization subsets, and warmed or
//! cold machine state, the discrete-event engine must produce a
//! **bit-identical** [`SimResult`] — cycles, per-instruction records,
//! event counts, and per-cause stall counters — to the cycle-ticking
//! reference engine. This is the pin that lets every downstream layer
//! (runner, planner, streaming windows, audits) adopt the fast engine
//! without re-validating a single answer.
//!
//! Warmed runs also check [`Simulator::run_from`]: one warm state,
//! shared by runs of different sets, gives what warming fresh gives.
//!
//! Also here: stall-accounting invariants that hold for *any* trace on
//! either engine, which pin the bulk-attribution rewrite (per-cycle
//! causes can never exceed total cycles; non-overlapped fill charges can
//! never double-count past `fill_charged_until`).

use proptest::prelude::*;
use uarch_sim::{EngineMode, Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder};
use uarch_workloads::{generate, BenchProfile};

/// Assert full bit-identity of the architectural result (everything but
/// the run-loop telemetry, which is *supposed* to differ).
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles diverge");
    assert_eq!(a.counts, b.counts, "{what}: event counts diverge");
    assert_eq!(a.stalls, b.stalls, "{what}: stall counters diverge");
    assert_eq!(a.records.len(), b.records.len(), "{what}: record counts");
    for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
        assert_eq!(ra, rb, "{what}: record {i} diverges");
    }
}

/// Run both engines on the same workload and check bit-identity plus the
/// structural invariants; returns the (shared) result for extra checks.
fn check_equiv(
    cfg: &MachineConfig,
    trace: &Trace,
    ideal: Idealization,
    warm: Option<(&[u64], &[u64])>,
    what: &str,
) -> SimResult {
    let sim = Simulator::new(cfg);
    let (ticking, events) = match warm {
        Some((wd, wc)) => (
            sim.run_warmed_with_mode(trace, ideal, wd, wc, EngineMode::Ticking),
            sim.run_warmed_with_mode(trace, ideal, wd, wc, EngineMode::Events),
        ),
        None => (
            sim.run_with_mode(trace, ideal, EngineMode::Ticking),
            sim.run_with_mode(trace, ideal, EngineMode::Events),
        ),
    };
    assert_identical(&ticking, &events, what);
    ticking.check_invariants(trace).expect("invariants");
    // The event engine never *adds* work: ticked + skipped cycles must
    // re-compose to exactly the cycles the reference engine ticked.
    assert_eq!(
        events.engine.ticked_cycles + events.engine.skipped_cycles,
        ticking.engine.ticked_cycles,
        "{what}: ticked+skipped != reference cycle count"
    );
    assert_stall_invariants(&ticking, what);
    ticking
}

/// The stall-accounting invariants (satellite): for any run,
/// - each per-cycle cause is charged at most once per cycle, so no
///   per-cycle category (and no per-stage sum of mutually exclusive
///   causes) can exceed total cycles;
/// - load-fill charges are non-overlapped across outstanding misses
///   (`fill_charged_until`), so their sum is also bounded by cycles.
fn assert_stall_invariants(r: &SimResult, what: &str) {
    let s = &r.stalls;
    let fetch_sum = s.fetch_bmisp_recovery
        + s.fetch_imiss_l2_fill
        + s.fetch_imiss_mem_fill
        + s.fetch_queue_full;
    assert!(
        fetch_sum <= r.cycles,
        "{what}: fetch stalls {fetch_sum} > cycles {}",
        r.cycles
    );
    assert!(
        s.dispatch_window_full <= r.cycles,
        "{what}: dispatch_window_full {} > cycles {}",
        s.dispatch_window_full,
        r.cycles
    );
    let commit_sum = s.commit_rob_empty + s.commit_head_wait;
    assert!(
        commit_sum <= r.cycles,
        "{what}: commit stalls {commit_sum} > cycles {}",
        r.cycles
    );
    let fill_sum = s.load_l2_fill + s.load_mem_fill;
    assert!(
        fill_sum <= r.cycles,
        "{what}: non-overlapped fill charges {fill_sum} > cycles {} (double-count past fill_charged_until?)",
        r.cycles
    );
}

/// Decode a byte into an idealization subset (bit i → EventClass::ALL[i]).
fn ideal_from_bits(bits: u8) -> Idealization {
    let set: EventSet = EventClass::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0)
        .map(|(_, c)| *c)
        .collect();
    Idealization::from(set)
}

proptest! {
    /// The core differential pin: random profile × idealization subset ×
    /// warmed/cold × trace length, old engine vs new engine.
    #[test]
    fn engines_bit_identical_across_profiles(
        profile_idx in 0usize..12,
        bits in 0u8..=255,
        warmed in any::<bool>(),
        n in 150usize..600,
        seed in 1u64..64,
    ) {
        let profiles = BenchProfile::suite();
        prop_assert_eq!(profiles.len(), 12, "Table 6 suite must stay 12 profiles");
        let p = &profiles[profile_idx];
        let w = generate(p, n, seed);
        let cfg = MachineConfig::table6();
        let warm = warmed.then_some((w.warm_data.as_slice(), w.warm_code.as_slice()));
        let what = format!("{} n={n} bits={bits:08b} warmed={warmed}", p.name);
        let reference = check_equiv(&cfg, &w.trace, ideal_from_bits(bits), warm, &what);
        if warmed {
            // One warm state serves every set: runs from it match
            // freshly warmed runs, the second after the first used it.
            let sim = Simulator::new(&cfg);
            let state = sim.warm(&w.warm_data, &w.warm_code);
            let other = sim.run_from(&w.trace, ideal_from_bits(!bits), &state);
            let fresh =
                sim.run_warmed(&w.trace, ideal_from_bits(!bits), &w.warm_data, &w.warm_code);
            assert_identical(&other, &fresh, &format!("{what} run_from !bits"));
            let shared = sim.run_from(&w.trace, ideal_from_bits(bits), &state);
            assert_identical(&shared, &reference, &format!("{what} run_from reused"));
        }
    }

    /// Stall invariants on arbitrary hand-built traces (not just the
    /// generator's output): load/ALU/branch soup with pathological
    /// pointer chases mixed in.
    #[test]
    fn stall_accounting_invariants_hold(
        n in 1usize..220,
        stride in 1u64..9,
        chase in any::<bool>(),
        bits in 0u8..=255,
    ) {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        for k in 0..n as u64 {
            match k % 5 {
                0 => {
                    if chase {
                        b.load_indexed(r1, r1, 0x40_0000 + (k % 4) * 8);
                    } else {
                        b.load(r1, 0x40_0000 + k * stride * 64);
                    }
                }
                1 => { b.alu(Reg::int(2), &[r1]); }
                2 => { b.store(Reg::int(2), 0x8000 + (k * 8) % 4096); }
                3 => { b.branch(Reg::int(2), k % 3 == 0, b.pc() + 32); }
                _ => { b.alu(Reg::int(3), &[]); }
            }
        }
        let t = b.finish();
        let cfg = MachineConfig::table6();
        check_equiv(&cfg, &t, ideal_from_bits(bits), None, "soup");
    }
}

/// The memory-bound shape the scheduler exists for: long pointer chases
/// through memory leave the machine fully stalled for hundreds of cycles
/// per miss. The event engine must (a) stay bit-identical and (b)
/// actually skip the overwhelming majority of cycles here.
#[test]
fn memory_bound_chase_skips_most_cycles() {
    let w = generate(BenchProfile::by_name("mcf").expect("mcf profile"), 4_000, 7);
    let cfg = MachineConfig::table6();
    let r = check_equiv(
        &cfg,
        &w.trace,
        Idealization::none(),
        Some((&w.warm_data, &w.warm_code)),
        "mcf",
    );
    let sim = Simulator::new(&cfg);
    let ev = sim.run_warmed_with_mode(
        &w.trace,
        Idealization::none(),
        &w.warm_data,
        &w.warm_code,
        EngineMode::Events,
    );
    assert!(
        ev.engine.skipped_cycles * 2 > r.cycles,
        "memory-bound run skipped only {} of {} cycles",
        ev.engine.skipped_cycles,
        r.cycles
    );
    assert!(ev.engine.idle_spans > 0);
}

/// One [`uarch_sim::WarmState`] reused across all 37 breakdown sets
/// gives what warming fresh for each set gives: a run never mutates
/// the shared state.
#[test]
fn one_warm_state_serves_every_breakdown_set() {
    let w = generate(BenchProfile::by_name("gcc").expect("gcc profile"), 400, 5);
    let cfg = MachineConfig::table6();
    let sim = Simulator::new(&cfg);
    let state = sim.warm(&w.warm_data, &w.warm_code);
    let mut sets = vec![EventSet::EMPTY];
    sets.extend(EventClass::ALL.iter().map(|&c| EventSet::single(c)));
    for (i, &a) in EventClass::ALL.iter().enumerate() {
        for &b in &EventClass::ALL[i + 1..] {
            sets.push(EventSet::single(a).with(b));
        }
    }
    assert_eq!(sets.len(), 37);
    for set in sets {
        let ideal = Idealization::from(set);
        let shared = sim.run_from(&w.trace, ideal, &state);
        let fresh = sim.run_warmed(&w.trace, ideal, &w.warm_data, &w.warm_code);
        assert_identical(&shared, &fresh, &format!("shared warm state, set {set}"));
    }
}

/// Config-perturbed equivalence: the Section 4 tutorial knobs (slower
/// L1, two-cycle wakeup) change where idle spans fall; the engines must
/// still agree.
#[test]
fn engines_agree_under_tutorial_configs() {
    let w = generate(BenchProfile::by_name("gcc").expect("gcc profile"), 2_000, 3);
    for cfg in [
        MachineConfig::table6().with_dl1_latency(4),
        MachineConfig::table6().with_issue_wakeup(2),
    ] {
        check_equiv(
            &cfg,
            &w.trace,
            Idealization::none(),
            Some((&w.warm_data, &w.warm_code)),
            "tutorial config",
        );
    }
}

/// The ticking engine never skips; the event engine reports what it
/// skipped. (Telemetry contract, not bit-identity.)
#[test]
fn engine_stats_reflect_mode() {
    let mut b = TraceBuilder::new();
    b.load(Reg::int(1), 0x80_0000);
    b.alu(Reg::int(2), &[Reg::int(1)]);
    let t = b.finish();
    let cfg = MachineConfig::table6();
    let sim = Simulator::new(&cfg);
    let tick = sim.run_with_mode(&t, Idealization::none(), EngineMode::Ticking);
    let ev = sim.run_with_mode(&t, Idealization::none(), EngineMode::Events);
    assert_eq!(tick.engine.skipped_cycles, 0);
    assert_eq!(tick.engine.idle_spans, 0);
    assert_eq!(tick.engine.ticked_cycles, tick.cycles + 1);
    assert!(ev.engine.skipped_cycles > 0, "cold memory miss must skip");
    assert!(ev.engine.ticked_cycles < tick.engine.ticked_cycles);
}

//! Pinned full-result digests: every profile, every breakdown set.
//!
//! `engine_equiv` compares the two run loops of one engine with each
//! other, and ledger hashes cover only `(set, cycles)`. This suite
//! compares the engine with *itself over time*: it folds each run's
//! cycles, every [`ExecRecord`] field, the event counts and the stall
//! counters through [`StableHasher`], and checks the digests against
//! values recorded from an earlier engine. A rewrite of the engine's
//! internals (queues, allocation, warm-up) must leave them untouched.
//!
//! Coverage: the 12 Table 6 profiles × the 37 sets of a breakdown (∅,
//! 8 singletons, 28 pairs) × warmed and cold, at 1,500 instructions;
//! plus the tutorial configurations (slower L1, two-cycle wakeup,
//! longer mispredict loop, smaller and larger windows) on two profiles.
//! Run-loop telemetry ([`SimResult::engine`]) is not part of a result
//! and is left out.

use std::hash::Hasher;

use uarch_sim::{ExecRecord, Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, StableHasher};
use uarch_workloads::{generate, BenchProfile, Workload};

const INSTS: usize = 1_500;
const SEED: u64 = 11;

/// Fold one record; destructured so a new field fails to compile here.
fn fold_record(h: &mut StableHasher, r: &ExecRecord) {
    let ExecRecord {
        fetch,
        dispatch,
        ready,
        exec,
        complete,
        commit,
        icache_extra,
        icache_level,
        itlb_miss,
        mispredicted,
        exec_latency,
        re_delay,
        dcache_level,
        dtlb_miss,
        src_producers,
        wakeup_bubble,
        pp_producer,
    } = *r;
    for v in [
        fetch,
        dispatch,
        ready,
        exec,
        complete,
        commit,
        icache_extra,
        exec_latency,
        re_delay,
    ] {
        h.write_u64(v);
    }
    for level in [icache_level, dcache_level] {
        h.write_u8(level as u8);
    }
    for flag in [itlb_miss, mispredicted, dtlb_miss] {
        h.write_u8(flag as u8);
    }
    for p in src_producers.into_iter().chain([pp_producer]) {
        h.write_u64(p.map_or(u64::MAX, u64::from));
    }
    for b in wakeup_bubble {
        h.write_u64(b);
    }
}

/// Digest of everything architectural in one result.
fn digest(r: &SimResult) -> u64 {
    let mut h = StableHasher::default();
    h.write_u64(r.cycles);
    h.write_usize(r.records.len());
    for rec in &r.records {
        fold_record(&mut h, rec);
    }
    let c = r.counts;
    for v in [
        c.cond_branches,
        c.mispredicts,
        c.loads,
        c.l1d_load_misses,
        c.mem_load_misses,
        c.merged_loads,
        c.l1i_misses,
        c.dtlb_misses,
        c.itlb_misses,
    ] {
        h.write_u64(v);
    }
    for (_, v) in r.stalls.rows() {
        h.write_u64(v);
    }
    h.finish()
}

/// The 37 sets one breakdown simulates: ∅, the singletons, the pairs.
fn breakdown_sets() -> Vec<EventSet> {
    let mut sets = vec![EventSet::EMPTY];
    sets.extend(EventClass::ALL.iter().map(|&c| EventSet::single(c)));
    for (i, &a) in EventClass::ALL.iter().enumerate() {
        for &b in &EventClass::ALL[i + 1..] {
            sets.push(EventSet::single(a).with(b));
        }
    }
    sets
}

/// One digest over all 37 breakdown sets of `w` under `cfg`.
fn breakdown_digest(cfg: &MachineConfig, w: &Workload, warmed: bool) -> u64 {
    let sim = Simulator::new(cfg);
    let mut h = StableHasher::default();
    for set in breakdown_sets() {
        let ideal = Idealization::from(set);
        let r = if warmed {
            sim.run_warmed(&w.trace, ideal, &w.warm_data, &w.warm_code)
        } else {
            sim.run(&w.trace, ideal)
        };
        assert_eq!(r.records.len(), w.trace.len());
        h.write_u64(digest(&r));
    }
    h.finish()
}

/// Compare computed digests with the pinned ones; on a mismatch, print
/// the whole computed table so the cause can be bisected.
fn check(label: &str, pinned: &[(&str, u64)], computed: &[(String, u64)]) {
    let wrong: Vec<&str> = pinned
        .iter()
        .zip(computed)
        .filter(|((_, want), (_, got))| want != got)
        .map(|((name, _), _)| *name)
        .collect();
    if wrong.is_empty() && pinned.len() == computed.len() {
        return;
    }
    for (name, got) in computed {
        eprintln!("    (\"{name}\", 0x{got:016x}),");
    }
    panic!("{label}: digests changed for {wrong:?}");
}

/// Per-profile digests: `<profile>/warm` and `<profile>/cold`.
const PROFILE_DIGESTS: &[(&str, u64)] = &[
    ("bzip/warm", 0xf06289543ceadadf),
    ("bzip/cold", 0xfe71e24eb916e1b5),
    ("crafty/warm", 0x46d5ef2046961d05),
    ("crafty/cold", 0xdbc978125d99c99d),
    ("eon/warm", 0x3d440f851c899202),
    ("eon/cold", 0x2338d62c43f44cfc),
    ("gap/warm", 0x9c12af2bd658f65f),
    ("gap/cold", 0x3d4f1ce5b14738d6),
    ("gcc/warm", 0x1b9ef2ccc66d12b5),
    ("gcc/cold", 0x080f0b58889b985b),
    ("gzip/warm", 0x0bf64d5402fe4b42),
    ("gzip/cold", 0xfe49c390c6e3ebf0),
    ("mcf/warm", 0xc41076eb4d2eb518),
    ("mcf/cold", 0xf2cd51da46917ccd),
    ("parser/warm", 0xf3fddbce6a5385b5),
    ("parser/cold", 0x356c7ba488f5d189),
    ("perl/warm", 0x6894825a8a791348),
    ("perl/cold", 0xd5d196c98153dc3a),
    ("twolf/warm", 0xcadb49db8dccdd98),
    ("twolf/cold", 0xb6d45ed97446e888),
    ("vortex/warm", 0x2ef0611fc846f114),
    ("vortex/cold", 0x0988c50407df5af7),
    ("vpr/warm", 0xfc018b2d46dfc30e),
    ("vpr/cold", 0x158fed5717df3466),
];

/// Tutorial-configuration digests, warmed, on gcc and mcf.
const CONFIG_DIGESTS: &[(&str, u64)] = &[
    ("gcc/dl1_4", 0x775b4a86a7718d39),
    ("gcc/wakeup_2", 0x37fb833921cac5e5),
    ("gcc/misp_15", 0xa12e71d8be99ce27),
    ("gcc/window_48", 0x2d04982911475844),
    ("gcc/window_256", 0xb617d46c107a3e75),
    ("mcf/dl1_4", 0x6e494a74635da5f2),
    ("mcf/wakeup_2", 0x8d159b6bebb4024f),
    ("mcf/misp_15", 0xd2a2f86335fee348),
    ("mcf/window_48", 0x03821b7096c3b25d),
    ("mcf/window_256", 0xc43ef2bb914e9272),
];

#[test]
fn profile_digests_are_pinned() {
    let cfg = MachineConfig::table6();
    let mut computed = Vec::new();
    for p in BenchProfile::suite() {
        let w = generate(p, INSTS, SEED);
        for warmed in [true, false] {
            let tag = if warmed { "warm" } else { "cold" };
            computed.push((
                format!("{}/{tag}", p.name),
                breakdown_digest(&cfg, &w, warmed),
            ));
        }
    }
    assert_eq!(computed.len(), 24, "12 profiles x warmed/cold");
    check("profiles", PROFILE_DIGESTS, &computed);
}

#[test]
fn tutorial_config_digests_are_pinned() {
    let configs = [
        ("dl1_4", MachineConfig::table6().with_dl1_latency(4)),
        ("wakeup_2", MachineConfig::table6().with_issue_wakeup(2)),
        ("misp_15", MachineConfig::table6().with_misp_loop(15)),
        ("window_48", MachineConfig::table6().with_window(48)),
        ("window_256", MachineConfig::table6().with_window(256)),
    ];
    let mut computed = Vec::new();
    for name in ["gcc", "mcf"] {
        let w = generate(
            BenchProfile::by_name(name).expect("suite profile"),
            INSTS,
            SEED,
        );
        for (tag, cfg) in &configs {
            computed.push((format!("{name}/{tag}"), breakdown_digest(cfg, &w, true)));
        }
    }
    check("tutorial configs", CONFIG_DIGESTS, &computed);
}

//! The cycle-level out-of-order execution engine.
//!
//! Trace-driven model of the Table 6 machine. Each cycle runs, in order:
//! event delivery (operand wakeups), commit, an issue fixpoint (so that
//! zero-latency idealized chains can collapse within a cycle), dispatch,
//! and fetch. All per-instruction timestamps are recorded in
//! [`ExecRecord`]s for the dependence-graph model.
//!
//! One run loop drives those stages, in one of two modes:
//!
//! - **Ticking** ([`EngineMode::Ticking`]): run every stage every cycle,
//!   `t += 1` — the original engine, kept as the differential-testing
//!   reference. It is the events mode with idle-span skipping off, so
//!   the two cannot drift apart.
//! - **Events** ([`EngineMode::Events`], the default): when a cycle makes
//!   no progress (nothing delivered, committed, issued, dispatched, or
//!   fetched, and no fetch-side state changed), every following cycle
//!   behaves identically until the earliest *future event* — the next
//!   operand-ready wakeup, the earliest functional-unit free time a ready
//!   instruction waits on, the ROB head's `complete + complete_to_commit`,
//!   the fetch-queue front maturing past the front-end depth, an I-line
//!   fill completing, or a misprediction redirect. The loop therefore
//!   charges the span's stall cycles in bulk (the idle cycle's per-cause
//!   stall delta times the span length) and jumps `t` straight to the
//!   event. Results are bit-identical to ticking by construction; only
//!   [`SimResult::engine`] telemetry differs.
//!
//! Per-run and per-instruction costs are kept flat:
//!
//! - **Warm state.** [`Simulator::warm`] touches the warm address sets
//!   once and returns a [`WarmState`]; [`Simulator::run_from`] starts a
//!   run from a copy of it. Warming does not depend on the idealization,
//!   so every set of a breakdown shares one warm-up.
//! - **Wakeup wheel.** Pending operand wakeups live in cycle buckets
//!   (cycle mod a power of two sized from the configuration's longest
//!   latency), threaded through a per-window-slot next array, with an
//!   occupancy bitmap whose first set bit after `t` is the next wakeup.
//! - **Ready ring.** Ready instructions are bits in a ring over window
//!   slots; oldest-first issue order is bit order from `next_commit`'s
//!   slot.
//! - **Records at fetch.** Fetch runs in program order, so each
//!   [`ExecRecord`] is pushed when its instruction is fetched.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::branch::BranchPredictor;
use crate::cache::{MemSystem, MissLevel};
use crate::ideal::Idealization;
use crate::record::{EngineStats, EventCounts, ExecRecord, PipelineStalls, SimResult};
use uarch_trace::{FuClass, Inst, MachineConfig, OpClass, Reg, Trace};

/// A very large width standing in for "infinite bandwidth" (paper Table 1).
const INFINITE: usize = 1 << 24;

/// List terminator for the wakeup-edge arena ([`Engine::waiter_head`])
/// and the wakeup wheel's bucket lists ([`Engine::wheel_head`]).
const EDGE_NONE: u32 = u32::MAX;

/// FxHash-style multiply-rotate hasher for the outstanding-miss map.
/// The keys are line addresses inside a simulator (no untrusted input,
/// no DoS surface), where SipHash's per-load cost is pure overhead.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// How the run loop advances time. Both modes produce bit-identical
/// [`SimResult`]s (cycles, records, counts, stalls); the event-driven
/// mode skips idle cycles instead of ticking through them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// Tick the five stage functions every cycle (reference engine).
    Ticking,
    /// Jump over idle cycles with next-event computation (default).
    #[default]
    Events,
}

/// A memory system warmed for one simulation context: the caches and
/// TLBs after [`Simulator::warm`]. Runs start from a copy of it.
#[derive(Debug, Clone)]
pub struct WarmState {
    config: MachineConfig,
    mem: MemSystem,
}

/// The simulator: construct once per machine configuration, run per trace.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    config: &'a MachineConfig,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `config`.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(config: &'a MachineConfig) -> Simulator<'a> {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid machine configuration: {e}"));
        Simulator { config }
    }

    /// Run `trace` to completion under `ideal`, returning timing and
    /// per-instruction records, on the discrete-event run loop.
    pub fn run(&self, trace: &Trace, ideal: Idealization) -> SimResult {
        self.run_with_mode(trace, ideal, EngineMode::Events)
    }

    /// [`Simulator::run`] under an explicit run loop (differential
    /// testing: run both modes, assert bit-identical results).
    pub fn run_with_mode(&self, trace: &Trace, ideal: Idealization, mode: EngineMode) -> SimResult {
        Engine::new(self.config, trace, ideal, MemSystem::new(self.config)).run(mode)
    }

    /// Warm a fresh memory system: every address in `warm_data` is
    /// touched on the data side, then every address in `warm_code` on
    /// the instruction side. Warming does not depend on the
    /// idealization, so one [`WarmState`] serves every run of a context
    /// ([`Simulator::run_from`]).
    pub fn warm(&self, warm_data: &[u64], warm_code: &[u64]) -> WarmState {
        let mut mem = MemSystem::new(self.config);
        for &a in warm_data {
            mem.data_access(a);
        }
        for &a in warm_code {
            mem.inst_access(a);
        }
        WarmState {
            config: self.config.clone(),
            mem,
        }
    }

    /// Run `trace` under `ideal`, starting from a copy of `warm`. The
    /// state itself is never modified, so it can be shared by any
    /// number of runs, on any number of threads.
    ///
    /// # Panics
    /// Panics if `warm` was made for a different configuration.
    pub fn run_from(&self, trace: &Trace, ideal: Idealization, warm: &WarmState) -> SimResult {
        assert!(
            warm.config == *self.config,
            "warm state belongs to a different machine configuration"
        );
        Engine::new(self.config, trace, ideal, warm.mem.clone()).run(EngineMode::Events)
    }

    /// Run with pre-warmed caches and TLBs ([`Simulator::warm`], then
    /// the run). This models measuring a steady-state window of a
    /// long-running program (the paper skips eight billion instructions
    /// before its measurement window). Callers that run one context
    /// under several idealizations should warm once and use
    /// [`Simulator::run_from`].
    pub fn run_warmed(
        &self,
        trace: &Trace,
        ideal: Idealization,
        warm_data: &[u64],
        warm_code: &[u64],
    ) -> SimResult {
        self.run_warmed_with_mode(trace, ideal, warm_data, warm_code, EngineMode::Events)
    }

    /// [`Simulator::run_warmed`] under an explicit run loop.
    pub fn run_warmed_with_mode(
        &self,
        trace: &Trace,
        ideal: Idealization,
        warm_data: &[u64],
        warm_code: &[u64],
        mode: EngineMode,
    ) -> SimResult {
        // The state is used once, so it moves into the engine uncopied.
        let warm = self.warm(warm_data, warm_code);
        Engine::new(self.config, trace, ideal, warm.mem).run(mode)
    }

    /// Convenience: run and return only the cycle count.
    pub fn cycles(&self, trace: &Trace, ideal: Idealization) -> u64 {
        self.run(trace, ideal).cycles
    }

    /// Convenience: warmed run returning only the cycle count.
    pub fn cycles_warmed(
        &self,
        trace: &Trace,
        ideal: Idealization,
        warm_data: &[u64],
        warm_code: &[u64],
    ) -> u64 {
        self.run_warmed(trace, ideal, warm_data, warm_code).cycles
    }
}

fn fu_class(op: OpClass) -> FuClass {
    match op {
        OpClass::IntAlu
        | OpClass::Nop
        | OpClass::CondBranch
        | OpClass::Jump
        | OpClass::Call
        | OpClass::Return
        | OpClass::IndirectJump => FuClass::IntAlu,
        OpClass::IntMult => FuClass::IntMult,
        OpClass::FpAlu => FuClass::FpAlu,
        OpClass::FpMult | OpClass::FpDiv => FuClass::FpMultDiv,
        OpClass::Load | OpClass::Store => FuClass::LdSt,
    }
}

/// Buckets in the wakeup wheel: a power of two above the furthest
/// ahead of "now" any wakeup can be scheduled. A wakeup is scheduled
/// at dispatch (`t + dispatch_to_ready`, or an issued producer's
/// availability) or when a producer issues (its latency plus wakeup
/// bubble). The longest latency is a load missing to memory through
/// both TLB penalties (a merged load adds its own TLB miss to the
/// original fill), or the longest ALU op; the sum below bounds either
/// case with room to spare.
fn wheel_horizon(cfg: &MachineConfig) -> usize {
    let load = cfg.l1d.latency + cfg.l2.latency + cfg.mem_latency + 2 * cfg.tlb_miss_penalty;
    let alu = [
        cfg.fu_int_alu.latency,
        cfg.fu_int_mult.latency,
        cfg.fu_fp_alu.latency,
        cfg.fu_fp_mult.latency,
        cfg.fp_div_latency,
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    let furthest = load.max(alu) + cfg.issue_wakeup + cfg.dispatch_to_ready;
    (furthest as usize + 1).next_power_of_two().max(64)
}

/// The set bits of a ring bitmap (a power-of-two number of bits), in
/// ring order starting at bit `start` and wrapping once, as offsets
/// from `start`.
struct RingOffsets<'w> {
    words: &'w [u64],
    start: usize,
    /// Words moved past the start word (the start word is visited
    /// again, for its bits below `start`, at `step == words.len()`).
    step: usize,
    word: usize,
    /// Unvisited bits of `words[word]`.
    bits: u64,
}

impl<'w> RingOffsets<'w> {
    fn new(words: &'w [u64], start: usize) -> RingOffsets<'w> {
        let word = start / 64;
        RingOffsets {
            words,
            start,
            step: 0,
            word,
            bits: words[word] & (!0u64 << (start % 64)),
        }
    }
}

impl Iterator for RingOffsets<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let len = self.words.len();
        while self.bits == 0 {
            if self.step == len {
                return None;
            }
            self.step += 1;
            self.word = (self.start / 64 + self.step) & (len - 1);
            self.bits = self.words[self.word];
            if self.step == len {
                self.bits &= (1u64 << (self.start % 64)) - 1;
            }
        }
        let bit = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(bit.wrapping_sub(self.start) & (len * 64 - 1))
    }
}

/// Per-instruction in-flight scheduling state.
#[derive(Debug, Clone, Copy, Default)]
struct Sched {
    /// Operands still outstanding.
    pending: u8,
    /// Earliest cycle the instruction can issue (max of dispatch+d2r and
    /// operand availability seen so far).
    ready_time: u64,
    /// Result availability for consumers (complete + wakeup bubble).
    avail: u64,
    dispatched: bool,
    issued: bool,
}

struct Engine<'a> {
    cfg: &'a MachineConfig,
    trace: &'a Trace,
    ideal: Idealization,
    mem: MemSystem,
    predictor: BranchPredictor,
    records: Vec<ExecRecord>,
    sched: Vec<Sched>,
    counts: EventCounts,
    stalls: PipelineStalls,

    // Effective (possibly idealized) parameters.
    rob_size: usize,
    fetch_width: usize,
    dispatch_width: usize,
    issue_width: usize,
    commit_width: usize,
    fetch_taken_limit: usize,
    fetch_queue_cap: usize,

    // Fetch state.
    next_fetch: usize,
    fetch_queue: VecDeque<u32>,
    last_line: Option<u64>,
    /// Cycle an in-progress I-miss line arrives (fetch blocked until then).
    line_ready_at: u64,
    /// Extra latency to record on the next fetched instruction.
    pending_icache_extra: u64,
    pending_icache_level: MissLevel,
    pending_itlb_miss: bool,
    /// Mispredicted branch the front end is stalled on.
    stalled_on: Option<u32>,
    /// Cycle fetch may resume after a misprediction redirect.
    redirect_at: u64,

    // Rename / wakeup state.
    reg_map: [Option<u32>; Reg::COUNT],
    /// Wakeup lists as an intrusive edge arena: edge `c * 2 + s` is
    /// consumer `c` waiting on its source slot `s`; `waiter_head[p]`
    /// starts producer `p`'s chain through `waiter_next`. Two flat
    /// allocations up front instead of a `Vec` push per dependence edge.
    waiter_head: Vec<u32>,
    waiter_next: Vec<u32>,
    /// The wakeup wheel: pending operand-ready wakeups bucketed by
    /// cycle. Bucket `c & (len - 1)` heads a list of the instructions
    /// that become ready at cycle `c`, threaded through `wheel_next`.
    /// Every pending wakeup lies within [`wheel_horizon`] cycles of
    /// now, so a bucket never holds two different cycles.
    wheel_head: Vec<u32>,
    /// Next link of each waiting instruction, indexed by window slot.
    wheel_next: Vec<u32>,
    /// Occupancy bitmap of `wheel_head`: bit `b` is set iff bucket `b`
    /// is non-empty, so the next wakeup is a find-first-set.
    wheel_bits: Vec<u64>,
    /// Ready-to-issue instructions as a bit ring over window slots
    /// (slot = index & `ring_mask`). Everything ready is in flight,
    /// within one window of `next_commit`, so oldest-first is bit order
    /// starting from `next_commit`'s slot.
    ready_bits: Vec<u64>,
    ready_count: usize,
    /// Window slots minus one; the slot count is the effective ROB size
    /// rounded up to a power of two (at least one 64-bit word).
    ring_mask: usize,
    /// Snapshot of `ready_bits` for one [`Engine::issue_fixpoint`]
    /// pass, reused so the hot loop never allocates.
    issue_scratch: Vec<u64>,

    // Execute state.
    /// Per-class functional-unit free times, indexed by
    /// [`FuClass::index`]; a unit with value `<= t` is free at `t`.
    /// Empty vectors under infinite bandwidth (no structural hazards).
    fu_units: [Vec<u64>; FuClass::ALL.len()],
    /// Whether the idealization removed structural hazards entirely.
    fu_infinite: bool,
    /// Outstanding L1D line misses: line → (fill cycle, originating load).
    outstanding: HashMap<u64, (u64, u32), BuildHasherDefault<LineHasher>>,
    /// Latest fill-end cycle already charged to a load-fill stall
    /// counter; spans before it are someone else's charge.
    fill_charged_until: u64,

    // Commit state.
    next_commit: usize,
    in_flight: usize,

    // Run-loop telemetry (ticked vs skipped cycles).
    stats: EngineStats,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a MachineConfig,
        trace: &'a Trace,
        ideal: Idealization,
        mem: MemSystem,
    ) -> Engine<'a> {
        let n = trace.len();
        let inf = ideal.infinite_bw();
        let rob_size = if ideal.huge_window() {
            cfg.rob_size * cfg.ideal_window_factor
        } else {
            cfg.rob_size
        };
        let slots = rob_size.next_power_of_two().max(64);
        let buckets = wheel_horizon(cfg);
        let fu_units: [Vec<u64>; FuClass::ALL.len()] = if inf {
            Default::default()
        } else {
            let mut units: [Vec<u64>; FuClass::ALL.len()] = Default::default();
            units[FuClass::IntAlu.index()] = vec![0u64; cfg.fu_int_alu.count];
            units[FuClass::IntMult.index()] = vec![0; cfg.fu_int_mult.count];
            units[FuClass::FpAlu.index()] = vec![0; cfg.fu_fp_alu.count];
            units[FuClass::FpMultDiv.index()] = vec![0; cfg.fu_fp_mult.count];
            units[FuClass::LdSt.index()] = vec![0; cfg.fu_ld_st.count];
            units
        };
        Engine {
            cfg,
            trace,
            ideal,
            mem,
            predictor: BranchPredictor::new(&cfg.predictor),
            // Fetch runs in program order: each record is pushed when its
            // instruction is fetched.
            records: Vec::with_capacity(n),
            sched: vec![Sched::default(); n],
            counts: EventCounts::default(),
            stalls: PipelineStalls::default(),
            rob_size,
            fetch_width: if inf { INFINITE } else { cfg.fetch_width },
            dispatch_width: if inf { INFINITE } else { cfg.dispatch_width },
            issue_width: if inf { INFINITE } else { cfg.issue_width },
            commit_width: if inf { INFINITE } else { cfg.commit_width },
            fetch_taken_limit: if inf { INFINITE } else { cfg.fetch_taken_limit },
            // Fetched instructions occupy the queue for the whole
            // fetch-to-dispatch pipeline, so its capacity covers the
            // in-flight stages plus the decoupling buffer.
            fetch_queue_cap: if inf {
                INFINITE
            } else {
                cfg.fetch_queue + cfg.front_end_depth as usize * cfg.fetch_width
            },
            next_fetch: 0,
            fetch_queue: VecDeque::new(),
            last_line: None,
            line_ready_at: 0,
            pending_icache_extra: 0,
            pending_icache_level: MissLevel::Hit,
            pending_itlb_miss: false,
            stalled_on: None,
            redirect_at: 0,
            reg_map: [None; Reg::COUNT],
            waiter_head: vec![EDGE_NONE; n],
            waiter_next: vec![EDGE_NONE; n * 2],
            wheel_head: vec![EDGE_NONE; buckets],
            wheel_next: vec![EDGE_NONE; slots],
            wheel_bits: vec![0; buckets / 64],
            ready_bits: vec![0; slots / 64],
            ready_count: 0,
            ring_mask: slots - 1,
            issue_scratch: Vec::with_capacity(slots / 64),
            fu_units,
            fu_infinite: inf,
            outstanding: HashMap::default(),
            fill_charged_until: 0,
            next_commit: 0,
            in_flight: 0,
            stats: EngineStats::default(),
        }
    }

    /// Charge a load fill's stall cycles, counting each cycle at most
    /// once across overlapping misses. A per-load latency sum would
    /// double-count parallel misses — two memory fills in flight would
    /// book 2× the elapsed cycles — which is exactly the naive-counter
    /// inflation interaction costs exist to correct; charging only the
    /// span past `fill_charged_until` keeps these counters comparable
    /// to critical-path attributions. The wait starts at `wait_from`
    /// (issue plus the hit latency the load would pay anyway).
    fn charge_fill(&mut self, level: MissLevel, wait_from: u64, fill_end: u64) {
        let cycles = fill_end.saturating_sub(wait_from.max(self.fill_charged_until));
        if cycles > 0 {
            match level {
                MissLevel::Mem => self.stalls.load_mem_fill += cycles,
                _ => self.stalls.load_l2_fill += cycles,
            }
        }
        self.fill_charged_until = self.fill_charged_until.max(fill_end);
    }

    /// Execution latency of a non-memory op under the current idealization.
    fn compute_latency(&self, op: OpClass) -> u64 {
        match op {
            OpClass::Nop => 0,
            OpClass::IntAlu
            | OpClass::CondBranch
            | OpClass::Jump
            | OpClass::Call
            | OpClass::Return
            | OpClass::IndirectJump => {
                if self.ideal.zero_short_alu() {
                    0
                } else {
                    self.cfg.fu_int_alu.latency
                }
            }
            OpClass::IntMult => self.long_lat(self.cfg.fu_int_mult.latency),
            OpClass::FpAlu => self.long_lat(self.cfg.fu_fp_alu.latency),
            OpClass::FpMult => self.long_lat(self.cfg.fu_fp_mult.latency),
            OpClass::FpDiv => self.long_lat(self.cfg.fp_div_latency),
            OpClass::Load | OpClass::Store => unreachable!("memory latency handled separately"),
        }
    }

    fn long_lat(&self, base: u64) -> u64 {
        if self.ideal.zero_long_alu() {
            0
        } else {
            base
        }
    }

    /// The wakeup bubble charged on consumers of `op`'s result (the
    /// issue-wakeup loop, attributed to the producing ALU class).
    fn wakeup_bubble(&self, op: OpClass) -> u64 {
        let bubble = self.cfg.issue_wakeup - 1;
        if bubble == 0 {
            return 0;
        }
        if op.is_short_alu() || op.is_branch() || op == OpClass::Nop {
            if self.ideal.zero_short_alu() {
                0
            } else {
                bubble
            }
        } else if op.is_long_alu() {
            if self.ideal.zero_long_alu() {
                0
            } else {
                bubble
            }
        } else {
            0
        }
    }

    fn finish(self) -> SimResult {
        let cycles = self.records[self.trace.len() - 1].commit;
        SimResult {
            cycles,
            records: self.records,
            counts: self.counts,
            stalls: self.stalls,
            engine: self.stats,
        }
    }

    /// The run loop. [`EngineMode::Ticking`] runs every stage every
    /// cycle (the reference). [`EngineMode::Events`] ticks a cycle too;
    /// if it made no progress, it jumps to the next cycle where any
    /// stage's behavior can change, bulk-charging the skipped span with
    /// the idle cycle's exact stall delta. The two are bit-identical
    /// because a no-progress cycle leaves every piece of machine state
    /// except the stall counters untouched, so the cycles inside the
    /// span are carbon copies of the one that was actually executed.
    fn run(mut self, mode: EngineMode) -> SimResult {
        let n = self.trace.len();
        if n == 0 {
            return SimResult::default();
        }
        let mut t: u64 = 0;
        while self.next_commit < n {
            t = self.step(t, mode);
            debug_assert!(
                t < 1_000 * (n as u64 + 16) + 1_000_000,
                "simulation did not converge (deadlock?)"
            );
        }
        self.finish()
    }

    /// Run cycle `t` and return the next cycle to run.
    fn step(&mut self, t: u64, mode: EngineMode) -> u64 {
        let before = self.stalls;
        let mut progress = self.deliver_events(t);
        progress |= self.commit(t);
        progress |= self.issue_fixpoint(t);
        progress |= self.dispatch(t);
        progress |= self.fetch(t);
        self.stats.ticked_cycles += 1;
        if mode == EngineMode::Events && !progress && self.next_commit < self.trace.len() {
            if let Some(next) = self.next_event(t) {
                debug_assert!(next > t, "next event {next} not after {t}");
                let skip = next - (t + 1);
                if skip > 0 {
                    let delta = self.stalls.delta_since(&before);
                    self.stalls.add_scaled(&delta, skip);
                    self.stats.skipped_cycles += skip;
                    self.stats.idle_spans += 1;
                    return next;
                }
            }
            // No future event: the machine is wedged. Fall through to
            // single-cycle ticking so behavior (and the convergence
            // assert in the loop) matches the reference.
        }
        t + 1
    }

    /// The earliest cycle after `t` at which any stage could behave
    /// differently than it did at `t`, given that cycle `t` made no
    /// progress. Every source of forward progress or stall-regime change
    /// is time-driven once the machine is idle:
    ///
    /// - a pending operand wakeup (the wakeup wheel's next bucket);
    /// - a functional unit a ready instruction is blocked on freeing up;
    /// - the issued ROB head reaching `complete + complete_to_commit`;
    /// - the fetch-queue front maturing past the front-end depth (it may
    ///   then dispatch — or begin charging `dispatch_window_full`);
    /// - an I-side line/translation fill completing (`line_ready_at`);
    /// - a misprediction redirect releasing fetch (`redirect_at`).
    ///
    /// Anything else (a stalled-on branch resolving, the fetch queue
    /// draining, the window freeing) requires one of the above to fire
    /// first, so the minimum is a safe jump target. `None` means no event
    /// is pending (deadlock).
    fn next_event(&self, t: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |cycle: u64| {
            if cycle > t && next.is_none_or(|n| cycle < n) {
                next = Some(cycle);
            }
        };
        // Bucket `t` was just delivered, so every pending wakeup lies in
        // (t, t + buckets): the first occupied bucket after `t` is the
        // earliest.
        let buckets = self.wheel_head.len();
        let from = (t + 1) as usize & (buckets - 1);
        if let Some(offset) = RingOffsets::new(&self.wheel_bits, from).next() {
            consider(t + 1 + offset as u64);
        }
        if self.ready_count > 0 && !self.fu_infinite {
            // Ready instructions are blocked on structural hazards only:
            // the earliest free time of each blocked class is an event.
            let mut classes_seen = 0u8;
            for idx in self.ready_indices(&self.ready_bits) {
                let class = fu_class(self.trace.inst(idx as usize).op);
                let bit = 1u8 << class.index();
                if classes_seen & bit != 0 {
                    continue;
                }
                classes_seen |= bit;
                if let Some(&free) = self.fu_units[class.index()].iter().min() {
                    consider(free);
                }
            }
        }
        if self.next_commit < self.trace.len() && self.sched[self.next_commit].issued {
            consider(self.records[self.next_commit].complete + self.cfg.complete_to_commit);
        }
        if let Some(&front) = self.fetch_queue.front() {
            consider(self.records[front as usize].fetch + self.cfg.front_end_depth);
        }
        if self.next_fetch < self.trace.len() && self.stalled_on.is_none() {
            consider(self.redirect_at);
            consider(self.line_ready_at);
        }
        next
    }

    /// The instructions whose bits are set in `bits` (a ready-ring
    /// image), oldest first.
    fn ready_indices<'w>(&self, bits: &'w [u64]) -> impl Iterator<Item = u32> + 'w {
        let base = self.next_commit;
        RingOffsets::new(bits, base & self.ring_mask).map(move |off| (base + off) as u32)
    }

    fn ready_insert(&mut self, idx: u32) {
        let slot = idx as usize & self.ring_mask;
        let bit = 1u64 << (slot % 64);
        debug_assert!(
            self.ready_bits[slot / 64] & bit == 0,
            "instruction {idx} already ready"
        );
        self.ready_bits[slot / 64] |= bit;
        self.ready_count += 1;
    }

    fn ready_remove(&mut self, idx: u32) {
        let slot = idx as usize & self.ring_mask;
        self.ready_bits[slot / 64] &= !(1u64 << (slot % 64));
        self.ready_count -= 1;
    }

    /// Schedule `idx` to become ready at cycle `ready > t`.
    fn wheel_insert(&mut self, idx: u32, ready: u64, t: u64) {
        let buckets = self.wheel_head.len();
        assert!(
            ready - t < buckets as u64,
            "wakeup {ready} is past the wheel horizon from {t}"
        );
        let bucket = ready as usize & (buckets - 1);
        self.wheel_next[idx as usize & self.ring_mask] = self.wheel_head[bucket];
        self.wheel_head[bucket] = idx;
        self.wheel_bits[bucket / 64] |= 1u64 << (bucket % 64);
    }

    /// Move the wakeups due at `t` into the ready ring. The run loop
    /// never jumps past a pending wakeup, so each is delivered exactly
    /// at its cycle and the bucket holds nothing else.
    fn deliver_events(&mut self, t: u64) -> bool {
        let bucket = t as usize & (self.wheel_head.len() - 1);
        let mut idx = std::mem::replace(&mut self.wheel_head[bucket], EDGE_NONE);
        if idx == EDGE_NONE {
            return false;
        }
        self.wheel_bits[bucket / 64] &= !(1u64 << (bucket % 64));
        while idx != EDGE_NONE {
            debug_assert_eq!(self.records[idx as usize].ready, t);
            let next = self.wheel_next[idx as usize & self.ring_mask];
            self.ready_insert(idx);
            idx = next;
        }
        true
    }

    fn commit(&mut self, t: u64) -> bool {
        let mut slots = self.commit_width;
        while slots > 0 && self.next_commit < self.trace.len() {
            let i = self.next_commit;
            if !self.sched[i].issued {
                break;
            }
            if self.records[i].complete + self.cfg.complete_to_commit > t {
                break;
            }
            self.records[i].commit = t;
            self.release_line(i);
            self.next_commit += 1;
            self.in_flight -= 1;
            slots -= 1;
        }
        // Every outstanding miss is owned by an in-flight load.
        debug_assert!(self.outstanding.len() <= self.in_flight);
        // Stall attribution: a cycle where nothing retired is either a
        // starved back end (ROB empty) or a blocked head instruction.
        if slots == self.commit_width && self.next_commit < self.trace.len() {
            if self.in_flight == 0 {
                self.stalls.commit_rob_empty += 1;
            } else {
                self.stalls.commit_head_wait += 1;
            }
        }
        slots < self.commit_width
    }

    /// Drop the outstanding-miss entry that committing load `i` opened,
    /// if `i` still owns it, so the map stays within the window rather
    /// than growing with every distinct missed line. This is exact: a
    /// lookup at or after `i`'s commit sees `fill <= t + hit_lat` (the
    /// fill completed at `i`'s `complete`) and would drop it anyway.
    fn release_line(&mut self, i: usize) {
        if !self.records[i].dcache_level.is_miss() {
            return;
        }
        let line = self.mem.d_line_addr(self.trace.inst(i).mem_addr);
        if let Entry::Occupied(entry) = self.outstanding.entry(line) {
            if entry.get().1 == i as u32 {
                entry.remove();
            }
        }
    }

    fn issue_fixpoint(&mut self, t: u64) -> bool {
        if self.ready_count == 0 {
            return false;
        }
        let mut issued_any = false;
        let mut slots = self.issue_width;
        // Each pass scans a snapshot of the ready ring, oldest first:
        // an instruction made ready mid-pass waits for the next pass.
        // The snapshot buffer is handed back before returning, so the
        // hot loop never allocates.
        let mut snapshot = std::mem::take(&mut self.issue_scratch);
        loop {
            let mut progressed = false;
            snapshot.clear();
            snapshot.extend_from_slice(&self.ready_bits);
            for idx in self.ready_indices(&snapshot) {
                if slots == 0 {
                    break;
                }
                if !self.try_issue(idx, t) {
                    continue;
                }
                self.ready_remove(idx);
                slots -= 1;
                progressed = true;
                issued_any = true;
            }
            if !progressed || slots == 0 {
                break;
            }
        }
        self.issue_scratch = snapshot;
        issued_any
    }

    /// Attempt to issue instruction `idx` at cycle `t`; returns success.
    fn try_issue(&mut self, idx: u32, t: u64) -> bool {
        let i = idx as usize;
        let inst = *self.trace.inst(i);
        let class = fu_class(inst.op);

        // Structural hazard check (skipped under infinite bandwidth).
        if !self.fu_infinite {
            let units = &mut self.fu_units[class.index()];
            let Some(unit) = units.iter_mut().find(|u| **u <= t) else {
                self.stalls.issue_fu_busy += 1;
                return false;
            };
            let occupy = if inst.op == OpClass::FpDiv {
                // Divide is unpipelined: the unit is busy for the full op.
                t + self.cfg.fp_div_latency.max(1)
            } else {
                t + 1
            };
            *unit = occupy;
        }

        let (latency, rec_extra) = self.exec_latency(i, &inst, t);
        let complete = t + latency;

        let rec = &mut self.records[i];
        rec.exec = t;
        rec.complete = complete;
        rec.exec_latency = latency;
        rec.re_delay = t - self.sched[i].ready_time;
        rec.dcache_level = rec_extra.level;
        rec.dtlb_miss = rec_extra.tlb_miss;
        rec.pp_producer = rec_extra.pp_producer;

        let avail = complete + self.wakeup_bubble(inst.op);
        self.sched[i].avail = avail;
        self.sched[i].issued = true;

        // Wake consumers (drain this producer's edge chain).
        let mut edge = std::mem::replace(&mut self.waiter_head[i], EDGE_NONE);
        while edge != EDGE_NONE {
            let next = self.waiter_next[edge as usize];
            let consumer = edge >> 1;
            let slot = (edge & 1) as usize;
            self.records[consumer as usize].wakeup_bubble[slot] = avail - complete;
            self.operand_arrived(consumer, avail, t);
            edge = next;
        }

        // Release the front end if it was stalled on this branch.
        if self.stalled_on == Some(idx) {
            self.stalled_on = None;
            self.redirect_at = complete + 1;
        }
        true
    }

    fn operand_arrived(&mut self, consumer: u32, avail: u64, t: u64) {
        let c = consumer as usize;
        let s = &mut self.sched[c];
        s.ready_time = s.ready_time.max(avail);
        debug_assert!(s.pending > 0);
        s.pending -= 1;
        if s.pending == 0 && s.dispatched {
            self.mark_ready(consumer, t);
        }
    }

    fn mark_ready(&mut self, idx: u32, t: u64) {
        let i = idx as usize;
        let ready = self.sched[i].ready_time;
        self.records[i].ready = ready;
        if ready <= t {
            self.ready_insert(idx);
        } else {
            self.wheel_insert(idx, ready, t);
        }
    }

    fn dispatch(&mut self, t: u64) -> bool {
        let mut slots = self.dispatch_width;
        while slots > 0 && !self.fetch_queue.is_empty() {
            let idx = *self.fetch_queue.front().expect("non-empty");
            let i = idx as usize;
            if self.records[i].fetch + self.cfg.front_end_depth > t {
                break;
            }
            if self.in_flight >= self.rob_size {
                self.stalls.dispatch_window_full += 1;
                break;
            }
            self.fetch_queue.pop_front();
            self.in_flight += 1;
            slots -= 1;
            self.records[i].dispatch = t;
            let inst = *self.trace.inst(i);

            let mut pending = 0u8;
            let mut ready_time = t + self.cfg.dispatch_to_ready;
            for (slot, src) in inst.srcs.iter().enumerate() {
                let Some(r) = src.filter(|r| !r.is_zero()) else {
                    continue;
                };
                let Some(producer) = self.reg_map[r.index()] else {
                    continue; // live-in: available since before the trace
                };
                self.records[i].src_producers[slot] = Some(producer);
                let p = producer as usize;
                if self.sched[p].issued {
                    let avail = self.sched[p].avail;
                    self.records[i].wakeup_bubble[slot] = avail - self.records[p].complete;
                    ready_time = ready_time.max(avail);
                } else {
                    pending += 1;
                    let edge = idx * 2 + slot as u32;
                    self.waiter_next[edge as usize] = self.waiter_head[p];
                    self.waiter_head[p] = edge;
                }
            }
            if let Some(dst) = inst.live_dst() {
                self.reg_map[dst.index()] = Some(idx);
            }
            self.sched[i].dispatched = true;
            self.sched[i].pending = pending;
            self.sched[i].ready_time = ready_time;
            if pending == 0 {
                self.mark_ready(idx, t);
            }
        }
        slots < self.dispatch_width
    }

    /// Returns whether the fetch side made progress — fetched at least
    /// one instruction *or* changed fetch-side state (started an I-side
    /// fill). Pure stall cycles (redirect wait, fill wait, queue full)
    /// return `false`: they repeat identically until a timed event.
    fn fetch(&mut self, t: u64) -> bool {
        let fetch_left = self.next_fetch < self.trace.len();
        if self.stalled_on.is_some() || t < self.redirect_at {
            if fetch_left {
                self.stalls.fetch_bmisp_recovery += 1;
            }
            return false;
        }
        if t < self.line_ready_at {
            if fetch_left {
                // Attribute the blocked cycle to where the line (or its
                // translation) is being filled from.
                match self.pending_icache_level {
                    MissLevel::L2 => self.stalls.fetch_imiss_l2_fill += 1,
                    _ => self.stalls.fetch_imiss_mem_fill += 1,
                }
            }
            return false;
        }
        let mut slots = self.fetch_width;
        let mut taken_seen = 0usize;
        let mut fetched = 0usize;
        while slots > 0
            && self.next_fetch < self.trace.len()
            && self.fetch_queue.len() < self.fetch_queue_cap
        {
            let i = self.next_fetch;
            let idx = i as u32;
            let inst = *self.trace.inst(i);

            // Instruction-cache access on line crossings.
            let line = self.mem.i_line_addr(inst.pc);
            if self.last_line != Some(line) {
                self.last_line = Some(line);
                if !self.ideal.perfect_icache() {
                    let acc = self.mem.inst_access(inst.pc);
                    if acc.level.is_miss() {
                        self.counts.l1i_misses += 1;
                    }
                    if acc.tlb_miss {
                        self.counts.itlb_misses += 1;
                    }
                    if acc.extra_latency > 0 {
                        // Line (or translation) arrives later; record the
                        // penalty on the instruction we are about to fetch
                        // and stall the front end. Starting the fill is
                        // fetch-side progress even when nothing was
                        // fetched this cycle.
                        self.line_ready_at = t + acc.extra_latency;
                        self.pending_icache_extra = acc.extra_latency;
                        self.pending_icache_level = acc.level;
                        self.pending_itlb_miss = acc.tlb_miss;
                        return true;
                    }
                }
            }

            debug_assert_eq!(self.records.len(), i, "fetch runs in program order");
            self.records.push(ExecRecord {
                fetch: t,
                icache_extra: self.pending_icache_extra,
                icache_level: self.pending_icache_level,
                itlb_miss: self.pending_itlb_miss,
                ..ExecRecord::default()
            });
            self.pending_icache_extra = 0;
            self.pending_icache_level = MissLevel::Hit;
            self.pending_itlb_miss = false;

            self.fetch_queue.push_back(idx);
            self.next_fetch += 1;
            slots -= 1;
            fetched += 1;

            if inst.op.is_branch() {
                if inst.op.is_cond_branch() {
                    self.counts.cond_branches += 1;
                }
                let correct = if self.ideal.perfect_branches() {
                    true
                } else {
                    self.predictor.process(&inst).correct
                };
                if !correct {
                    self.counts.mispredicts += 1;
                    self.records[i].mispredicted = true;
                    self.stalled_on = Some(idx);
                    return true;
                }
                if inst.taken {
                    taken_seen += 1;
                    if taken_seen >= self.fetch_taken_limit {
                        return true;
                    }
                }
            }
        }
        if fetched == 0
            && self.next_fetch < self.trace.len()
            && self.fetch_queue.len() >= self.fetch_queue_cap
        {
            self.stalls.fetch_queue_full += 1;
        }
        fetched > 0
    }

    /// Latency of executing instruction `i` at cycle `t`, plus the memory
    /// outcome to record.
    fn exec_latency(&mut self, i: usize, inst: &Inst, t: u64) -> (u64, MemOutcome) {
        if !inst.op.is_mem() {
            return (self.compute_latency(inst.op), MemOutcome::default());
        }
        let hit_lat = if self.ideal.zero_l1_lookup() {
            0
        } else {
            self.cfg.l1d.latency
        };
        if inst.op.is_store() {
            // Stores retire through the store buffer; latency is address
            // generation + L1 lookup. The access still updates cache state
            // (write-allocate) unless the data side is idealized.
            if !self.ideal.perfect_dcache() {
                self.mem.data_access(inst.mem_addr);
            }
            return (hit_lat, MemOutcome::default());
        }

        self.counts.loads += 1;
        if self.ideal.perfect_dcache() {
            return (hit_lat, MemOutcome::default());
        }

        let line = self.mem.d_line_addr(inst.mem_addr);
        // Merge with an outstanding miss to the same line (partial miss):
        // the load completes when the original fill returns.
        if let Some(&(fill, origin)) = self.outstanding.get(&line) {
            if fill > t + hit_lat {
                self.counts.l1d_load_misses += 1;
                self.counts.merged_loads += 1;
                // Keep the cache LRU warm for the line.
                let acc = self.mem.data_access(inst.mem_addr);
                if acc.tlb_miss {
                    self.counts.dtlb_misses += 1;
                }
                let tlb_extra = if acc.tlb_miss {
                    self.cfg.tlb_miss_penalty
                } else {
                    0
                };
                self.charge_fill(MissLevel::L2, t + hit_lat, fill);
                return (
                    (fill - t).max(hit_lat) + tlb_extra,
                    MemOutcome {
                        level: MissLevel::L2, // served by the in-flight fill
                        tlb_miss: acc.tlb_miss,
                        // The graph's PP edges run from earlier loads to
                        // subsequent ones (Table 2); when out-of-order
                        // issue made a *later* load the miss originator,
                        // the wait stays on this load's EP latency.
                        pp_producer: ((origin as usize) < i).then_some(origin),
                    },
                );
            }
            self.outstanding.remove(&line);
        }

        let acc = self.mem.data_access(inst.mem_addr);
        if acc.tlb_miss {
            self.counts.dtlb_misses += 1;
        }
        let mut latency = acc.latency;
        if self.ideal.zero_l1_lookup() {
            latency -= self.cfg.l1d.latency;
        }
        match acc.level {
            MissLevel::Hit => {}
            MissLevel::L2 => {
                self.counts.l1d_load_misses += 1;
                self.charge_fill(MissLevel::L2, t + hit_lat, t + latency);
                self.outstanding.insert(line, (t + latency, i as u32));
            }
            MissLevel::Mem => {
                self.counts.l1d_load_misses += 1;
                self.counts.mem_load_misses += 1;
                self.charge_fill(MissLevel::Mem, t + hit_lat, t + latency);
                self.outstanding.insert(line, (t + latency, i as u32));
            }
        }
        (
            latency,
            MemOutcome {
                level: acc.level,
                tlb_miss: acc.tlb_miss,
                pp_producer: None,
            },
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct MemOutcome {
    level: MissLevel,
    tlb_miss: bool,
    pp_producer: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Idealization;
    use uarch_trace::{EventClass, EventSet, TraceBuilder};

    fn cfg() -> MachineConfig {
        MachineConfig::table6()
    }

    fn run(trace: &Trace) -> SimResult {
        let c = cfg();
        let r = Simulator::new(&c).run(trace, Idealization::none());
        r.check_invariants(trace).expect("invariants");
        r
    }

    /// Run with a perfect I-cache so micro-timing assertions are not
    /// perturbed by cold-start instruction misses.
    fn run_warm(trace: &Trace) -> SimResult {
        let c = cfg();
        let r = Simulator::new(&c).run(trace, Idealization::from(EventClass::Imiss));
        r.check_invariants(trace).expect("invariants");
        r
    }

    #[test]
    fn empty_trace() {
        let r = run(&Trace::new());
        assert_eq!(r.cycles, 0);
        assert!(r.records.is_empty());
    }

    #[test]
    fn single_nop_flows_through_pipeline() {
        let mut b = TraceBuilder::new();
        b.nops(1);
        let r = run_warm(&b.finish());
        let rec = &r.records[0];
        assert_eq!(rec.fetch, 0);
        assert_eq!(rec.dispatch, rec.fetch + cfg().front_end_depth);
        assert!(rec.commit >= rec.complete + cfg().complete_to_commit);
    }

    #[test]
    fn dependent_chain_serializes() {
        // 20 dependent ALU ops: completion times must be strictly
        // increasing by the ALU latency.
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.alu(r1, &[]);
        for _ in 0..19 {
            b.alu(r1, &[r1]);
        }
        let res = run(&b.finish());
        for w in res.records.windows(2) {
            assert!(
                w[1].exec >= w[0].complete,
                "dependent op issued before producer completed"
            );
        }
    }

    #[test]
    fn independent_ops_overlap() {
        let mut b = TraceBuilder::new();
        for k in 0..6 {
            b.alu(Reg::int(k + 1), &[]);
        }
        let res = run_warm(&b.finish());
        // All six fit in one issue group once dispatched together.
        let execs: Vec<u64> = res.records.iter().map(|r| r.exec).collect();
        assert!(execs.iter().all(|&e| e == execs[0]), "{execs:?}");
    }

    #[test]
    fn fu_contention_limits_parallel_multiplies() {
        // 4 independent multiplies but only 2 IntMult units.
        let mut b = TraceBuilder::new();
        for k in 0..4 {
            b.op(OpClass::IntMult, Some(Reg::int(k + 1)), &[]);
        }
        let res = run(&b.finish());
        let first = res.records[0].exec;
        let delayed = res.records.iter().filter(|r| r.exec > first).count();
        assert_eq!(delayed, 2, "two multiplies must wait for units");
        assert!(res.records.iter().any(|r| r.re_delay > 0));
    }

    #[test]
    fn cold_load_miss_costs_memory_latency() {
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x40_0000);
        let res = run(&b.finish());
        let rec = &res.records[0];
        assert_eq!(rec.dcache_level, MissLevel::Mem);
        assert!(rec.dtlb_miss);
        assert_eq!(
            rec.exec_latency,
            cfg().mem_access_latency() + cfg().tlb_miss_penalty
        );
    }

    #[test]
    fn second_load_to_same_line_merges() {
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x40_0000);
        b.load(Reg::int(2), 0x40_0008); // same 64B line
        let res = run(&b.finish());
        assert_eq!(res.records[1].pp_producer, Some(0));
        assert_eq!(res.counts.merged_loads, 1);
        // Both complete when the fill returns.
        assert_eq!(res.records[1].complete, res.records[0].complete);
    }

    #[test]
    fn warm_load_hits() {
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x40_0000);
        b.nops(200); // let the miss drain
        b.load(Reg::int(2), 0x40_0000);
        let res = run(&b.finish());
        let last = res.records.last().expect("non-empty");
        assert_eq!(last.dcache_level, MissLevel::Hit);
        assert_eq!(last.exec_latency, cfg().l1d.latency);
    }

    #[test]
    fn mispredicted_branch_stalls_fetch() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.alu(r1, &[]);
        b.branch(r1, true, 0x9000); // cold predictor: mispredicted
        b.set_pc(0x9000);
        b.alu(Reg::int(2), &[]);
        let res = run(&b.finish());
        assert!(res.records[1].mispredicted);
        // Post-branch instruction fetched only after the branch resolves.
        assert!(res.records[2].fetch > res.records[1].complete);
    }

    #[test]
    fn window_stall_blocks_dispatch() {
        // A long-latency load followed by > ROB-size independent ops: the
        // ops beyond the window dispatch only as the load commits.
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x80_0000);
        for _ in 0..80 {
            b.alu(Reg::int(2), &[]);
        }
        let res = run(&b.finish());
        let load_commit = res.records[0].commit;
        // Instruction at index 64 (beyond the 64-entry window) cannot
        // dispatch before the load frees its slot.
        assert!(
            res.records[64].dispatch >= load_commit,
            "dispatch {} vs load commit {}",
            res.records[64].dispatch,
            load_commit
        );
    }

    #[test]
    fn idealizations_never_slow_down() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        for k in 0..30u64 {
            b.load(r1, 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[r1]);
            b.branch(Reg::int(2), k % 3 == 0, b.pc() + 64);
        }
        let t = b.finish();
        let c = cfg();
        let sim = Simulator::new(&c);
        let base = sim.cycles(&t, Idealization::none());
        for class in EventClass::ALL {
            let ideal = sim.cycles(&t, Idealization::from(class));
            assert!(
                ideal <= base,
                "idealizing {class} slowed execution: {ideal} > {base}"
            );
        }
        let all = sim.cycles(&t, Idealization::all());
        assert!(all <= base);
    }

    #[test]
    fn zero_latency_chain_collapses_under_shalu_ideal() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.alu(r1, &[]);
        for _ in 0..50 {
            b.alu(r1, &[r1]);
        }
        let t = b.finish();
        let c = cfg();
        let sim = Simulator::new(&c);
        // Hold the I-cache perfect in both runs so the ALU chain is the
        // bottleneck under measurement.
        let base = sim.cycles(&t, Idealization::from(EventClass::Imiss));
        let ideal = sim.cycles(
            &t,
            Idealization::from(EventSet::from([EventClass::Imiss, EventClass::ShortAlu])),
        );
        // The 51-op chain costs ~51 cycles at latency 1; idealized it
        // collapses to the fetch/dispatch/commit bandwidth floor
        // (~ceil(51/6) cycles per bandwidth-limited stage).
        assert!(base >= ideal + 25, "base {base}, ideal {ideal}");
    }

    #[test]
    fn issue_wakeup_two_inserts_bubbles() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.alu(r1, &[]);
        for _ in 0..20 {
            b.alu(r1, &[r1]);
        }
        let t = b.finish();
        let base_cfg = cfg();
        let slow_cfg = cfg().with_issue_wakeup(2);
        let warm = Idealization::from(EventClass::Imiss);
        let base = Simulator::new(&base_cfg).cycles(&t, warm);
        let slow = Simulator::new(&slow_cfg).cycles(&t, warm);
        assert!(
            slow >= base + 18,
            "wakeup=2 should add ~1 cycle per chain link: {base} -> {slow}"
        );
    }

    #[test]
    fn dl1_latency_four_slows_load_chains() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        // Pointer-chasing through warm cache lines.
        b.load(r1, 0x1000);
        for k in 0..20u64 {
            b.load_indexed(r1, r1, 0x1000 + (k % 4) * 8);
        }
        let t = b.finish();
        let c2 = cfg();
        let c4 = cfg().with_dl1_latency(4);
        let base = Simulator::new(&c2).cycles(&t, Idealization::none());
        let slow = Simulator::new(&c4).cycles(&t, Idealization::none());
        assert!(slow > base, "higher L1 latency must slow hit chains");
    }

    #[test]
    fn infinite_bw_removes_width_limits() {
        let mut b = TraceBuilder::new();
        for k in 0..64 {
            b.alu(Reg::int((k % 30) + 1), &[]);
        }
        let t = b.finish();
        let c = cfg();
        let sim = Simulator::new(&c);
        let base = sim.run(&t, Idealization::none());
        let ideal = sim.run(&t, Idealization::from(EventClass::Bw));
        assert!(ideal.cycles < base.cycles);
        // With infinite issue width every independent op issues as soon as
        // it is ready.
        assert!(ideal.records.iter().all(|r| r.re_delay == 0));
    }

    #[test]
    fn stall_counters_attribute_by_cause() {
        // A mispredicted branch: recovery cycles must be charged.
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.alu(r1, &[]);
        b.branch(r1, true, 0x9000);
        b.set_pc(0x9000);
        b.alu(Reg::int(2), &[]);
        let res = run_warm(&b.finish());
        assert!(res.stalls.fetch_bmisp_recovery > 0, "{:?}", res.stalls);

        // A window-full scenario (long load + >ROB independent ops).
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x80_0000);
        for _ in 0..80 {
            b.alu(Reg::int(2), &[]);
        }
        let res = run_warm(&b.finish());
        assert!(res.stalls.dispatch_window_full > 0);
        assert!(res.stalls.commit_head_wait > 0, "load blocks the head");
        assert!(res.stalls.load_mem_fill > 0);

        // FU contention: four multiplies on two units.
        let mut b = TraceBuilder::new();
        for k in 0..4 {
            b.op(OpClass::IntMult, Some(Reg::int(k + 1)), &[]);
        }
        let res = run_warm(&b.finish());
        assert!(res.stalls.issue_fu_busy > 0);

        // Cold I-side: the very first fetch misses to memory.
        let mut b = TraceBuilder::new();
        b.nops(4);
        let res = run(&b.finish());
        assert!(res.stalls.fetch_imiss_mem_fill > 0);
    }

    #[test]
    fn stall_rows_cover_every_field_and_absorb_sums() {
        let mut a = PipelineStalls {
            fetch_bmisp_recovery: 1,
            fetch_imiss_l2_fill: 2,
            fetch_imiss_mem_fill: 3,
            fetch_queue_full: 4,
            dispatch_window_full: 5,
            issue_fu_busy: 6,
            commit_rob_empty: 7,
            commit_head_wait: 8,
            load_l2_fill: 9,
            load_mem_fill: 10,
        };
        assert_eq!(a.total(), 55, "rows() must cover every field");
        a.absorb(&a.clone());
        assert_eq!(a.total(), 110);
        let names: Vec<&str> = a.rows().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "row names are distinct");
    }

    #[test]
    fn outstanding_misses_stay_within_the_window() {
        // A cold stream over fresh lines, two loads per line: every line
        // misses to memory once and merges once. Each entry must go when
        // its load commits, so the map is bounded by the window, not by
        // the lines touched.
        let mut b = TraceBuilder::new();
        for k in 0..4_000u64 {
            b.load(Reg::int(1), 0x100_0000 + k * 32);
            b.alu(Reg::int(2), &[Reg::int(1)]);
        }
        let t = b.finish();
        let c = cfg();
        let ideal = Idealization::from(EventClass::Imiss);
        for mode in [EngineMode::Ticking, EngineMode::Events] {
            let mut engine = Engine::new(&c, &t, ideal, MemSystem::new(&c));
            let (mut cycle, mut most) = (0, 0);
            while engine.next_commit < t.len() {
                cycle = engine.step(cycle, mode);
                most = most.max(engine.outstanding.len());
            }
            assert!(most > 1, "the stream overlaps its misses");
            assert!(most <= c.rob_size, "{most} entries outlived the window");
            assert!(engine.outstanding.is_empty(), "every owner committed");
            let r = engine.finish();
            r.check_invariants(&t).expect("invariants");
            // Unchanged from before entries were dropped at commit.
            assert_eq!(r.cycles, 15_254);
            assert_eq!(r.counts.mem_load_misses, 2_000);
            assert_eq!(r.counts.merged_loads, 2_000);
            assert_eq!(r.stalls.load_mem_fill, 15_141);
        }
    }

    #[test]
    fn ring_offsets_wrap_in_order() {
        let words = [0b1001u64, 1 << 63];
        let from = |start| RingOffsets::new(&words, start).collect::<Vec<_>>();
        assert_eq!(from(0), vec![0, 3, 127]);
        // Starting mid-ring: bits at and after the start first, then the
        // wrapped ones, each once.
        assert_eq!(from(3), vec![0, 124, 125]);
        assert_eq!(from(64), vec![63, 64, 67]);
        assert_eq!(from(127), vec![0, 1, 4]);
        assert_eq!(RingOffsets::new(&[0u64], 17).next(), None);
    }

    #[test]
    fn wheel_grows_with_memory_latency() {
        // A slow memory puts wakeups thousands of cycles ahead; the
        // wheel is sized from the configuration, so both run loops
        // still deliver them on time (a wakeup past the wheel panics).
        let slow = MachineConfig {
            mem_latency: 5_000,
            ..cfg()
        };
        assert!(wheel_horizon(&slow) > 5_000);
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        for k in 0..8u64 {
            b.load(r1, 0x40_0000 + k * 8192);
            b.alu(Reg::int(2), &[r1]);
        }
        let t = b.finish();
        let sim = Simulator::new(&slow);
        let tick = sim.run_with_mode(&t, Idealization::none(), EngineMode::Ticking);
        let ev = sim.run_with_mode(&t, Idealization::none(), EngineMode::Events);
        tick.check_invariants(&t).expect("invariants");
        assert_eq!(tick.records, ev.records);
        assert_eq!((tick.cycles, tick.stalls), (ev.cycles, ev.stalls));
        assert!(tick.records[0].exec_latency > 5_000);
        assert_eq!(tick.records[1].ready, tick.records[0].complete);
    }

    #[test]
    fn warm_state_is_shared_and_checked() {
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x40_0000);
        b.alu(Reg::int(2), &[Reg::int(1)]);
        let t = b.finish();
        let c = cfg();
        let sim = Simulator::new(&c);
        let warm = sim.warm(&[0x40_0000], &[t.inst(0).pc]);
        let from = sim.run_from(&t, Idealization::none(), &warm);
        assert_eq!(from.records[0].dcache_level, MissLevel::Hit);
        assert_eq!(from.records[0].icache_extra, 0);
        // A second run from the same state sees the same warm caches.
        let again = sim.run_from(&t, Idealization::none(), &warm);
        assert_eq!(again.records, from.records);
        let other = MachineConfig::table6().with_dl1_latency(4);
        let wrong = std::panic::catch_unwind(|| {
            Simulator::new(&other).run_from(&t, Idealization::none(), &warm)
        });
        assert!(
            wrong.is_err(),
            "a state warmed for another config is refused"
        );
    }

    #[test]
    fn records_are_internally_consistent_on_mixed_trace() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        for k in 0..200u64 {
            match k % 5 {
                0 => {
                    b.load(r1, 0x2000 + (k * 64) % 16384);
                }
                1 => {
                    b.alu(r2, &[r1]);
                }
                2 => {
                    b.op(OpClass::FpMult, Some(Reg::fp(1)), &[]);
                }
                3 => {
                    b.store(r2, 0x8000 + (k * 8) % 4096);
                }
                _ => {
                    b.branch(r2, k % 10 == 4, b.pc() + 16);
                }
            }
        }
        let t = b.finish();
        let res = run(&t);
        assert!(res.cycles > 0);
        // Cold caches and a cold predictor make this slow, but it must
        // still make forward progress at a sane rate.
        assert!(res.ipc() > 0.02, "ipc {}", res.ipc());
    }
}

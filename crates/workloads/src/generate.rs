//! Synthetic program synthesis and dynamic-trace generation.
//!
//! A benchmark is generated in two stages:
//!
//! 1. **Static synthesis** — a set of hot loop blocks (plus helper
//!    functions and, for dispatch-heavy profiles, an indirect dispatcher)
//!    is laid out at fixed addresses. Every instruction's opcode and
//!    register operands are fixed statically, like a real binary; only
//!    branch outcomes and data addresses vary per dynamic instance.
//! 2. **Dynamic walking** — a seeded walker executes the control flow,
//!    drawing branch outcomes and load/store addresses from the profile's
//!    distributions, emitting the dynamic trace.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::profiles::BenchProfile;
use uarch_trace::{Inst, OpClass, Reg, StaticInst, StaticProgram, Trace, WarmSet};

/// A generated benchmark: the dynamic trace plus the static code image
/// (the "binary" the shotgun profiler consults).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: String,
    /// The dynamic instruction trace.
    pub trace: Trace,
    /// The static program image.
    pub program: StaticProgram,
    /// Data addresses to touch before timing (steady-state cache/TLB
    /// contents; pass to `Simulator::run_warmed`).
    pub warm_data: WarmSet,
    /// Code addresses to touch on the instruction side before timing.
    pub warm_code: WarmSet,
}

// Memory-region layout (byte addresses).
const L1_REGION: (u64, u64) = (0x1000_0000, 12 * 1024);
const L2_REGION: (u64, u64) = (0x2000_0000, 512 * 1024);
const MEM_REGION: (u64, u64) = (0x4000_0000, 64 * 1024 * 1024);
const CHASE_BASE: u64 = 0x8000_0000;
const STORE_REGION: (u64, u64) = (0x1800_0000, 8 * 1024);
const CODE_BASE: u64 = 0x0040_0000;
/// Code-layout stride between blocks: real code is padded with cold paths,
/// so hot blocks of big-code benchmarks spread across the I-cache.
const BLOCK_STRIDE: u64 = 1024;

/// How a load's address is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddrGen {
    L1,
    L2,
    Mem,
    Chase,
}

/// One static body slot of a block.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Compute {
        op: OpClass,
        dst: Reg,
        srcs: [Option<Reg>; 2],
    },
    Load {
        dst: Reg,
        addr_src: Option<Reg>,
        gen: AddrGen,
    },
    Store {
        src: Reg,
        gen: AddrGen,
    },
    /// Forward conditional branch skipping `skip` following slots.
    Hammock {
        cond: Reg,
        skip: usize,
        taken_prob: f64,
    },
    /// Call to helper function `func`.
    Call {
        func: usize,
    },
}

/// A hot loop block: body slots followed by a fixed terminator (counter
/// update + back-edge).
#[derive(Debug, Clone)]
struct Block {
    base: u64,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone)]
struct Func {
    base: u64,
    slots: Vec<Slot>,
}

/// Generate `n_insts` dynamic instructions of the benchmark described by
/// `profile`, deterministically from `seed`.
///
/// # Panics
/// Panics if the profile fails [`BenchProfile::validate`] or `n_insts` is
/// zero.
pub fn generate(profile: &BenchProfile, n_insts: usize, seed: u64) -> Workload {
    assert!(n_insts > 0, "need at least one instruction");
    profile
        .validate()
        .unwrap_or_else(|e| panic!("invalid profile: {e}"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1c05_7a11);
    let layout = synthesize(profile, &mut rng);
    let warm_code = warm_code_set(&layout);
    let mut walker = Walker::new(profile, layout, rng);
    walker.run(n_insts);
    Workload {
        name: profile.name.to_string(),
        trace: Trace::from_insts(walker.insts),
        program: walker.program,
        warm_data: warm_data_set(profile).into(),
        warm_code: warm_code.into(),
    }
}

/// Steady-state data contents: large-but-L2-resident regions first, then
/// the regions that should end up L1-resident (stores, the hot L1 region,
/// and small pointer-chase tables). Memory-sized regions are deliberately
/// left cold — their accesses are genuine memory misses. Chase regions
/// bigger than the L2 likewise stay cold (mcf).
fn warm_data_set(profile: &BenchProfile) -> Vec<u64> {
    let mut warm = Vec::new();
    let mut lines = |base: u64, size: u64| {
        let mut a = base;
        while a < base + size {
            warm.push(a);
            a += 64;
        }
    };
    lines(L2_REGION.0, L2_REGION.1);
    if profile.chase_region_bytes <= 768 * 1024 && profile.chase_region_bytes > 16 * 1024 {
        lines(CHASE_BASE, profile.chase_region_bytes);
    }
    lines(STORE_REGION.0, STORE_REGION.1);
    lines(L1_REGION.0, L1_REGION.1);
    if profile.chase_region_bytes <= 16 * 1024 {
        lines(CHASE_BASE, profile.chase_region_bytes);
    }
    warm
}

/// Steady-state code contents: every block, helper and dispatcher line.
fn warm_code_set(layout: &Layout) -> Vec<u64> {
    let mut warm = Vec::new();
    let mut block_lines = |base: u64| {
        let mut a = base;
        while a < base + BLOCK_STRIDE {
            warm.push(a);
            a += 64;
        }
    };
    if let Some(d) = layout.dispatcher {
        block_lines(d);
    }
    for b in &layout.blocks {
        block_lines(b.base);
    }
    for f in &layout.funcs {
        block_lines(f.base);
    }
    warm
}

struct Layout {
    blocks: Vec<Block>,
    funcs: Vec<Func>,
    dispatcher: Option<u64>,
}

fn chase_reg() -> Reg {
    Reg::int(25)
}
fn counter_reg() -> Reg {
    Reg::int(27)
}
fn free_reg() -> Reg {
    Reg::int(30)
}

fn body_dst(slot: usize) -> Reg {
    Reg::int(1 + (slot % 20) as u8)
}

/// Statically synthesize the code: blocks, helper functions, dispatcher.
fn synthesize(profile: &BenchProfile, rng: &mut StdRng) -> Layout {
    let has_dispatch = profile.indirect_frac > 0.0;
    let mut next_base = CODE_BASE;
    let dispatcher = if has_dispatch {
        let d = next_base;
        next_base += BLOCK_STRIDE;
        Some(d)
    } else {
        None
    };

    let mut blocks = Vec::with_capacity(profile.code_blocks);
    let mut funcs = Vec::new();
    for b in 0..profile.code_blocks {
        let mut slots = Vec::with_capacity(profile.block_len);
        let mut last_load_dst: Option<Reg> = None;
        let mut prev_dst: Option<Reg> = None;
        let mut block_has_chase = false;
        let makes_call = rng.random_bool(profile.call_frac);
        let call_slot = if makes_call {
            Some(rng.random_range(0..profile.block_len))
        } else {
            None
        };
        for s in 0..profile.block_len {
            if call_slot == Some(s) {
                // Helper functions are shared round-robin.
                let func = b % 3;
                slots.push(Slot::Call { func });
                continue;
            }
            let roll: f64 = rng.random();
            if roll < profile.load_frac {
                let chase = rng.random_bool(profile.chase_frac);
                if chase {
                    // A carried chain (mcf list traversal) always depends
                    // on the previous chase load; a per-iteration walk
                    // restarts at the first chase load of the body.
                    let addr_src = if profile.chase_carried || block_has_chase {
                        Some(chase_reg())
                    } else {
                        None
                    };
                    block_has_chase = true;
                    slots.push(Slot::Load {
                        dst: chase_reg(),
                        addr_src,
                        gen: AddrGen::Chase,
                    });
                    last_load_dst = Some(chase_reg());
                    prev_dst = Some(chase_reg());
                } else {
                    let r: f64 = rng.random();
                    let gen = if r < profile.l1_resident_frac {
                        AddrGen::L1
                    } else if r < profile.l1_resident_frac + profile.l2_resident_frac {
                        AddrGen::L2
                    } else {
                        AddrGen::Mem
                    };
                    let dst = body_dst(s);
                    slots.push(Slot::Load {
                        dst,
                        addr_src: None,
                        gen,
                    });
                    last_load_dst = Some(dst);
                    prev_dst = Some(dst);
                }
            } else if roll < profile.load_frac + profile.store_frac {
                let src = if s > 0 { body_dst(s - 1) } else { free_reg() };
                slots.push(Slot::Store {
                    src,
                    gen: AddrGen::L1,
                });
            } else if roll < profile.load_frac + profile.store_frac + profile.branch_frac {
                let wild = rng.random_bool(profile.wild_branch_frac);
                // Some wild branches test freshly loaded data — they
                // resolve only when the feeding load completes (the
                // serial bmisp+dmiss shape); the rest test
                // quickly-available values.
                let cond = if wild && rng.random_bool(profile.branch_feed_load_frac) {
                    // Chase-heavy code tests the chased value itself
                    // (mcf's arc comparisons), putting the misprediction
                    // loop in series with the miss chain.
                    if block_has_chase && rng.random_bool(0.8) {
                        chase_reg()
                    } else {
                        last_load_dst.unwrap_or(free_reg())
                    }
                } else {
                    counter_reg()
                };
                // Tame branches are strongly biased (a bimodal predictor
                // learns them to a ~2-3% floor); wild ones are coin flips.
                let taken_prob = if wild {
                    0.5
                } else if rng.random_bool(0.5) {
                    0.025
                } else {
                    0.975
                };
                let skip = rng.random_range(1..=3usize);
                slots.push(Slot::Hammock {
                    cond,
                    skip,
                    taken_prob,
                });
            } else {
                let long = rng.random_bool(profile.long_alu_frac);
                let op = if long {
                    if rng.random_bool(profile.fp_frac) {
                        match rng.random_range(0..3u8) {
                            0 => OpClass::FpAlu,
                            1 => OpClass::FpMult,
                            _ => OpClass::FpDiv,
                        }
                    } else {
                        OpClass::IntMult
                    }
                } else {
                    OpClass::IntAlu
                };
                let dst = body_dst(s);
                let near = rng.random_bool(profile.dep_near_frac);
                // Near sources chain through the most recent value —
                // whether a load result (load-use chains, putting the L1
                // latency on the critical path) or the previous compute.
                let src0 = if near {
                    prev_dst.unwrap_or(free_reg())
                } else {
                    free_reg()
                };
                let src1 = if rng.random_bool(0.25) {
                    last_load_dst.filter(|r| Some(*r) != Some(src0))
                } else {
                    None
                };
                slots.push(Slot::Compute {
                    op,
                    dst,
                    srcs: [Some(src0), src1],
                });
                prev_dst = Some(dst);
            }
        }
        blocks.push(Block {
            base: next_base,
            slots,
        });
        next_base += BLOCK_STRIDE;
    }

    // Three shared helper functions.
    for _ in 0..3 {
        let len = rng.random_range(4..=8usize);
        let mut slots = Vec::with_capacity(len);
        for s in 0..len {
            slots.push(Slot::Compute {
                op: OpClass::IntAlu,
                dst: body_dst(s),
                srcs: [Some(if s > 0 { body_dst(s - 1) } else { free_reg() }), None],
            });
        }
        funcs.push(Func {
            base: next_base,
            slots,
        });
        next_base += BLOCK_STRIDE;
    }

    Layout {
        blocks,
        funcs,
        dispatcher,
    }
}

/// The dynamic walker: executes the synthesized control flow, emitting
/// instructions and registering the static image.
struct Walker<'p> {
    profile: &'p BenchProfile,
    layout: Layout,
    rng: StdRng,
    insts: Vec<Inst>,
    program: StaticProgram,
    budget: usize,
}

impl<'p> Walker<'p> {
    fn new(profile: &'p BenchProfile, layout: Layout, rng: StdRng) -> Walker<'p> {
        Walker {
            profile,
            layout,
            rng,
            insts: Vec::new(),
            program: StaticProgram::new(),
            budget: 0,
        }
    }

    fn done(&self) -> bool {
        self.insts.len() >= self.budget
    }

    fn run(&mut self, n_insts: usize) {
        self.budget = n_insts;
        let nblocks = self.layout.blocks.len();
        let mut next_block = 0usize;
        while !self.done() {
            if let Some(dispatcher_base) = self.layout.dispatcher {
                self.emit_dispatcher(dispatcher_base, next_block);
            }
            if self.done() {
                break;
            }
            self.emit_block_visit(next_block);
            next_block = (next_block + 1) % nblocks;
        }
        self.insts.truncate(self.budget);
        // The final instruction's fall-through may dangle; that is fine for
        // a trace suffix. Ensure connectivity by construction elsewhere.
    }

    /// Record a static instruction (first emission wins; identical decode
    /// is guaranteed by construction).
    fn register(&mut self, inst: &Inst) {
        if self.program.lookup(inst.pc).is_none() {
            let mut si = StaticInst::from(inst);
            // For conditional branches observed first as not-taken we still
            // know the target statically.
            if inst.op == OpClass::CondBranch && !inst.taken {
                si.direct_target = None; // filled when first taken
            }
            self.program.insert(si);
        } else if inst.op.is_branch() && !inst.op.is_indirect() && inst.taken {
            // Learn the direct target if the first sighting was not-taken.
            let si = self
                .program
                .lookup(inst.pc)
                .copied()
                .expect("checked above");
            if si.direct_target.is_none() {
                let mut si = si;
                si.direct_target = Some(inst.next_pc);
                self.program.insert(si);
            }
        }
    }

    fn push(&mut self, inst: Inst) {
        self.register(&inst);
        self.insts.push(inst);
    }

    fn addr_for(&mut self, gen: AddrGen) -> u64 {
        let (base, size) = match gen {
            AddrGen::L1 => L1_REGION,
            AddrGen::L2 => L2_REGION,
            AddrGen::Mem => MEM_REGION,
            AddrGen::Chase => (CHASE_BASE, self.profile.chase_region_bytes),
        };
        base + (self.rng.random_range(0..size / 8)) * 8
    }

    /// Emit the dispatcher: a couple of ALU ops plus an indirect jump to
    /// the chosen block (dispatch through a jump table, perl-style).
    fn emit_dispatcher(&mut self, base: u64, target_block: usize) {
        let target = self.layout.blocks[target_block].base;
        let mut pc = base;
        for s in 0..2 {
            let mut i = Inst::new(pc, OpClass::IntAlu);
            i.dst = Some(body_dst(s));
            i.srcs[0] = Some(free_reg());
            self.push(i);
            pc += 4;
            if self.done() {
                return;
            }
        }
        let mut j = Inst::new(pc, OpClass::IndirectJump);
        j.srcs[0] = Some(free_reg());
        j.taken = true;
        j.next_pc = target;
        self.push(j);
    }

    /// Emit one visit to block `b`: `iters_per_visit` loop iterations.
    fn emit_block_visit(&mut self, b: usize) {
        let iters = self.profile.iters_per_visit;
        for k in 0..iters {
            if self.done() {
                return;
            }
            let last = k + 1 == iters;
            self.emit_iteration(b, last);
        }
        // Loop exited: transfer to the next region of code.
        if self.done() {
            return;
        }
        let block_base = self.layout.blocks[b].base;
        let exit_pc = self.block_exit_pc(b);
        let target = if let Some(d) = self.layout.dispatcher {
            d
        } else {
            let nb = (b + 1) % self.layout.blocks.len();
            self.layout.blocks[nb].base
        };
        let mut j = Inst::new(exit_pc, OpClass::Jump);
        j.taken = true;
        j.next_pc = target;
        debug_assert!(exit_pc > block_base);
        self.push(j);
    }

    /// PC of slot `s` of block `b` (accounting for per-slot emission
    /// width: calls expand dynamically but occupy one static slot).
    fn slot_pc(&self, b: usize, s: usize) -> u64 {
        self.layout.blocks[b].base + (s as u64) * 4
    }

    /// The back-edge trio starts right after the body slots.
    fn backedge_pc(&self, b: usize) -> u64 {
        self.slot_pc(b, self.layout.blocks[b].slots.len())
    }

    fn block_exit_pc(&self, b: usize) -> u64 {
        // counter update + back-edge, then the exit jump.
        self.backedge_pc(b) + 8
    }

    fn emit_iteration(&mut self, b: usize, last: bool) {
        let nslots = self.layout.blocks[b].slots.len();
        let mut s = 0usize;
        while s < nslots {
            if self.done() {
                return;
            }
            let slot = self.layout.blocks[b].slots[s];
            let pc = self.slot_pc(b, s);
            match slot {
                Slot::Compute { op, dst, srcs } => {
                    let mut i = Inst::new(pc, op);
                    i.dst = Some(dst);
                    i.srcs = srcs;
                    self.push(i);
                    s += 1;
                }
                Slot::Load { dst, addr_src, gen } => {
                    let mut i = Inst::new(pc, OpClass::Load);
                    i.dst = Some(dst);
                    i.srcs[0] = addr_src;
                    i.mem_addr = self.addr_for(gen);
                    self.push(i);
                    s += 1;
                }
                Slot::Store { src, gen } => {
                    let mut i = Inst::new(pc, OpClass::Store);
                    i.srcs[0] = Some(src);
                    i.mem_addr = {
                        let _ = gen;
                        let (base, size) = STORE_REGION;
                        base + self.rng.random_range(0..size / 8) * 8
                    };
                    self.push(i);
                    s += 1;
                }
                Slot::Hammock {
                    cond,
                    skip,
                    taken_prob,
                } => {
                    let taken = self.rng.random_bool(taken_prob);
                    let skip = skip.min(nslots - s - 1);
                    let target = self.slot_pc(b, s + 1 + skip);
                    let mut i = Inst::new(pc, OpClass::CondBranch);
                    i.srcs[0] = Some(cond);
                    i.taken = taken && skip > 0;
                    i.next_pc = if i.taken { target } else { pc + 4 };
                    self.push(i);
                    s += 1 + if i.taken { skip } else { 0 };
                }
                Slot::Call { func } => {
                    self.emit_call(pc, func);
                    s += 1;
                }
            }
        }
        if self.done() {
            return;
        }
        // Terminator: counter update + back-edge.
        let bpc = self.backedge_pc(b);
        let mut upd = Inst::new(bpc, OpClass::IntAlu);
        upd.dst = Some(counter_reg());
        upd.srcs[0] = Some(counter_reg());
        self.push(upd);
        if self.done() {
            return;
        }
        let mut br = Inst::new(bpc + 4, OpClass::CondBranch);
        br.srcs[0] = Some(counter_reg());
        br.taken = !last;
        br.next_pc = if last {
            bpc + 8
        } else {
            self.layout.blocks[b].base
        };
        self.push(br);
    }

    fn emit_call(&mut self, pc: u64, func: usize) {
        let f = &self.layout.funcs[func];
        let fbase = f.base;
        let flen = f.slots.len();
        let mut call = Inst::new(pc, OpClass::Call);
        call.taken = true;
        call.next_pc = fbase;
        self.push(call);
        for (s, slot) in self.layout.funcs[func].slots.clone().iter().enumerate() {
            if self.done() {
                return;
            }
            if let Slot::Compute { op, dst, srcs } = slot {
                let mut i = Inst::new(fbase + (s as u64) * 4, *op);
                i.dst = Some(*dst);
                i.srcs = *srcs;
                self.push(i);
            }
        }
        if self.done() {
            return;
        }
        let mut ret = Inst::new(fbase + (flen as u64) * 4, OpClass::Return);
        ret.taken = true;
        ret.next_pc = pc + 4;
        self.push(ret);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::{Idealization, Simulator};
    use uarch_trace::MachineConfig;

    #[test]
    fn generates_exact_length_connected_trace() {
        for name in ["gcc", "mcf", "perl", "vortex"] {
            let p = BenchProfile::by_name(name).expect("known");
            let w = generate(p, 3_000, 7);
            assert_eq!(w.trace.len(), 3_000, "{name}");
            // Connectivity is asserted inside Trace::from_insts.
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = BenchProfile::by_name("gzip").expect("known");
        let a = generate(p, 2_000, 11);
        let b = generate(p, 2_000, 11);
        assert_eq!(a.trace.insts(), b.trace.insts());
        let c = generate(p, 2_000, 12);
        assert_ne!(a.trace.insts(), c.trace.insts());
    }

    #[test]
    fn static_program_consistent_with_trace() {
        let p = BenchProfile::by_name("gcc").expect("known");
        let w = generate(p, 5_000, 3);
        for inst in &w.trace {
            let si = w
                .program
                .lookup(inst.pc)
                .unwrap_or_else(|| panic!("pc {:#x} missing from program", inst.pc));
            assert_eq!(si.op, inst.op, "pc {:#x}", inst.pc);
            assert_eq!(si.dst, inst.dst);
            assert_eq!(si.srcs, inst.srcs);
        }
    }

    #[test]
    fn mcf_misses_more_than_gzip() {
        let cfg = MachineConfig::table6();
        let sim = Simulator::new(&cfg);
        let mcf = generate(BenchProfile::by_name("mcf").expect("mcf"), 20_000, 1);
        let gzip = generate(BenchProfile::by_name("gzip").expect("gzip"), 20_000, 1);
        let rm = sim.run(&mcf.trace, Idealization::none());
        let rg = sim.run(&gzip.trace, Idealization::none());
        let miss_m = rm.load_miss_rate().expect("mcf has loads");
        let miss_g = rg.load_miss_rate().expect("gzip has loads");
        assert!(
            miss_m > miss_g + 0.05,
            "mcf {miss_m:.3} should out-miss gzip {miss_g:.3}"
        );
    }

    #[test]
    fn vortex_branches_predict_better_than_bzip() {
        let cfg = MachineConfig::table6();
        let sim = Simulator::new(&cfg);
        let v = generate(BenchProfile::by_name("vortex").expect("vortex"), 20_000, 1);
        let z = generate(BenchProfile::by_name("bzip").expect("bzip"), 20_000, 1);
        let rv = sim.run(&v.trace, Idealization::none());
        let rz = sim.run(&z.trace, Idealization::none());
        let rate_v = rv.mispredict_rate().expect("vortex has branches");
        let rate_z = rz.mispredict_rate().expect("bzip has branches");
        assert!(
            rate_v < rate_z / 2.0,
            "vortex ({rate_v:.3}) should mispredict far less than bzip ({rate_z:.3})"
        );
        assert!(rate_v < 0.12, "vortex mispredict rate {rate_v:.3} absurd");
    }

    #[test]
    fn bzip_branches_mispredict_often() {
        let cfg = MachineConfig::table6();
        let sim = Simulator::new(&cfg);
        let w = generate(BenchProfile::by_name("bzip").expect("bzip"), 20_000, 1);
        let r = sim.run(&w.trace, Idealization::none());
        let rate = r.mispredict_rate().expect("has branches");
        assert!(rate > 0.10, "bzip mispredict rate {rate:.3} too low");
    }

    #[test]
    fn whole_suite_simulates_with_invariants() {
        let cfg = MachineConfig::table6();
        let sim = Simulator::new(&cfg);
        for p in BenchProfile::suite() {
            let w = generate(p, 4_000, 99);
            let r = sim.run(&w.trace, Idealization::none());
            r.check_invariants(&w.trace)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(r.cycles > 0);
        }
    }
}

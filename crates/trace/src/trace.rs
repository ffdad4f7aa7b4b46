//! Dynamic traces and a builder for hand-constructing micro-kernels.

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::fingerprint::StableHasher;
use crate::inst::{Inst, OpClass, Reg, INST_BYTES};

/// A microexecution trace: the dynamic instruction stream one program run
/// produces, in program order.
///
/// Equality compares the instructions. [`Hash`] writes only the 64-bit
/// [`Trace::fingerprint`], so hashing a trace is O(1) after the first
/// time.
#[derive(Clone, Default)]
pub struct Trace {
    insts: Vec<Inst>,
    /// The content fingerprint, computed on first use. Never stale: the
    /// instructions cannot change after construction.
    fingerprint: OnceLock<u64>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace").field("insts", &self.insts).finish()
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.insts == other.insts
    }
}

impl Eq for Trace {}

impl Hash for Trace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Build a trace from raw instructions.
    ///
    /// # Panics
    /// Panics if any instruction's `next_pc` disagrees with the following
    /// instruction's `pc` (the trace must be a connected dynamic path).
    pub fn from_insts(insts: Vec<Inst>) -> Trace {
        for w in insts.windows(2) {
            assert_eq!(
                w[0].next_pc, w[1].pc,
                "trace is not a connected dynamic path at pc {:#x}",
                w[0].pc
            );
        }
        Trace {
            insts,
            fingerprint: OnceLock::new(),
        }
    }

    /// A stable 64-bit fingerprint of the instructions ([`StableHasher`]
    /// over them), equal for equal traces in any process. The first call
    /// walks the trace; later calls, and calls on clones, are O(1).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = StableHasher::default();
            self.insts.hash(&mut h);
            h.finish()
        })
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Iterate over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// The instruction at dynamic index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn inst(&self, i: usize) -> &Inst {
        &self.insts[i]
    }

    /// Count instructions satisfying a predicate (handy in tests and
    /// workload calibration).
    pub fn count_where(&self, pred: impl Fn(&Inst) -> bool) -> usize {
        self.insts.iter().filter(|i| pred(i)).count()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Inst;
    type IntoIter = std::slice::Iter<'a, Inst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl FromIterator<Inst> for Trace {
    fn from_iter<I: IntoIterator<Item = Inst>>(iter: I) -> Trace {
        Trace::from_insts(iter.into_iter().collect())
    }
}

/// Builder for hand-written dynamic traces (micro-kernels used throughout
/// the tests, examples and Figure 1 reproduction).
///
/// PCs are assigned sequentially from a start address; control transfers
/// update the PC cursor so the resulting trace is a valid dynamic path.
///
/// # Example
///
/// ```
/// use uarch_trace::{TraceBuilder, Reg};
///
/// let mut b = TraceBuilder::new();
/// let (r1, r2) = (Reg::int(1), Reg::int(2));
/// b.load(r1, 0x8000);          // may miss
/// b.load(r2, 0x9000);          // independent: may miss in parallel
/// b.alu(Reg::int(3), &[r1, r2]);
/// let t = b.finish();
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    insts: Vec<Inst>,
    pc: u64,
}

impl Default for TraceBuilder {
    fn default() -> TraceBuilder {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// Default code start address.
    pub const DEFAULT_BASE: u64 = 0x1000;

    /// A builder starting at [`TraceBuilder::DEFAULT_BASE`].
    pub fn new() -> TraceBuilder {
        TraceBuilder::at(Self::DEFAULT_BASE)
    }

    /// A builder starting at `base`.
    pub fn at(base: u64) -> TraceBuilder {
        TraceBuilder {
            insts: Vec::new(),
            pc: base,
        }
    }

    /// The PC the next instruction will get.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Jump the PC cursor (models a dynamic control transfer into a
    /// different static region; fixes up the previous instruction's
    /// `next_pc` if it was a fall-through).
    pub fn set_pc(&mut self, pc: u64) -> &mut Self {
        if let Some(last) = self.insts.last_mut() {
            if !last.op.is_branch() {
                last.next_pc = pc;
            }
        }
        self.pc = pc;
        self
    }

    fn push(&mut self, mut inst: Inst) -> &mut Self {
        inst.pc = self.pc;
        if !inst.op.is_branch() || !inst.taken {
            inst.next_pc = self.pc + INST_BYTES;
        }
        self.pc = inst.next_pc;
        self.insts.push(inst);
        self
    }

    /// Append a single-cycle integer ALU op reading `srcs` (at most two).
    ///
    /// # Panics
    /// Panics if `srcs.len() > 2`.
    pub fn alu(&mut self, dst: Reg, srcs: &[Reg]) -> &mut Self {
        self.op(OpClass::IntAlu, Some(dst), srcs)
    }

    /// Append an op of an explicit class.
    ///
    /// # Panics
    /// Panics if `srcs.len() > 2`.
    pub fn op(&mut self, op: OpClass, dst: Option<Reg>, srcs: &[Reg]) -> &mut Self {
        assert!(srcs.len() <= 2, "at most two source registers");
        let mut inst = Inst::new(self.pc, op);
        inst.dst = dst;
        for (slot, r) in inst.srcs.iter_mut().zip(srcs) {
            *slot = Some(*r);
        }
        self.push(inst)
    }

    /// Append a load of `addr` into `dst` (address register dependences can
    /// be added with [`TraceBuilder::load_indexed`]).
    pub fn load(&mut self, dst: Reg, addr: u64) -> &mut Self {
        let mut inst = Inst::new(self.pc, OpClass::Load);
        inst.dst = Some(dst);
        inst.mem_addr = addr;
        self.push(inst)
    }

    /// Append a load whose address depends on `base_reg` (pointer chasing).
    pub fn load_indexed(&mut self, dst: Reg, base_reg: Reg, addr: u64) -> &mut Self {
        let mut inst = Inst::new(self.pc, OpClass::Load);
        inst.dst = Some(dst);
        inst.srcs[0] = Some(base_reg);
        inst.mem_addr = addr;
        self.push(inst)
    }

    /// Append a store of `src` to `addr`.
    pub fn store(&mut self, src: Reg, addr: u64) -> &mut Self {
        let mut inst = Inst::new(self.pc, OpClass::Store);
        inst.srcs[0] = Some(src);
        inst.mem_addr = addr;
        self.push(inst)
    }

    /// Append a conditional branch on `cond_reg`, with actual outcome
    /// `taken` and taken-target `target`.
    pub fn branch(&mut self, cond_reg: Reg, taken: bool, target: u64) -> &mut Self {
        let mut inst = Inst::new(self.pc, OpClass::CondBranch);
        inst.srcs[0] = Some(cond_reg);
        inst.taken = taken;
        inst.next_pc = if taken { target } else { self.pc + INST_BYTES };
        self.push(inst)
    }

    /// Append an unconditional direct jump to `target`.
    pub fn jump(&mut self, target: u64) -> &mut Self {
        let mut inst = Inst::new(self.pc, OpClass::Jump);
        inst.taken = true;
        inst.next_pc = target;
        self.push(inst)
    }

    /// Append `n` no-ops.
    pub fn nops(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            self.op(OpClass::Nop, None, &[]);
        }
        self
    }

    /// Emit a counted loop: `iters` executions of `body` at the *same*
    /// static PCs, each followed by a conditional back-edge on `cond_reg`
    /// (taken on all but the last iteration). This is how kernels get
    /// realistic instruction-cache and branch-predictor behaviour — the
    /// code is hot after the first iteration.
    ///
    /// The body may take different dynamic paths per iteration (e.g.
    /// hammocks via [`TraceBuilder::set_pc`]), but must always end at the
    /// same PC so the back-edge branch has a consistent address.
    ///
    /// # Panics
    /// Panics if `iters == 0` or if the body ends at a different PC on
    /// some iteration.
    pub fn counted_loop(
        &mut self,
        iters: usize,
        cond_reg: Reg,
        mut body: impl FnMut(&mut TraceBuilder, usize),
    ) -> &mut Self {
        assert!(iters > 0, "loop must run at least once");
        let head = self.pc;
        let mut end_pc = None;
        for k in 0..iters {
            body(self, k);
            match end_pc {
                None => end_pc = Some(self.pc),
                Some(expected) => assert_eq!(
                    expected, self.pc,
                    "loop body ended at {:#x} on iteration {k}, expected {expected:#x}",
                    self.pc
                ),
            }
            let last = k + 1 == iters;
            self.branch(cond_reg, !last, head);
            if !last {
                debug_assert_eq!(self.pc, head);
            }
        }
        self
    }

    /// Finish, returning the trace.
    pub fn finish(&mut self) -> Trace {
        Trace::from_insts(std::mem::take(&mut self.insts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_connected_path() {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.load(r1, 0x100);
        b.alu(Reg::int(2), &[r1]);
        b.branch(Reg::int(2), true, 0x2000);
        b.set_pc(0x2000);
        b.alu(Reg::int(3), &[]);
        let t = b.finish();
        assert_eq!(t.len(), 4);
        assert_eq!(t.inst(2).next_pc, 0x2000);
        assert_eq!(t.inst(3).pc, 0x2000);
    }

    #[test]
    #[should_panic(expected = "connected dynamic path")]
    fn disconnected_trace_rejected() {
        let a = Inst::new(0x100, OpClass::IntAlu);
        let b = Inst::new(0x900, OpClass::IntAlu);
        let _ = Trace::from_insts(vec![a, b]);
    }

    #[test]
    fn set_pc_fixes_fall_through() {
        let mut b = TraceBuilder::new();
        b.alu(Reg::int(1), &[]);
        b.set_pc(0x4000);
        b.alu(Reg::int(2), &[]);
        let t = b.finish();
        assert_eq!(t.inst(0).next_pc, 0x4000);
    }

    #[test]
    fn not_taken_branch_falls_through() {
        let mut b = TraceBuilder::new();
        b.branch(Reg::int(1), false, 0x9000);
        b.alu(Reg::int(1), &[]);
        let t = b.finish();
        assert_eq!(t.inst(0).next_pc, t.inst(0).pc + 4);
    }

    #[test]
    fn count_where_counts() {
        let mut b = TraceBuilder::new();
        b.load(Reg::int(1), 0x10).nops(3).store(Reg::int(1), 0x20);
        let t = b.finish();
        assert_eq!(t.count_where(|i| i.op.is_mem()), 2);
        assert_eq!(t.count_where(|i| i.op == OpClass::Nop), 3);
    }

    #[test]
    fn counted_loop_repeats_pcs() {
        let mut b = TraceBuilder::new();
        let r = Reg::int(1);
        b.counted_loop(3, r, |b, k| {
            b.load(r, 0x100 + k as u64 * 8);
            b.alu(Reg::int(2), &[r]);
        });
        let t = b.finish();
        // 3 iterations × (2 body insts + 1 back-edge).
        assert_eq!(t.len(), 9);
        // Same static PCs each iteration.
        assert_eq!(t.inst(0).pc, t.inst(3).pc);
        assert_eq!(t.inst(2).pc, t.inst(5).pc);
        // Back-edge taken twice, then falls through.
        assert!(t.inst(2).taken && t.inst(5).taken && !t.inst(8).taken);
        // Dynamic addresses may differ per iteration.
        assert_ne!(t.inst(0).mem_addr, t.inst(3).mem_addr);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn counted_loop_rejects_varying_end_pc() {
        let mut b = TraceBuilder::new();
        b.counted_loop(2, Reg::int(1), |b, k| {
            b.nops(k + 1);
        });
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn counted_loop_rejects_zero_iters() {
        let mut b = TraceBuilder::new();
        b.counted_loop(0, Reg::int(1), |_, _| {});
    }

    /// Counts the bytes a `Hash` impl writes.
    #[derive(Default)]
    struct ByteCounter(usize);

    impl Hasher for ByteCounter {
        fn finish(&self) -> u64 {
            self.0 as u64
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0 += bytes.len();
        }
    }

    #[test]
    fn hashing_a_fingerprinted_trace_is_constant_size() {
        for n in [10, 10_000] {
            let mut b = TraceBuilder::new();
            b.nops(n);
            let t = b.finish();
            t.fingerprint();
            let mut h = ByteCounter::default();
            t.hash(&mut h);
            assert_eq!(h.0, 8, "{n} insts must hash as one u64");
        }
    }

    #[test]
    fn trace_iteration() {
        let mut b = TraceBuilder::new();
        b.nops(5);
        let t = b.finish();
        assert_eq!(t.iter().count(), 5);
        assert_eq!((&t).into_iter().count(), 5);
        assert!(!t.is_empty());
        assert!(Trace::new().is_empty());
    }
}

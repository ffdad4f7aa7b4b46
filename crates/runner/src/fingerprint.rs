//! Stable content fingerprints for simulation contexts.
//!
//! The cache is *content-addressed*: a simulation result is keyed by what
//! was simulated — the dynamic trace, the machine configuration, the warm
//! sets — never by object identity. Two oracles over equal inputs share
//! cache entries; a changed config hashes to a fresh context and can never
//! alias stale results.
//!
//! Hashing is FNV-1a over the types' `Hash` impls, so fingerprints are
//! stable across runs and platforms (unlike `DefaultHasher`, whose
//! algorithm is unspecified); this is what makes the optional on-disk
//! cache layer safe to reuse between processes.

use std::hash::{Hash, Hasher};

use uarch_trace::{MachineConfig, Trace};

/// A 64-bit FNV-1a [`Hasher`] with a fixed, documented algorithm.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    // Fixed-width integers hash as little-endian bytes regardless of the
    // host platform (the std defaults use native endianness, which would
    // make on-disk cache keys non-portable).
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Identifies one simulation context: `(trace, config, warm sets)`.
///
/// Together with the idealized [`EventSet`](uarch_trace::EventSet) this
/// forms the full job key — see [`SimCache`](crate::SimCache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u64);

impl ContextId {
    /// Derive a sub-context for results produced by a different *method*
    /// over the same inputs (e.g. dependence-graph analysis vs
    /// ground-truth re-simulation). Tagged contexts can never alias the
    /// untagged one in a shared [`SimCache`](crate::SimCache), so
    /// approximate and exact results stay separate.
    pub fn tagged(self, tag: &str) -> ContextId {
        let mut h = StableHasher::default();
        self.0.hash(&mut h);
        tag.hash(&mut h);
        ContextId(h.finish())
    }

    /// The key graph answers about this context live under: the
    /// `"graph"` sub-context of a simulation context (for a graph built
    /// from its baseline) or of a graph's content hash. The one place
    /// the tag is spelled, so every owner of a context derives the same
    /// graph key.
    pub(crate) fn graph(self) -> ContextId {
        self.tagged("graph")
    }
}

impl std::fmt::Display for ContextId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Fingerprint a dependence-graph analysis context: the graph's
/// per-instruction node data and evaluation parameters, tagged `"graph"`
/// so lane-kernel results never alias ground-truth simulation entries
/// keyed by [`context_id`].
pub fn graph_context_id(graph: &uarch_graph::DepGraph) -> ContextId {
    let mut h = StableHasher::default();
    graph.insts().hash(&mut h);
    graph.params().hash(&mut h);
    ContextId(h.finish()).graph()
}

/// Fingerprint a full simulation context.
pub fn context_id(
    config: &MachineConfig,
    trace: &Trace,
    warm_data: &[u64],
    warm_code: &[u64],
) -> ContextId {
    let mut h = StableHasher::default();
    config.hash(&mut h);
    trace.hash(&mut h);
    warm_data.hash(&mut h);
    warm_code.hash(&mut h);
    ContextId(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::{Reg, TraceBuilder};

    fn trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        for k in 0..n {
            b.load(Reg::int(1), 0x1000 + k * 8);
        }
        b.finish()
    }

    #[test]
    fn equal_inputs_share_a_context() {
        let cfg = MachineConfig::table6();
        let a = context_id(&cfg, &trace(5), &[], &[]);
        let b = context_id(&cfg.clone(), &trace(5), &[], &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn any_input_change_moves_the_context() {
        let cfg = MachineConfig::table6();
        let base = context_id(&cfg, &trace(5), &[], &[]);
        assert_ne!(base, context_id(&cfg, &trace(6), &[], &[]));
        assert_ne!(
            base,
            context_id(&cfg.clone().with_dl1_latency(4), &trace(5), &[], &[])
        );
        assert_ne!(base, context_id(&cfg, &trace(5), &[0x1000], &[]));
        assert_ne!(base, context_id(&cfg, &trace(5), &[], &[0x1000]));
    }

    #[test]
    fn tags_separate_methods() {
        let cfg = MachineConfig::table6();
        let base = context_id(&cfg, &trace(5), &[], &[]);
        assert_ne!(base, base.tagged("graph"));
        assert_ne!(base.tagged("graph"), base.tagged("profiler"));
        assert_eq!(base.tagged("graph"), base.tagged("graph"));
    }

    #[test]
    fn fingerprints_are_stable_values() {
        // Pin one fingerprint: a change here means every on-disk cache in
        // the wild silently invalidates, which should be a conscious
        // decision, not an accident.
        let mut h = StableHasher::default();
        0xdead_beef_u64.hash(&mut h);
        assert_eq!(h.finish(), 0x7513_fc78_a110_e05b);
    }
}

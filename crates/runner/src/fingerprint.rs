//! Stable content fingerprints for simulation contexts.
//!
//! The cache is *content-addressed*: a simulation result is keyed by what
//! was simulated — the dynamic trace, the machine configuration, the warm
//! sets — never by object identity. Two oracles over equal inputs share
//! cache entries; a changed config hashes to a fresh context and can never
//! alias stale results.
//!
//! Hashing is FNV-1a ([`StableHasher`]) over the types' `Hash` impls, so
//! fingerprints are stable across runs and platforms (unlike
//! `DefaultHasher`, whose algorithm is unspecified); this is what makes
//! the optional on-disk cache layer safe to reuse between processes.
//!
//! A [`Trace`] and a [`DepGraph`](uarch_graph::DepGraph) each fingerprint
//! their content once, on first use, and keep the value (clones too), and
//! a [`WarmSet`] remembers its first fold into the hasher, so deriving a
//! context id again is O(config), not O(instructions + warm addresses).
//! [`context_id`] folds in the trace's 64-bit fingerprint and then the
//! warm sets' bytes (the memo replays them, so ids are the same as a
//! plain walk's); [`graph_context_id`] is the graph's fingerprint tagged
//! `"graph"`. Simulation context ids changed once with this scheme (they
//! used to walk the instructions after the config); graph context ids
//! did not, and job result hashes never depend on either. Disk-cache
//! files and ledger replay records under the old simulation ids simply
//! miss, are never misread, and age out under the cache's age budget.

use std::hash::{Hash, Hasher};

use uarch_trace::{MachineConfig, StableHasher, Trace, WarmSet};

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
/// per-instruction node data and evaluation parameters
/// ([`DepGraph::fingerprint`](uarch_graph::DepGraph::fingerprint)),
/// tagged `"graph"` so lane-kernel results never alias ground-truth
/// simulation entries keyed by [`context_id`].
pub fn graph_context_id(graph: &uarch_graph::DepGraph) -> ContextId {
    ContextId(graph.fingerprint()).graph()
}

/// Fingerprint a full simulation context. O(config) once the trace has
/// been fingerprinted and the warm sets have folded once under this
/// config and trace.
pub fn context_id(
    config: &MachineConfig,
    trace: &Trace,
    warm_data: &WarmSet,
    warm_code: &WarmSet,
) -> ContextId {
    let mut h = StableHasher::default();
    config.hash(&mut h);
    trace.fingerprint().hash(&mut h);
    warm_data.fold_into(&mut h);
    warm_code.fold_into(&mut h);
    ContextId(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::{Reg, TraceBuilder};

    fn cold() -> WarmSet {
        WarmSet::new()
    }

    fn warm(addrs: &[u64]) -> WarmSet {
        WarmSet::from(addrs.to_vec())
    }

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
        let a = context_id(&cfg, &trace(5), &cold(), &cold());
        let b = context_id(&cfg.clone(), &trace(5), &cold(), &cold());
        assert_eq!(a, b);
    }

    #[test]
    fn any_input_change_moves_the_context() {
        let cfg = MachineConfig::table6();
        let base = context_id(&cfg, &trace(5), &cold(), &cold());
        assert_ne!(base, context_id(&cfg, &trace(6), &cold(), &cold()));
        assert_ne!(
            base,
            context_id(
                &cfg.clone().with_dl1_latency(4),
                &trace(5),
                &cold(),
                &cold()
            )
        );
        assert_ne!(base, context_id(&cfg, &trace(5), &warm(&[0x1000]), &cold()));
        assert_ne!(base, context_id(&cfg, &trace(5), &cold(), &warm(&[0x1000])));
    }

    /// Ids from before warm sets memoized their fold, when every call
    /// walked them as plain slices: the memo replays the same bytes, so
    /// disk caches and ledgers keep their keys.
    #[test]
    fn context_ids_match_the_plain_walk() {
        use uarch_workloads::{generate, BenchProfile};
        let cfg = MachineConfig::table6();
        let slow_l1 = cfg.clone().with_dl1_latency(4);
        let gzip = generate(BenchProfile::by_name("gzip").unwrap(), 2_000, 7);
        let mcf = generate(BenchProfile::by_name("mcf").unwrap(), 2_000, 7);
        // mcf's sets first fold under another config, so the pinned
        // context below walks them with a memo already in place.
        context_id(&cfg, &mcf.trace, &mcf.warm_data, &mcf.warm_code);
        let small = warm(&[0x1000]);
        for round in ["first fold", "memoized"] {
            let ids = [
                context_id(&cfg, &gzip.trace, &cold(), &cold()),
                context_id(&cfg, &gzip.trace, &gzip.warm_data, &gzip.warm_code),
                context_id(&slow_l1, &mcf.trace, &mcf.warm_data, &mcf.warm_code),
                context_id(&cfg, &trace(5), &small, &cold()),
            ];
            let hex: Vec<String> = ids.iter().map(ContextId::to_string).collect();
            assert_eq!(
                hex,
                [
                    "64ea02e8982a7940",
                    "0369041e5549a46b",
                    "6014e498e39b5885",
                    "0f68c7a8bb2e0be3"
                ],
                "{round}"
            );
        }
    }

    #[test]
    fn tags_separate_methods() {
        let cfg = MachineConfig::table6();
        let base = context_id(&cfg, &trace(5), &cold(), &cold());
        assert_ne!(base, base.tagged("graph"));
        assert_ne!(base.tagged("graph"), base.tagged("profiler"));
        assert_eq!(base.tagged("graph"), base.tagged("graph"));
    }

    #[test]
    fn fingerprinting_is_transparent_to_clones_and_equality() {
        let cfg = MachineConfig::table6();
        let hashed = trace(100);
        let id = context_id(&cfg, &hashed, &cold(), &cold());
        let copy = hashed.clone();
        assert_eq!(context_id(&cfg, &copy, &cold(), &cold()), id);
        let fresh = trace(100);
        assert_eq!(hashed, fresh, "a computed fingerprint is not content");
        assert_eq!(context_id(&cfg, &fresh, &cold(), &cold()), id);
    }

    #[test]
    fn one_deep_address_change_moves_the_context() {
        let cfg = MachineConfig::table6();
        let base = trace(10_000);
        let mut insts = base.insts().to_vec();
        insts[7_321].mem_addr ^= 0x40;
        let moved = Trace::from_insts(insts);
        assert_ne!(
            context_id(&cfg, &base, &cold(), &cold()),
            context_id(&cfg, &moved, &cold(), &cold())
        );
    }

    #[test]
    fn graph_ids_keep_the_inline_instruction_walk() {
        use uarch_graph::DepGraph;
        use uarch_sim::{Idealization, Simulator};
        let cfg = MachineConfig::table6();
        let t = trace(64);
        let res = Simulator::new(&cfg).run(&t, Idealization::none());
        let graph = DepGraph::build(&t, &res, &cfg);
        let mut h = StableHasher::default();
        graph.insts().hash(&mut h);
        graph.params().hash(&mut h);
        assert_eq!(graph_context_id(&graph), ContextId(h.finish()).graph());
        assert_eq!(graph_context_id(&graph.clone()), graph_context_id(&graph));
    }
}

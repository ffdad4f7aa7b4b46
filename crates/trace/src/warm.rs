//! Warm sets: the addresses a simulation touches before timing.

use std::hash::Hash;
use std::ops::Deref;
use std::sync::OnceLock;

use crate::fingerprint::StableHasher;

/// Addresses touched on one side of the memory system (data or code)
/// before timing, so caches and TLBs start in steady state. Empty for a
/// cold machine.
///
/// A simulation context's fingerprint folds both warm sets into a
/// [`StableHasher`] after the config and the trace's fingerprint, so
/// every cached runner call on a context would re-walk thousands of
/// addresses. A `WarmSet` remembers its first fold instead
/// ([`WarmSet::fold_into`]), and clones keep the memo. Equality and
/// `Debug` look at the addresses only.
#[derive(Clone, Default)]
pub struct WarmSet {
    addrs: Vec<u64>,
    /// The hasher state the first fold started from and the state it
    /// left. Never stale: the addresses cannot change after
    /// construction.
    fold: OnceLock<(u64, u64)>,
}

impl WarmSet {
    /// An empty warm set.
    pub const fn new() -> WarmSet {
        WarmSet {
            addrs: Vec::new(),
            fold: OnceLock::new(),
        }
    }

    /// The addresses, in warming order.
    pub fn as_slice(&self) -> &[u64] {
        &self.addrs
    }

    /// Fold the addresses into `h`, leaving it exactly as
    /// `<[u64] as Hash>::hash` would (length prefix, then each address).
    ///
    /// The first fold walks the addresses and records the hasher state
    /// before and after; a later fold from that same state only sets the
    /// recorded result. A fold from any other state walks the addresses
    /// again and keeps the first record.
    pub fn fold_into(&self, h: &mut StableHasher) {
        let from = h.state;
        match self.fold.get() {
            Some(&(memo_from, to)) if memo_from == from => h.state = to,
            memo => {
                self.addrs.hash(h);
                if memo.is_none() {
                    let _ = self.fold.set((from, h.state));
                }
            }
        }
    }
}

impl Deref for WarmSet {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.addrs
    }
}

impl From<Vec<u64>> for WarmSet {
    fn from(addrs: Vec<u64>) -> WarmSet {
        WarmSet {
            addrs,
            fold: OnceLock::new(),
        }
    }
}

impl PartialEq for WarmSet {
    fn eq(&self, other: &WarmSet) -> bool {
        self.addrs == other.addrs
    }
}

impl Eq for WarmSet {}

impl std::fmt::Debug for WarmSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("WarmSet").field(&self.addrs).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::Hasher;

    /// The state after `<[u64] as Hash>::hash` from `from`.
    fn plain(from: &StableHasher, addrs: &[u64]) -> u64 {
        let mut h = from.clone();
        addrs.hash(&mut h);
        h.finish()
    }

    fn folded(from: &StableHasher, set: &WarmSet) -> u64 {
        let mut h = from.clone();
        set.fold_into(&mut h);
        h.finish()
    }

    /// A hasher in a state reached by writing `seed`.
    fn hasher_at(seed: u64) -> StableHasher {
        let mut h = StableHasher::default();
        seed.hash(&mut h);
        h
    }

    #[test]
    fn the_first_fold_is_memoized_and_other_states_walk() {
        let set = WarmSet::from(vec![0x1000, 0x1040, 0x1080]);
        let (a, b) = (hasher_at(1), hasher_at(2));
        assert_eq!(folded(&a, &set), plain(&a, &set));
        assert_eq!(set.fold.get(), Some(&(a.finish(), plain(&a, &set))));
        assert_eq!(folded(&b, &set), plain(&b, &set));
        assert_eq!(
            set.fold.get(),
            Some(&(a.finish(), plain(&a, &set))),
            "a fold from another state leaves the memo alone"
        );
        assert_eq!(folded(&a, &set), plain(&a, &set));
        assert_eq!(
            set.clone().fold.get(),
            set.fold.get(),
            "clones keep the memo"
        );
    }

    #[test]
    fn equality_and_debug_ignore_the_memo() {
        let hashed = WarmSet::from(vec![7, 8]);
        folded(&StableHasher::default(), &hashed);
        let fresh = WarmSet::from(vec![7, 8]);
        assert_eq!(hashed, fresh);
        assert_eq!(format!("{hashed:?}"), format!("{fresh:?}"));
        assert_ne!(hashed, WarmSet::from(vec![7]));
        assert_eq!(WarmSet::new(), WarmSet::default());
        assert_eq!(&*hashed, &[7, 8]);
    }

    proptest! {
        /// From either of two incoming states, in either order, on the
        /// set, its clone and an equal-content set, every fold leaves
        /// the hasher where the plain slice hash does.
        #[test]
        fn folds_equal_the_plain_slice_hash(
            addrs in proptest::collection::vec(any::<u64>(), 0..64),
            seeds in (any::<u64>(), any::<u64>()),
            b_first in any::<bool>(),
        ) {
            let (a, b) = (hasher_at(seeds.0), hasher_at(seeds.1));
            let states = if b_first { [&b, &a] } else { [&a, &b] };
            let set = WarmSet::from(addrs.clone());
            for from in states.into_iter().chain(states) {
                let want = plain(from, &addrs);
                prop_assert_eq!(folded(from, &set), want);
                prop_assert_eq!(folded(from, &set.clone()), want);
                prop_assert_eq!(folded(from, &WarmSet::from(addrs.clone())), want);
            }
        }
    }
}

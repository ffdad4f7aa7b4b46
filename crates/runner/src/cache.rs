//! Content-addressed memoization of simulation results.
//!
//! The cache maps `(ContextId, idealized EventSet) -> cycles` — the full
//! identity of a simulation job. It is shared (`Clone` hands out another
//! handle to the same store), thread-safe, and optionally backed by an
//! on-disk layer so repeated benchmark processes skip re-simulation
//! entirely.
//!
//! Disk format: one append-only text file per context, named
//! `<context>.sims`, each line `"<set-bits-hex> <cycles>"`. Text keeps the
//! layer debuggable (`cat`-able) and append-only keeps concurrent writers
//! from corrupting each other beyond a duplicated line, which dedup on
//! load tolerates.
//!
//! The disk layer can be size-capped: set [`CACHE_MAX_BYTES_ENV`] (or call
//! [`SimCache::with_disk_limits`]) and whenever the directory's `.sims`
//! files exceed the budget after an append, whole oldest-modified context
//! files are evicted until it fits. Whole-file granularity matches the
//! access pattern — a context's sets are loaded together — and keeps every
//! surviving file a complete, self-consistent record.
//!
//! It can also be age-capped: set [`CACHE_MAX_AGE_ENV`] (or call
//! [`SimCache::with_disk_limits`]) and context files whose mtime is older
//! than the budget are expired on open and after every append, regardless
//! of total size. Contexts registered through [`SimCache::pin`] are exempt
//! from both policies — the planner pins its calibration baselines so a
//! busy cache cannot silently rotate out the ground truth its confidence
//! model is fitted against.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use uarch_obs::{lock_unpoisoned, Counter, Registry};
use uarch_trace::EventSet;

use crate::fingerprint::ContextId;

/// Environment variable holding the disk-cache byte budget. Unset, empty,
/// unparseable, or `0` all mean "unbounded" (the default).
pub const CACHE_MAX_BYTES_ENV: &str = "ICOST_CACHE_MAX_BYTES";

/// Environment variable holding the disk-cache age budget in seconds:
/// context files not modified within it are expired. Unset, empty,
/// unparseable, or `0` all mean "never expires" (the default).
pub const CACHE_MAX_AGE_ENV: &str = "ICOST_CACHE_MAX_AGE_SECS";

#[derive(Debug, Default)]
struct Store {
    /// `(context, idealized set) -> simulated cycles`.
    map: HashMap<(ContextId, EventSet), u64>,
    /// Contexts whose disk file has been read into `map`.
    loaded: HashSet<ContextId>,
    /// Keys whose value came from the disk layer rather than a simulation
    /// this process ran — lets telemetry attribute hits to the right tier.
    from_disk: HashSet<(ContextId, EventSet)>,
}

/// A shared, thread-safe, optionally disk-backed simulation-result cache.
#[derive(Debug, Clone)]
pub struct SimCache {
    store: Arc<Mutex<Store>>,
    disk: Option<Arc<PathBuf>>,
    /// Byte budget for the disk layer; `None` = unbounded.
    max_bytes: Option<u64>,
    /// Age budget for the disk layer; `None` = never expires.
    max_age: Option<Duration>,
    /// Contexts exempt from both eviction policies (shared across
    /// handles, like the store itself).
    pinned: Arc<Mutex<HashSet<ContextId>>>,
    metrics: Registry,
    /// Disk-cache entries (lines) discarded by budget enforcement.
    evictions: Counter,
    /// The subset of `evictions` discarded by the age policy.
    age_evictions: Counter,
    /// Entries the disk layer contributed to the in-memory store.
    disk_loads: Counter,
}

impl Default for SimCache {
    fn default() -> SimCache {
        SimCache::new()
    }
}

impl SimCache {
    /// A fresh in-memory cache.
    pub fn new() -> SimCache {
        let metrics = Registry::new();
        SimCache {
            store: Arc::default(),
            disk: None,
            max_bytes: None,
            max_age: None,
            pinned: Arc::default(),
            evictions: metrics.counter("cache.evictions"),
            age_evictions: metrics.counter("cache.age_evictions"),
            disk_loads: metrics.counter("cache.disk_entries_loaded"),
            metrics,
        }
    }

    /// A cache backed by `dir`: entries already on disk satisfy lookups,
    /// and every insert is appended for future processes. The directory is
    /// created if missing. The byte budget comes from
    /// [`CACHE_MAX_BYTES_ENV`] and the age budget from
    /// [`CACHE_MAX_AGE_ENV`]; absent or zero means unbounded / never.
    pub fn with_disk(dir: impl Into<PathBuf>) -> io::Result<SimCache> {
        let budget = |name| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&b| b > 0)
        };
        let max_age = budget(CACHE_MAX_AGE_ENV).map(Duration::from_secs);
        SimCache::with_disk_limits(dir, budget(CACHE_MAX_BYTES_ENV), max_age)
    }

    /// [`SimCache::with_disk`] with explicit byte and age budgets,
    /// ignoring the environment. Files already past the age budget are
    /// expired immediately, so a fresh process never trusts stale state.
    pub fn with_disk_limits(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
        max_age: Option<Duration>,
    ) -> io::Result<SimCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = SimCache {
            disk: Some(Arc::new(dir)),
            max_bytes,
            max_age,
            ..SimCache::new()
        };
        cache.expire_stale(None);
        Ok(cache)
    }

    /// Exempt `ctx` from age expiry and size eviction. Pinning is
    /// shared by every handle to this cache and is idempotent.
    pub fn pin(&self, ctx: ContextId) {
        lock_unpoisoned(&self.pinned).insert(ctx);
    }

    /// The cache's own metrics registry (`cache.evictions`,
    /// `cache.disk_entries_loaded`).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Disk-cache entries discarded by budget enforcement so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    fn context_file(&self, ctx: ContextId) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(format!("{ctx}.sims")))
    }

    /// Pull `ctx`'s disk file into memory (once per context per handle
    /// group). Unparseable lines are skipped: a torn concurrent append
    /// must not poison the whole context.
    fn ensure_loaded(&self, ctx: ContextId) {
        let Some(path) = self.context_file(ctx) else {
            return;
        };
        let mut store = lock_unpoisoned(&self.store);
        if !store.loaded.insert(ctx) {
            return;
        }
        let Ok(text) = fs::read_to_string(&path) else {
            return;
        };
        let mut from_disk = 0;
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let (Some(bits), Some(cycles)) = (parts.next(), parts.next()) else {
                continue;
            };
            let (Ok(bits), Ok(cycles)) = (u8::from_str_radix(bits, 16), cycles.parse()) else {
                continue;
            };
            let key = (ctx, EventSet::from_bits(bits));
            // Never overwrite a computed entry: a disk line for a key this
            // process already simulated would mislabel its provenance.
            if let std::collections::hash_map::Entry::Vacant(slot) = store.map.entry(key) {
                slot.insert(cycles);
                store.from_disk.insert(key);
                from_disk += 1;
            }
        }
        self.disk_loads.add(from_disk);
    }

    /// Cycles recorded for `(ctx, set)`, consulting disk on the first
    /// touch of `ctx`. The second element is `true` when the answer was
    /// contributed by the disk layer (vs computed by this process), so
    /// callers can attribute the hit to the right cache tier.
    pub fn get(&self, ctx: ContextId, set: EventSet) -> (Option<u64>, bool) {
        self.ensure_loaded(ctx);
        let store = lock_unpoisoned(&self.store);
        let hit = store.map.get(&(ctx, set)).copied();
        let from_disk = hit.is_some() && store.from_disk.contains(&(ctx, set));
        (hit, from_disk)
    }

    /// Record a simulated result, appending to the disk layer if present.
    /// Re-inserting an existing key is a no-op (no duplicate disk lines).
    pub fn insert(&self, ctx: ContextId, set: EventSet, cycles: u64) {
        {
            let mut store = lock_unpoisoned(&self.store);
            if store.map.insert((ctx, set), cycles).is_some() {
                return;
            }
        }
        if let Some(path) = self.context_file(ctx) {
            // Best-effort: a failed append only costs future processes a
            // re-simulation.
            if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(&path) {
                let _ = writeln!(f, "{:02x} {}", set.bits(), cycles);
            }
            self.expire_stale(Some(&path));
            self.enforce_budget(&path);
        }
    }

    /// Whether `path` names a pinned context's file (pinned contexts are
    /// exempt from both eviction policies).
    fn is_pinned_file(&self, path: &Path) -> bool {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return false;
        };
        let Ok(bits) = u64::from_str_radix(stem, 16) else {
            return false;
        };
        lock_unpoisoned(&self.pinned).contains(&ContextId(bits))
    }

    /// Expire `.sims` files whose mtime is older than the age budget.
    /// The `active` file (just appended to) and pinned contexts survive.
    fn expire_stale(&self, active: Option<&Path>) {
        let (Some(dir), Some(max_age)) = (self.disk.as_deref(), self.max_age) else {
            return;
        };
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let now = SystemTime::now();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "sims") {
                continue;
            }
            if active == Some(path.as_path()) || self.is_pinned_file(&path) {
                continue;
            }
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if now.duration_since(mtime).unwrap_or_default() <= max_age {
                continue;
            }
            let lines = fs::read_to_string(&path)
                .map(|t| t.lines().count() as u64)
                .unwrap_or(0);
            if fs::remove_file(&path).is_ok() {
                self.evictions.add(lines);
                self.age_evictions.add(lines);
            }
        }
    }

    /// Evict oldest-modified `.sims` files until the directory fits the
    /// byte budget. `active` (the file just appended to) is never evicted:
    /// the current run is still producing and consuming it, and evicting
    /// it would discard this very insert.
    fn enforce_budget(&self, active: &Path) {
        let (Some(dir), Some(budget)) = (self.disk.as_deref(), self.max_bytes) else {
            return;
        };
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "sims") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((mtime, path, meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= budget {
            return;
        }
        // Oldest first; tie-break on name so eviction order is stable on
        // filesystems with coarse mtime resolution.
        files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, path, len) in files {
            if total <= budget || path == active || self.is_pinned_file(&path) {
                continue;
            }
            let lines = fs::read_to_string(&path)
                .map(|t| t.lines().count() as u64)
                .unwrap_or(0);
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.add(lines);
            }
        }
    }

    /// Number of entries currently in memory.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.store).map.len()
    }

    /// Whether the in-memory store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::EventClass;

    #[test]
    fn memory_roundtrip_and_sharing() {
        let a = SimCache::new();
        let b = a.clone();
        let ctx = ContextId(7);
        let s = EventSet::single(EventClass::Dmiss);
        assert_eq!(a.get(ctx, s).0, None);
        a.insert(ctx, s, 1234);
        assert_eq!(
            b.get(ctx, s),
            (Some(1234), false),
            "handles share one store"
        );
        assert_eq!(b.get(ContextId(8), s).0, None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn a_poisoned_store_keeps_serving() {
        let c = SimCache::new();
        let ctx = ContextId(9);
        let s = EventSet::single(EventClass::Win);
        c.insert(ctx, s, 321);
        let store = Arc::clone(&c.store);
        let _ = std::thread::spawn(move || {
            let _guard = store.lock().unwrap();
            panic!("job panics while holding the cache lock");
        })
        .join();
        assert!(c.store.is_poisoned());
        c.insert(ctx, EventSet::EMPTY, 400);
        assert_eq!(c.get(ctx, s), (Some(321), false));
        assert_eq!(c.get(ctx, EventSet::EMPTY), (Some(400), false));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disk_roundtrip_across_processes() {
        let dir = std::env::temp_dir().join(format!("simcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ctx = ContextId(0xabcd);
        let s = EventSet::from([EventClass::Dl1, EventClass::Win]);
        {
            let c = SimCache::with_disk(&dir).expect("create");
            c.insert(ctx, s, 999);
            c.insert(ctx, EventSet::EMPTY, 1500);
            // The writing process computed these itself.
            assert_eq!(c.get(ctx, s), (Some(999), false));
        }
        // A fresh handle group simulating a new process: both answers now
        // come from the disk tier.
        let c2 = SimCache::with_disk(&dir).expect("open");
        assert_eq!(c2.get(ctx, s), (Some(999), true));
        assert_eq!(c2.get(ctx, EventSet::EMPTY), (Some(1500), true));
        assert_eq!(
            c2.metrics().snapshot().counter("cache.disk_entries_loaded"),
            2
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn computed_entry_outranks_disk_line() {
        let dir = std::env::temp_dir().join(format!("simcache-prov-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ctx = ContextId(0x22);
        fs::write(dir.join(format!("{ctx}.sims")), "03 777\n").unwrap();
        let c = SimCache::with_disk(&dir).expect("open");
        // Simulated locally before the disk file is ever consulted.
        c.insert(ctx, EventSet::from_bits(0x03), 555);
        let (hit, from_disk) = c.get(ctx, EventSet::from_bits(0x03));
        assert_eq!(hit, Some(555), "local result wins");
        assert!(!from_disk, "provenance stays 'computed'");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("simcache-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ctx = ContextId(0x11);
        fs::write(
            dir.join(format!("{ctx}.sims")),
            "zz nonsense\n03 77\ntorn-li",
        )
        .unwrap();
        let c = SimCache::with_disk(&dir).expect("open");
        assert_eq!(c.get(ctx, EventSet::from_bits(0x03)), (Some(77), true));
        assert_eq!(c.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_evicts_oldest_context_files() {
        let dir = std::env::temp_dir().join(format!("simcache-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Each line is "xx nnnn\n" = 8 bytes; budget of 20 bytes holds at
        // most two single-line files.
        let c = SimCache::with_disk_limits(&dir, Some(20), None).expect("create");
        let old = ContextId(1);
        c.insert(old, EventSet::from_bits(0x01), 1000);
        // Ensure a strictly older mtime even on coarse-resolution
        // filesystems.
        let stale = SystemTime::now() - std::time::Duration::from_secs(120);
        let f = fs::File::options()
            .append(true)
            .open(dir.join(format!("{old}.sims")))
            .unwrap();
        f.set_modified(stale).unwrap();
        drop(f);
        c.insert(ContextId(2), EventSet::from_bits(0x02), 2000);
        c.insert(ContextId(3), EventSet::from_bits(0x03), 3000);
        assert!(
            !dir.join(format!("{old}.sims")).exists(),
            "oldest file evicted"
        );
        assert_eq!(c.evictions(), 1, "one line discarded");
        assert!(
            dir.join(format!("{}.sims", ContextId(3))).exists(),
            "the active file is never evicted"
        );
        // In-memory answers survive eviction; only future processes lose
        // the entry.
        assert_eq!(c.get(old, EventSet::from_bits(0x01)).0, Some(1000));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Backdate `path`'s mtime so age policies see it as stale.
    fn backdate(path: &Path, secs: u64) {
        let f = fs::File::options().append(true).open(path).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(secs))
            .unwrap();
    }

    #[test]
    fn age_budget_expires_stale_context_files() {
        let dir = std::env::temp_dir().join(format!("simcache-age-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let max_age = Some(Duration::from_secs(60));
        let stale = ContextId(0xa1);
        let fresh = ContextId(0xa2);
        {
            let c = SimCache::with_disk_limits(&dir, None, max_age).expect("create");
            c.insert(stale, EventSet::from_bits(0x01), 100);
            c.insert(fresh, EventSet::from_bits(0x02), 200);
        }
        backdate(&dir.join(format!("{stale}.sims")), 3600);
        // Expiry fires on open: a later process discards only the stale
        // context and keeps the fresh one.
        let c2 = SimCache::with_disk_limits(&dir, None, max_age).expect("reopen");
        assert!(!dir.join(format!("{stale}.sims")).exists(), "stale expired");
        assert!(dir.join(format!("{fresh}.sims")).exists(), "fresh survives");
        assert_eq!(c2.get(stale, EventSet::from_bits(0x01)).0, None);
        assert_eq!(c2.get(fresh, EventSet::from_bits(0x02)).0, Some(200));
        let snap = c2.metrics().snapshot();
        assert_eq!(snap.counter("cache.age_evictions"), 1);
        assert_eq!(snap.counter("cache.evictions"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_contexts_survive_age_and_size_eviction() {
        let dir = std::env::temp_dir().join(format!("simcache-pin-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let pinned = ContextId(0xb1);
        let victim = ContextId(0xb2);
        // Budget fits roughly one single-line file, so inserting a third
        // context would normally evict both older files.
        let c = SimCache::with_disk_limits(&dir, Some(10), Some(Duration::from_secs(60)))
            .expect("create");
        c.pin(pinned);
        c.insert(pinned, EventSet::from_bits(0x01), 100);
        c.insert(victim, EventSet::from_bits(0x02), 200);
        backdate(&dir.join(format!("{pinned}.sims")), 3600);
        backdate(&dir.join(format!("{victim}.sims")), 3600);
        c.insert(ContextId(0xb3), EventSet::from_bits(0x03), 300);
        assert!(
            dir.join(format!("{pinned}.sims")).exists(),
            "pinned survives both policies"
        );
        assert!(
            !dir.join(format!("{victim}.sims")).exists(),
            "unpinned stale file is gone"
        );
        // Pins are shared across handles to the same cache.
        let h = c.clone();
        h.pin(ContextId(0xb4));
        assert!(c.pinned.lock().unwrap().contains(&ContextId(0xb4)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_budget_never_evicts() {
        let dir = std::env::temp_dir().join(format!("simcache-nogc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let c = SimCache::with_disk_limits(&dir, None, None).expect("create");
        for i in 0..16 {
            c.insert(ContextId(i), EventSet::from_bits(0x01), i);
        }
        assert_eq!(c.evictions(), 0);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 16);
        let _ = fs::remove_dir_all(&dir);
    }
}

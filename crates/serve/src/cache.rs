//! The content-addressed incremental function cache.
//!
//! The unit of caching is one *function*, not one module: a daemon
//! serving edit-compile loops sees mostly-unchanged modules, and
//! per-function keys mean only the edited functions recompile. The key
//! is the hash of everything that can change a function's compiled
//! output — and nothing else:
//!
//! ```text
//! key = fnv64( "schema=" CACHE_SCHEMA
//!              ";" CompileRequest::cache_signature()   (pipeline, fold,
//!                  opt, verify, simplify, k, fail mode, fuel)
//!              ";fn=" canonical function text )
//! ```
//!
//! The canonical function text is the *lowered pre-SSA IR* printed by
//! `fcc_ir`'s `Display` — not the MiniLang source — so whitespace,
//! comments, and the source language drop out of the key.
//! [`CACHE_SCHEMA`] folds the crate version in: any release may change
//! codegen, so cached artifacts never survive an upgrade. `jobs` and the
//! report format are deliberately absent (they never change bytes), which
//! is what keeps cached replies byte-identical at any `--jobs` width.
//!
//! Values are whole [`FunctionReport`]s — compiled output, phase
//! records, stat lines, attempt history — so a hit replays the original
//! compile exactly. Failed compiles are cached too: failure is
//! deterministic data here, and re-running a known-failing function on
//! every resubmit would let one bad function starve the batch.
//!
//! Eviction is LRU under a byte budget ([`FnCache::with_budget`]):
//! inserting past the budget evicts least-recently-used entries until
//! the new entry fits. Hash collisions are handled by storing the full
//! canonical key in the entry and comparing on probe — a mismatch is a
//! miss (and the insert replaces the colliding entry), never a wrong
//! answer.
//!
//! With a [`crate::disk::DiskCache`] attached ([`FnCache::attach_disk`],
//! the `--cache-dir` flag), the disk mirrors memory: every insert writes
//! through, every eviction removes its entry file, so the one byte
//! budget bounds disk occupancy too. Startup warms memory from disk
//! (validating and quarantining as it goes); disk faults degrade
//! durability, never correctness — a failed write is a skipped write,
//! a corrupt read is a miss.
//!
//! Two result classes are never cached: entries larger than the whole
//! budget, and reports that missed their wall-clock deadline. A
//! deadline miss is a property of machine load, not of the input, so
//! caching it would let one slow moment poison every future resubmit.
//!
//! The daemon's concurrent requests share one cache through
//! [`SharedCache`]: the cache and a single-flight table of the keys being
//! compiled sit behind one lock, held to probe, insert and count but
//! never to key, compile or render ([`compile_module_cached`]). A key
//! several requests miss at once is compiled by one of them while the
//! others wait for its report.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use fcc_driver::{
    compile_function_report, par_map, request_deadline, with_deadline, BatchTiming, CompileRequest,
    FunctionReport,
};
use fcc_ir::Module;

use crate::disk::{DiskCache, DiskStats};

/// Cache-key schema revision: the crate version plus a manual rev for
/// key-layout changes within a release. Part of every key, so bumping
/// either invalidates the whole cache. Rev 2: the optimiser pipelines
/// gained the alias-gated memory passes, changing compiled output for
/// unchanged sources. Rev 4: the request signature dropped its
/// `alloc=` field. Rev 5: liveness is held as sorted lists, which moves
/// the peak-bytes figures in the cached stat lines. Rev 6: the dataflow
/// solve runs two lattices, not three, which moves the cached
/// `fuel_spent` of optimised compiles.
pub const CACHE_SCHEMA: &str = concat!(env!("CARGO_PKG_VERSION"), "/6");

/// 64-bit FNV-1a. Stable across platforms and releases (unlike
/// `DefaultHasher`, which documents no such guarantee), which matters
/// because [`CACHE_SCHEMA`] — not hasher drift — must be the only thing
/// that invalidates a cache.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build the canonical cache key for one function under one request.
pub fn cache_key(canonical_fn_text: &str, req: &CompileRequest) -> String {
    format!(
        "schema={CACHE_SCHEMA};{};fn={canonical_fn_text}",
        req.cache_signature()
    )
}

/// Hit/miss/eviction counters, cumulative over the cache's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to compile.
    pub misses: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Entries replaced because a different key hashed to the same slot.
    pub collisions: u64,
    /// Entries inserted (including replacements).
    pub insertions: u64,
}

impl CacheStats {
    /// Hits over probes, 0.0 for an unprobed cache.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            return 0.0;
        }
        self.hits as f64 / probes as f64
    }
}

struct Entry {
    /// Full canonical key, compared on probe to rule out collisions.
    key: String,
    report: FunctionReport,
    bytes: usize,
    last_used: u64,
}

/// The LRU byte-budgeted function cache, optionally mirrored to disk.
pub struct FnCache {
    entries: HashMap<u64, Entry>,
    budget: usize,
    held_bytes: usize,
    tick: u64,
    stats: CacheStats,
    disk: Option<DiskCache>,
}

impl FnCache {
    /// An empty cache holding at most `budget` (approximate) bytes.
    pub fn with_budget(budget: usize) -> Self {
        FnCache {
            entries: HashMap::new(),
            budget,
            held_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
            disk: None,
        }
    }

    /// Attach (and warm from) the persistent store at `dir`. Valid
    /// entries load into memory in the store's recency order — oldest
    /// first, so re-inserting reconstructs the LRU ranking — evicting
    /// (and deleting from disk) whatever exceeds the budget. Corrupt
    /// entries were already quarantined by the load. From here on every
    /// insert writes through and every eviction removes its file.
    pub fn attach_disk(&mut self, dir: &Path) -> io::Result<()> {
        let mut disk = DiskCache::open(dir)?;
        let warmed = disk.load_all();
        self.disk = Some(disk);
        for (key, report) in &warmed {
            self.insert_impl(key, report, false);
        }
        Ok(())
    }

    /// Disk-layer counters (all zero when no store is attached).
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.as_ref().map(DiskCache::stats).unwrap_or_default()
    }

    /// Flush the advisory LRU-order index to the attached store, if
    /// any. Called on graceful shutdown; skipping it (crash) only costs
    /// warm-order fidelity on the next start, never correctness.
    pub fn flush_disk_index(&mut self) {
        let Some(disk) = &mut self.disk else { return };
        let mut order: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|(&hash, e)| (e.last_used, hash))
            .collect();
        order.sort_unstable();
        let hashes: Vec<u64> = order.into_iter().map(|(_, hash)| hash).collect();
        disk.flush_index(&hashes);
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Approximate bytes currently held.
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Probe for `key`, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, key: &str) -> Option<FunctionReport> {
        let found = self.probe(key);
        self.count_probes(u64::from(found.is_some()), u64::from(found.is_none()));
        found
    }

    /// Probe for `key` without counting, refreshing recency on a hit.
    /// The caller counts the probe with [`FnCache::count_probes`] once it
    /// knows how the key resolved.
    pub(crate) fn probe(&mut self, key: &str) -> Option<FunctionReport> {
        self.tick += 1;
        let hash = fnv64(key.as_bytes());
        match self.entries.get_mut(&hash) {
            Some(e) if e.key == key => {
                e.last_used = self.tick;
                Some(e.report.clone())
            }
            _ => None,
        }
    }

    /// Count resolved probes: `hits` answered from the cache, `misses`
    /// compiled.
    pub(crate) fn count_probes(&mut self, hits: u64, misses: u64) {
        self.stats.hits += hits;
        self.stats.misses += misses;
    }

    /// Insert a compiled report under `key`, evicting LRU entries as
    /// needed to respect the byte budget, and say whether it is now
    /// cached. An entry larger than the whole budget is not cached at
    /// all. With a store attached the insert writes through and
    /// evictions remove their entry files.
    pub fn insert(&mut self, key: &str, report: &FunctionReport) -> bool {
        self.insert_impl(key, report, true)
    }

    fn insert_impl(&mut self, key: &str, report: &FunctionReport, write_through: bool) -> bool {
        self.tick += 1;
        let bytes = approx_report_bytes(key, report);
        if bytes > self.budget {
            return false;
        }
        let hash = fnv64(key.as_bytes());
        if let Some(old) = self.entries.remove(&hash) {
            self.held_bytes -= old.bytes;
            if old.key != key {
                self.stats.collisions += 1;
                // The replacement below rewrites the same `{hash}.fnc`
                // file, so no separate disk removal is needed.
            }
        }
        while self.held_bytes + bytes > self.budget {
            // O(n) LRU scan: the daemon's entry counts are small
            // (thousands), and eviction only runs when the budget is
            // actually exceeded.
            let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let evicted = self.entries.remove(&lru).expect("lru key just found");
            self.held_bytes -= evicted.bytes;
            self.stats.evictions += 1;
            if let Some(disk) = &mut self.disk {
                disk.remove(lru);
            }
        }
        if write_through {
            if let Some(disk) = &mut self.disk {
                disk.store(key, report);
            }
        }
        self.held_bytes += bytes;
        self.stats.insertions += 1;
        self.entries.insert(
            hash,
            Entry {
                key: key.to_string(),
                report: report.clone(),
                bytes,
                last_used: self.tick,
            },
        );
        true
    }

    /// Test-only: plant an entry at an arbitrary slot, bypassing the
    /// hash. Lets tests exercise the full-key collision path without
    /// having to mine a real 64-bit FNV collision.
    #[cfg(test)]
    fn plant_at(&mut self, hash: u64, key: &str, report: &FunctionReport) {
        self.tick += 1;
        let bytes = approx_report_bytes(key, report);
        self.held_bytes += bytes;
        self.entries.insert(
            hash,
            Entry {
                key: key.to_string(),
                report: report.clone(),
                bytes,
                last_used: self.tick,
            },
        );
    }
}

/// Approximate the resident size of one cached entry: the canonical key,
/// the rewritten function's text, the stat lines and attempt details,
/// plus a fixed per-entry overhead for the structs themselves. An
/// estimate is fine — the budget bounds growth, it does not meter an
/// allocator.
fn approx_report_bytes(key: &str, report: &FunctionReport) -> usize {
    let mut bytes = 128 + key.len() + report.name.len();
    if let Some(out) = &report.outcome {
        bytes += out.func.to_string().len();
        bytes += out.stat_lines.iter().map(String::len).sum::<usize>();
        bytes += out.phases.len() * 96;
    }
    for a in &report.attempts {
        bytes += 64 + a.rung.len();
    }
    bytes
}

/// A [`FnCache`] shared by concurrent requests, with its single-flight
/// table: the keys some request is compiling right now. Both sit behind
/// one lock, which is held to probe, insert and count, and never while a
/// request keys, compiles or renders. So a hit never waits behind
/// another request's compile, and two requests' misses compile at once.
pub struct SharedCache {
    state: Mutex<CacheState>,
    /// Notified whenever flights resolve.
    resolved: Condvar,
}

struct CacheState {
    cache: FnCache,
    /// Key → the open flight compiling it. A flight leaves on resolving.
    flights: HashMap<String, Arc<Flight>>,
    /// Requests blocked on another request's flight.
    waiting: usize,
}

/// A key one request is compiling. It resolves once: to the report when
/// that landed in the cache, to `None` when it did not (a deadline miss,
/// an entry over budget, or a compile that unwound).
#[derive(Default)]
struct Flight(OnceLock<Option<FunctionReport>>);

impl Flight {
    fn is_open(&self) -> bool {
        self.0.get().is_none()
    }
}

impl CacheState {
    /// Close the open `flight` for `key` (an open flight is always the
    /// table's entry for its key).
    fn resolve(&mut self, key: &str, flight: &Flight, landed: Option<FunctionReport>) {
        self.flights.remove(key);
        let _ = flight.0.set(landed);
    }

    /// Cache a fresh compile unless it missed its deadline; true when it
    /// landed.
    fn store(&mut self, key: &str, report: &FunctionReport) -> bool {
        !report.hit_deadline() && self.cache.insert(key, report)
    }
}

impl SharedCache {
    /// Share `cache` between requests.
    pub fn new(cache: FnCache) -> Self {
        SharedCache {
            state: Mutex::new(CacheState {
                cache,
                flights: HashMap::new(),
                waiting: 0,
            }),
            resolved: Condvar::new(),
        }
    }

    /// Run `f` on the cache under the lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut FnCache) -> R) -> R {
        f(&mut self.lock().cache)
    }

    /// Requests blocked on another request's flight right now.
    pub(crate) fn waiting(&self) -> usize {
        self.lock().waiting
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        // No update under this lock can stop halfway, so a poisoned lock
        // still guards a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The flights one request opened. Dropping it resolves any still open
/// as uncached, so no waiter outlives an owner whose compile unwound.
struct Owned<'a> {
    shared: &'a SharedCache,
    keys: &'a [String],
    flights: Vec<(usize, Arc<Flight>)>,
}

impl Drop for Owned<'_> {
    fn drop(&mut self) {
        if self.flights.iter().all(|(_, f)| !f.is_open()) {
            return;
        }
        let mut s = self.shared.lock();
        for (i, flight) in &self.flights {
            if flight.is_open() {
                s.resolve(&self.keys[*i], flight, None);
            }
        }
        self.shared.resolved.notify_all();
    }
}

/// One cached batch compilation: per-function reports in module order
/// plus how the cache answered.
pub struct CachedBatch {
    /// Reports, index-aligned with the input module's functions.
    pub functions: Vec<FunctionReport>,
    /// Pool timing over the miss set (zero work on a full hit).
    pub timing: BatchTiming,
    /// Functions answered from the cache.
    pub hits: usize,
    /// Functions compiled this call.
    pub misses: usize,
}

/// Compile `module` per `req`, answering unchanged functions from the
/// cache and compiling only the misses (sharded across the worker pool,
/// merged back in module order), in four steps:
///
/// 1. key every function, with no lock;
/// 2. under the lock, probe every key once: a hit, a key another request
///    is compiling (a flight to wait on), or a new flight this request
///    owns;
/// 3. compile this request's own flights, with no lock;
/// 4. under the lock (which waiting releases), insert them and resolve
///    their flights, then wait for the other requests' flights, and
///    count.
///
/// A key taken from another request's flight counts as a hit when that
/// report landed in the cache. When it did not (a deadline miss, an
/// entry over budget), this request compiles the key itself, with no
/// lock, and counts a miss. So a key is compiled once however many
/// requests miss it at the same moment, and the counts are those of a
/// one-at-a-time replay in lock order.
///
/// Determinism: a compile is a pure function of its cache key, so a hit
/// or a waited flight replays the report a miss would produce; merging
/// is by module index. The batch is byte-identical whether the cache was
/// cold, warm, partly warm or shared with concurrent requests, at any
/// `req.jobs` width.
///
/// No deadlock: a request waits only after resolving all of its own
/// flights, and opens none after waiting, so while a flight is open its
/// owner is compiling, never waiting. Module names are unique, so a
/// request never finds its own flight in the table.
///
/// The request's wall-clock deadline (if any) is fixed once, before its
/// first compile, and installed on every worker, so all functions in the
/// batch race the same absolute instant. Reports that missed the
/// deadline are *not* cached: a timeout reflects machine load, not the
/// input.
pub fn compile_module_cached(
    module: Module,
    req: &CompileRequest,
    shared: &SharedCache,
) -> CachedBatch {
    let funcs = module.into_functions();
    let keys: Vec<String> = funcs
        .iter()
        .map(|f| cache_key(&f.to_string(), req))
        .collect();

    let mut slots: Vec<Option<FunctionReport>> = funcs.iter().map(|_| None).collect();
    let mut owned = Owned {
        shared,
        keys: &keys,
        flights: Vec::new(),
    };
    let mut waits: Vec<(usize, Arc<Flight>)> = Vec::new();
    let mut hits = 0;
    {
        let mut s = shared.lock();
        for (i, key) in keys.iter().enumerate() {
            if let Some(report) = s.cache.probe(key) {
                slots[i] = Some(report);
                hits += 1;
            } else if let Some(flight) = s.flights.get(key) {
                waits.push((i, Arc::clone(flight)));
            } else {
                let flight = Arc::new(Flight::default());
                s.flights.insert(key.clone(), Arc::clone(&flight));
                owned.flights.push((i, flight));
            }
        }
        s.cache.count_probes(hits as u64, 0);
    }

    let deadline = request_deadline(req);
    let compile = |idx: &[usize]| {
        par_map(idx.len(), req.jobs, |j| {
            with_deadline(deadline, || compile_function_report(&funcs[idx[j]], req))
        })
    };
    let own: Vec<usize> = owned.flights.iter().map(|(i, _)| *i).collect();
    let (compiled, mut timing) = compile(&own);

    let mut uncached = Vec::new();
    if !(own.is_empty() && waits.is_empty()) {
        let mut s = shared.lock();
        for ((i, flight), report) in owned.flights.iter().zip(compiled) {
            let landed = s.store(&keys[*i], &report).then(|| report.clone());
            s.resolve(&keys[*i], flight, landed);
            slots[*i] = Some(report);
        }
        shared.resolved.notify_all();
        if waits.iter().any(|(_, f)| f.is_open()) {
            s.waiting += 1;
            while waits.iter().any(|(_, f)| f.is_open()) {
                s = shared
                    .resolved
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            s.waiting -= 1;
        }
        let mut flight_hits = 0;
        for (i, flight) in &waits {
            match flight.0.get().expect("every waited flight has resolved") {
                Some(report) => {
                    slots[*i] = Some(report.clone());
                    flight_hits += 1;
                }
                None => uncached.push(*i),
            }
        }
        hits += flight_hits;
        s.cache.count_probes(flight_hits as u64, own.len() as u64);
    }

    if !uncached.is_empty() {
        let (compiled, more) = compile(&uncached);
        let mut s = shared.lock();
        for (&i, report) in uncached.iter().zip(compiled) {
            s.store(&keys[i], &report);
            slots[i] = Some(report);
        }
        s.cache.count_probes(0, uncached.len() as u64);
        timing.wall += more.wall;
        timing.cpu += more.cpu;
        timing.jobs = timing.jobs.max(more.jobs);
    }

    CachedBatch {
        functions: slots
            .into_iter()
            .map(|s| s.expect("every slot is a hit, a resolved flight or a compiled miss"))
            .collect(),
        timing,
        hits,
        misses: own.len() + uncached.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_driver::FnStatus;

    fn shared(budget: usize) -> SharedCache {
        SharedCache::new(FnCache::with_budget(budget))
    }

    fn module(n: usize, salt: usize) -> Module {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!(
                "fn f{i}(n) {{ let s = {}; for j = 0 to n {{ s = s + j; }} return s; }}\n",
                i + salt
            ));
        }
        fcc_frontend::compile_module(&src).unwrap()
    }

    #[test]
    fn second_submission_is_all_hits_and_identical() {
        let req = CompileRequest::new().opt(true);
        let cache = shared(64 << 20);
        let cold = compile_module_cached(module(8, 0), &req, &cache);
        assert_eq!((cold.hits, cold.misses), (0, 8));
        let warm = compile_module_cached(module(8, 0), &req, &cache);
        assert_eq!((warm.hits, warm.misses), (8, 0));
        for (a, b) in cold.functions.iter().zip(&warm.functions) {
            assert_eq!(a.status, b.status);
            let (ao, bo) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(ao.func.to_string(), bo.func.to_string());
            assert_eq!(ao.stat_lines, bo.stat_lines);
        }
        assert_eq!(cache.with(|c| c.stats().hit_rate()), 0.5);
    }

    #[test]
    fn editing_one_function_recompiles_only_it() {
        let req = CompileRequest::new();
        let cache = shared(64 << 20);
        compile_module_cached(module(8, 0), &req, &cache);
        // Salt shifts every constant, but only f0's salt survives below.
        let mut src = String::new();
        src.push_str("fn f0(n) { let s = 999; for j = 0 to n { s = s + j; } return s; }\n");
        for i in 1..8 {
            src.push_str(&format!(
                "fn f{i}(n) {{ let s = {i}; for j = 0 to n {{ s = s + j; }} return s; }}\n"
            ));
        }
        let edited = fcc_frontend::compile_module(&src).unwrap();
        let out = compile_module_cached(edited, &req, &cache);
        assert_eq!((out.hits, out.misses), (7, 1));
    }

    #[test]
    fn the_request_is_part_of_the_key() {
        let cache = shared(64 << 20);
        compile_module_cached(module(2, 0), &CompileRequest::new(), &cache);
        let out = compile_module_cached(module(2, 0), &CompileRequest::new().opt(true), &cache);
        assert_eq!((out.hits, out.misses), (0, 2), "opt flag changes the key");
        // ... but jobs does not.
        let out = compile_module_cached(
            module(2, 0),
            &CompileRequest::new().opt(true).jobs(8),
            &cache,
        );
        assert_eq!((out.hits, out.misses), (2, 0), "jobs is not key material");
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let req = CompileRequest::new();
        // Size the budget from a real entry so the test tracks the
        // estimator: room for roughly two of the eight functions.
        let probe = compile_function_report(&module(1, 0).into_functions()[0], &req);
        let one = approx_report_bytes(&cache_key("k", &req), &probe);
        let cache = shared(one * 5 / 2);
        compile_module_cached(module(8, 0), &req, &cache);
        let s = cache.with(|c| c.stats());
        assert!(s.evictions >= 6, "evictions={}", s.evictions);
        assert!(cache.with(|c| c.held_bytes() <= c.budget()));
        assert!(cache.with(|c| c.len()) <= 2);
    }

    #[test]
    fn failed_compiles_are_cached_too() {
        // fuel=1 fails every function deterministically.
        let req = CompileRequest::new().fuel(Some(1));
        let cache = shared(64 << 20);
        let cold = compile_module_cached(module(2, 0), &req, &cache);
        assert!(cold.functions.iter().all(|f| f.status == FnStatus::Failed));
        let warm = compile_module_cached(module(2, 0), &req, &cache);
        assert_eq!((warm.hits, warm.misses), (2, 0));
        assert!(warm.functions.iter().all(|f| f.status == FnStatus::Failed));
    }

    #[test]
    fn a_zero_budget_cache_caches_nothing_and_never_panics() {
        let req = CompileRequest::new();
        let cache = shared(0);
        let cold = compile_module_cached(module(3, 0), &req, &cache);
        assert_eq!((cold.hits, cold.misses), (0, 3));
        let still_cold = compile_module_cached(module(3, 0), &req, &cache);
        assert_eq!((still_cold.hits, still_cold.misses), (0, 3));
        let (len, held, s) = cache.with(|c| (c.len(), c.held_bytes(), c.stats()));
        assert_eq!((len, held), (0, 0));
        assert_eq!(s.insertions, 0);
        assert_eq!(s.evictions, 0, "nothing in, nothing to evict");
    }

    #[test]
    fn a_single_oversized_entry_is_skipped_without_evicting_anyone() {
        let req = CompileRequest::new();
        let func = &module(1, 0).into_functions()[0];
        let key = cache_key(&func.to_string(), &req);
        let report = compile_function_report(func, &req);
        let one = approx_report_bytes(&key, &report);
        let mut cache = FnCache::with_budget(one - 1);
        cache.insert(&key, &report);
        assert_eq!(cache.len(), 0, "an entry bigger than the budget is skipped");
        assert_eq!(cache.stats().insertions, 0);
        assert!(cache.get(&key).is_none());
        // A resident smaller entry must survive the oversized attempt.
        let small_key = "k";
        let mut small = report.clone();
        small.outcome = None; // drops the function text from the estimate
        cache.insert(small_key, &small);
        assert_eq!(cache.len(), 1);
        cache.insert(&key, &report);
        assert_eq!(cache.stats().evictions, 0, "a skipped insert evicts nobody");
        assert!(cache.get(small_key).is_some());
    }

    #[test]
    fn recency_refresh_governs_eviction_order() {
        let req = CompileRequest::new();
        let funcs = module(3, 0).into_functions();
        let reports: Vec<_> = funcs
            .iter()
            .map(|f| compile_function_report(f, &req))
            .collect();
        let keys: Vec<_> = funcs
            .iter()
            .map(|f| cache_key(&f.to_string(), &req))
            .collect();
        let one = approx_report_bytes(&keys[0], &reports[0]);
        let mut cache = FnCache::with_budget(one * 5 / 2); // room for two
        cache.insert(&keys[0], &reports[0]);
        cache.insert(&keys[1], &reports[1]);
        assert!(cache.get(&keys[0]).is_some(), "refresh key 0's recency");
        cache.insert(&keys[2], &reports[2]);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[0]).is_some(), "refreshed entry survived");
        assert!(cache.get(&keys[1]).is_none(), "LRU entry was the victim");
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn a_full_key_collision_is_a_miss_then_a_counted_replacement() {
        let req = CompileRequest::new();
        let func = &module(1, 0).into_functions()[0];
        let key = cache_key(&func.to_string(), &req);
        let report = compile_function_report(func, &req);
        let mut cache = FnCache::with_budget(64 << 20);
        // Plant a different key at exactly the slot `key` hashes to,
        // simulating a 64-bit FNV collision.
        cache.plant_at(fnv64(key.as_bytes()), "an impostor key", &report);
        assert!(
            cache.get(&key).is_none(),
            "full-key compare turns the collision into a miss, not a wrong answer"
        );
        cache.insert(&key, &report);
        let s = cache.stats();
        assert_eq!(s.collisions, 1, "the replacement is counted");
        assert_eq!(s.evictions, 0, "replacement is not eviction");
        assert_eq!(cache.len(), 1, "the impostor is gone");
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn deadline_misses_are_never_cached() {
        let req = CompileRequest::new().deadline_ms(Some(0));
        let cache = shared(64 << 20);
        let out = compile_module_cached(module(2, 0), &req, &cache);
        assert!(out.functions.iter().all(FunctionReport::hit_deadline));
        assert_eq!(
            cache.with(|c| c.len()),
            0,
            "timeouts reflect load, not input"
        );
        assert_eq!(cache.with(|c| c.stats().insertions), 0);
        // The same module under a generous deadline compiles and caches.
        let req = CompileRequest::new().deadline_ms(Some(60_000));
        let out = compile_module_cached(module(2, 0), &req, &cache);
        assert_eq!((out.hits, out.misses), (0, 2));
        assert_eq!(cache.with(|c| c.len()), 2);
    }

    #[test]
    fn an_attached_disk_mirrors_memory_across_restarts() {
        let _g = fcc_analysis::fault::Guard::lock();
        let dir = std::env::temp_dir().join(format!("fcc-cache-mirror-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = CompileRequest::new();

        let mut cache = FnCache::with_budget(64 << 20);
        cache.attach_disk(&dir).unwrap();
        let cache = SharedCache::new(cache);
        let cold = compile_module_cached(module(4, 0), &req, &cache);
        assert_eq!((cold.hits, cold.misses), (0, 4));
        assert_eq!(cache.with(|c| c.disk_stats().writes), 4);
        cache.with(FnCache::flush_disk_index);

        // A fresh process: memory is empty, disk warms it.
        let mut revived = FnCache::with_budget(64 << 20);
        revived.attach_disk(&dir).unwrap();
        assert_eq!(revived.disk_stats().warmed, 4);
        assert_eq!(revived.len(), 4);
        let warm = compile_module_cached(module(4, 0), &req, &SharedCache::new(revived));
        assert_eq!((warm.hits, warm.misses), (4, 0));
        for (a, b) in cold.functions.iter().zip(&warm.functions) {
            let (ao, bo) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(ao.func.to_string(), bo.func.to_string());
            assert_eq!(ao.stat_lines, bo.stat_lines);
            assert_eq!(ao.maxlive, bo.maxlive);
        }

        // Eviction in a budget-constrained revival deletes entry files:
        // the disk can never outgrow the memory budget.
        let probe = compile_function_report(&module(1, 0).into_functions()[0], &req);
        let one = approx_report_bytes(&cache_key("k", &req), &probe);
        let mut tight = FnCache::with_budget(one * 5 / 2);
        tight.attach_disk(&dir).unwrap();
        assert!(tight.len() <= 2);
        assert!(tight.disk_stats().removals >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unwound_owner_resolves_its_flights_and_the_waiter_compiles_itself() {
        let req = CompileRequest::new();
        let cache = shared(64 << 20);
        let keys: Vec<String> = module(2, 0)
            .functions()
            .iter()
            .map(|f| cache_key(&f.to_string(), &req))
            .collect();
        // Another request opened a flight on f0 and is still compiling it.
        let flight = Arc::new(Flight::default());
        cache
            .lock()
            .flights
            .insert(keys[0].clone(), Arc::clone(&flight));
        let owner = Owned {
            shared: &cache,
            keys: &keys,
            flights: vec![(0, flight)],
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| compile_module_cached(module(2, 0), &req, &cache));
            while cache.waiting() == 0 {
                std::thread::yield_now();
            }
            // The owner unwinds: its guard resolves f0 as uncached.
            drop(owner);
            let out = waiter.join().unwrap();
            assert_eq!(
                (out.hits, out.misses),
                (0, 2),
                "f0 is compiled by the waiter"
            );
            assert!(out.functions.iter().all(|f| f.status == FnStatus::Ok));
        });
        assert!(
            cache.lock().flights.is_empty(),
            "no flight outlives its request"
        );
        assert_eq!(cache.waiting(), 0);
        let s = cache.with(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.insertions), (0, 2, 2));
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}

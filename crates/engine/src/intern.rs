//! Session-level label interning.
//!
//! A session serving heavy traffic repeats the same handful of labels
//! millions of times. Each single release derives one RNG stream label
//! (`release/<mechanism>`), and override releases and epoch transitions
//! name a policy. Before interning, each paid a `to_string()` or a
//! `format!`; the [`Interner`] replaces that with one `Arc<str>` clone per
//! use — an atomic increment — after the first occurrence.
//!
//! The audit log does not intern: it stores each release as a 16-byte row
//! over a per-shard key table of distinct tuples (`crate::audit`) and
//! rebuilds the records, with their label `Arc`s, on snapshot.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cap on distinct interned labels per pool. Sessions use a handful of
/// labels; a caller minting unbounded distinct labels (one per release)
/// would otherwise grow the pool forever. At the cap the pool is cleared —
/// it is a pure cache, so only the allocation saving resets, never
/// correctness.
const INTERN_CAP: usize = 256;

/// A small intern pool mapping a borrowed key to a shared label.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    map: Mutex<HashMap<String, Arc<str>>>,
}

impl Interner {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The interned copy of `key` itself.
    pub(crate) fn get(&self, key: &str) -> Arc<str> {
        self.get_with(key, str::to_string)
    }

    /// The interned label derived from `key` by `make`, built on first use.
    /// Lookups after the first allocate nothing.
    pub(crate) fn get_with(&self, key: &str, make: impl FnOnce(&str) -> String) -> Arc<str> {
        if let Some(value) = self.map.lock().get(key) {
            return Arc::clone(value);
        }
        // Built outside the lock: `make` may be arbitrary caller code. Two
        // racing builders produce equal content, so keeping the first is
        // safe either way.
        let value: Arc<str> = make(key).into();
        let mut map = self.map.lock();
        if map.len() >= INTERN_CAP {
            map.clear();
        }
        Arc::clone(map.entry(key.to_string()).or_insert_with(|| Arc::clone(&value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_interning_shares_one_allocation() {
        let pool = Interner::new();
        let a = pool.get("OsdpLaplaceL1");
        let b = pool.get("OsdpLaplaceL1");
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups share the allocation");
        assert_eq!(&*a, "OsdpLaplaceL1");
        assert!(!Arc::ptr_eq(&a, &pool.get("DAWA")));
    }

    #[test]
    fn derived_labels_are_built_once() {
        let pool = Interner::new();
        let mut builds = 0;
        let mut derive = |key: &str| {
            builds += 1;
            format!("release/{key}")
        };
        let a = pool.get_with("DAWA", &mut derive);
        let b = pool.get_with("DAWA", &mut derive);
        assert_eq!(&*a, "release/DAWA");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds, 1, "the format! ran exactly once");
    }

    #[test]
    fn pool_stays_bounded() {
        let pool = Interner::new();
        for i in 0..(3 * INTERN_CAP) {
            let label = pool.get(&format!("label-{i}"));
            assert_eq!(&*label, &format!("label-{i}"));
            assert!(pool.map.lock().len() <= INTERN_CAP);
        }
    }
}

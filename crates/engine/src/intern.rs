//! Session-level label interning.
//!
//! Override releases and epoch transitions name a policy, and a session
//! repeats the same handful of policy labels many times. The [`Interner`]
//! replaces a `to_string()` per use with one `Arc<str>` clone — an atomic
//! increment — after the first occurrence.
//!
//! Stream labels are not interned. A single release seeds its RNG from
//! `"release/"` and the mechanism name hashed as two parts
//! (`SeedSequence::rng_for_parts`), which gives the seed the whole label
//! would, with no lock and no shared reference count on the release path.
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

    /// The interned copy of `key`. Lookups after the first allocate
    /// nothing.
    pub(crate) fn get(&self, key: &str) -> Arc<str> {
        let mut map = self.map.lock();
        if let Some(value) = map.get(key) {
            return Arc::clone(value);
        }
        if map.len() >= INTERN_CAP {
            map.clear();
        }
        let value: Arc<str> = key.into();
        map.insert(key.to_string(), Arc::clone(&value));
        value
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
    fn pool_stays_bounded() {
        let pool = Interner::new();
        for i in 0..(3 * INTERN_CAP) {
            let label = pool.get(&format!("label-{i}"));
            assert_eq!(&*label, &format!("label-{i}"));
            assert!(pool.map.lock().len() <= INTERN_CAP);
        }
    }
}

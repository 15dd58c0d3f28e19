//! Cached chunk indexes for reference blocks.
//!
//! One SSD-pinned reference block serves many delta encodes: its own
//! re-writes, every associate bound to it, scanner re-bind attempts, and
//! offline preload. The chunk codec's reference index (a rolling-hash table
//! over ~1000 windows, see `icash_delta::codec::ChunkIndex`) costs more to
//! build than a typical probe pass, so rebuilding it per encode — what the
//! seed controller did implicitly inside `chunk::encode` — dominated the
//! encode hot path. [`RefIndexCache`] keeps those indexes alive across
//! calls.
//!
//! ## Lifecycle and invalidation rules
//!
//! * Keyed by **SSD slot**, because the slot's pinned content *is* the
//!   encode base everywhere the controller encodes against a reference
//!   (the `ssd_store` map). The cache entry holds an `Option<ChunkIndex>`
//!   handed to `DeltaCodec::encode_cached`/`encode_shared`, which builds
//!   the index lazily — sparse-path encodes never pay for it.
//! * **Invalidated whenever a slot's content changes or the slot is
//!   freed**: direct SSD writes, reference retirement overwrites,
//!   promotion installs, demotion/reclamation removals, preload installs.
//!   The controller funnels every `ssd_store` mutation through
//!   `Icash::ssd_install` / `Icash::ssd_discard`, which invalidate here
//!   first — slot reuse after a free therefore starts cold, never stale.
//! * The **zero reference** (log-resident independents encode against an
//!   all-zero block) has constant content, so its index is cached under a
//!   dedicated entry and never invalidated.
//! * A crash loses the cache with the rest of RAM; recovery starts cold.
//!
//! Capacity is bounded; eviction drops the least-recently-touched slot.
//! Recency lives in the workspace [`LruMap`], which is per-controller, so
//! `ICASH_THREADS` fan-out cannot reorder it.

use icash_delta::codec::ChunkIndex;
use icash_storage::lru::LruMap;

/// Bounded cache of per-slot chunk indexes plus the zero-reference index.
#[derive(Debug)]
pub(crate) struct RefIndexCache {
    /// Per-slot indexes; `None` until an encode actually needs the chunk
    /// codec.
    slots: LruMap<u64, Option<ChunkIndex>>,
    zero: Option<ChunkIndex>,
    capacity: usize,
}

impl RefIndexCache {
    /// A cache holding at most `capacity` slot entries (the zero-reference
    /// entry is separate and permanent).
    pub(crate) fn new(capacity: usize) -> Self {
        RefIndexCache {
            slots: LruMap::new(),
            zero: None,
            capacity: capacity.max(1),
        }
    }

    /// The (lazily built) index slot for SSD slot `slot`, creating a cold
    /// entry — and evicting the least-recently-used one if full — first.
    pub(crate) fn slot_entry(&mut self, slot: u64) -> &mut Option<ChunkIndex> {
        if !self.slots.contains(&slot) {
            if self.slots.len() >= self.capacity {
                self.slots.pop_lru();
            }
            self.slots.insert(slot, None);
        }
        self.slots.get_mut(&slot).expect("entry inserted above")
    }

    /// The (lazily built) index slot for the all-zero reference block.
    pub(crate) fn zero_entry(&mut self) -> &mut Option<ChunkIndex> {
        &mut self.zero
    }

    /// Drops any cached index for `slot`. Must be called before the slot's
    /// pinned content changes or the slot is freed.
    pub(crate) fn invalidate_slot(&mut self, slot: u64) {
        self.slots.remove(&slot);
    }

    /// Number of slot entries currently tracked (tests).
    #[cfg(test)]
    pub(crate) fn tracked_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of slot entries with a *built* index (tests).
    #[cfg(test)]
    pub(crate) fn built_indexes(&self) -> usize {
        self.slots
            .iter()
            .filter(|(_, index)| index.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(reference: &[u8]) -> Option<ChunkIndex> {
        Some(ChunkIndex::build(reference))
    }

    #[test]
    fn entries_persist_until_invalidated() {
        let mut cache = RefIndexCache::new(8);
        assert!(cache.slot_entry(3).is_none(), "entries start cold");
        *cache.slot_entry(3) = built(&[7u8; 4096]);
        assert!(cache.slot_entry(3).is_some(), "entry survives re-lookup");
        cache.invalidate_slot(3);
        assert!(cache.slot_entry(3).is_none(), "invalidation clears it");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = RefIndexCache::new(2);
        *cache.slot_entry(1) = built(&[1u8; 64]);
        *cache.slot_entry(2) = built(&[2u8; 64]);
        let _ = cache.slot_entry(1); // 1 is now more recent than 2
        *cache.slot_entry(3) = built(&[3u8; 64]); // evicts 2
        assert_eq!(cache.tracked_slots(), 2);
        assert!(cache.slot_entry(1).is_some(), "recently used survives");
        // Slot 2 was evicted: looking it up yields a fresh cold entry.
        assert!(cache.slot_entry(2).is_none());
    }

    #[test]
    fn zero_entry_is_permanent() {
        let mut cache = RefIndexCache::new(1);
        *cache.zero_entry() = built(&[0u8; 4096]);
        for s in 0..16 {
            let _ = cache.slot_entry(s);
            cache.invalidate_slot(s);
        }
        assert!(cache.zero_entry().is_some());
        assert_eq!(cache.built_indexes(), 0);
    }
}

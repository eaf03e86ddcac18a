//! The eviction-ranking index of the priority-template host.
//!
//! The host rescores the accessed object on every access and evicts the
//! exact minimum `(score, id)` pair — score first, object id as the
//! tie-break. [`HeapRank`] is an addressable binary min-heap keyed by the
//! engine's dense object slot ([`CacheView::slot`](crate::CacheView::slot)):
//! a position array maps each slot to its heap entry, so a rescore or a
//! removal sifts that one entry up or down in place — O(log N), no hash
//! probe, no stale entries — and the victim is read off the root in O(1).

use crate::engine::ObjId;

/// `position` of a slot that holds no entry.
const ABSENT: u32 = u32::MAX;

/// One ranked object. The slot rides along so a sift can update the
/// position array without a lookup.
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: i64,
    id: ObjId,
    slot: u32,
}

impl Entry {
    /// The eviction order.
    fn key(&self) -> (i64, ObjId) {
        (self.score, self.id)
    }
}

/// Addressable binary min-heap over `(score, id)`, keyed by engine slot.
#[derive(Debug, Default)]
pub struct HeapRank {
    /// The binary heap: every entry's key is no smaller than its parent's.
    heap: Vec<Entry>,
    /// Slot → index of its entry in `heap`, or [`ABSENT`].
    position: Vec<u32>,
}

impl HeapRank {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the object `id` held in `slot`, or update its score.
    pub fn set(&mut self, slot: u32, id: ObjId, score: i64) {
        let s = slot as usize;
        if s >= self.position.len() {
            self.position.resize(s + 1, ABSENT);
        }
        let entry = Entry { score, id, slot };
        match self.position[s] {
            ABSENT => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1, entry);
            }
            at => {
                let at = at as usize;
                let old = self.heap[at].key();
                if entry.key() < old {
                    self.sift_up(at, entry);
                } else if entry.key() > old {
                    self.sift_down(at, entry);
                }
            }
        }
    }

    /// Current score of the object in `slot`, if ranked.
    pub fn get(&self, slot: u32) -> Option<i64> {
        match self.position.get(slot as usize) {
            Some(&at) if at != ABSENT => Some(self.heap[at as usize].score),
            _ => None,
        }
    }

    /// Remove the object in `slot`; returns whether it was ranked.
    pub fn remove(&mut self, slot: u32) -> bool {
        let at = match self.position.get(slot as usize) {
            Some(&at) if at != ABSENT => at as usize,
            _ => return false,
        };
        self.position[slot as usize] = ABSENT;
        let last = self.heap.pop().expect("a ranked slot has a heap entry");
        if at < self.heap.len() {
            // the last entry fills the hole and moves whichever way it must
            if at > 0 && last.key() < self.heap[(at - 1) / 2].key() {
                self.sift_up(at, last);
            } else {
                self.sift_down(at, last);
            }
        }
        true
    }

    /// The minimum `(score, id)` pair.
    pub fn peek_min(&self) -> Option<(i64, ObjId)> {
        self.heap.first().map(Entry::key)
    }

    /// Number of ranked objects.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn place(&mut self, at: usize, entry: Entry) {
        self.heap[at] = entry;
        self.position[entry.slot as usize] = at as u32;
    }

    /// Put `entry` at hole `at` or above, moving larger parents down.
    fn sift_up(&mut self, mut at: usize, entry: Entry) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, entry);
    }

    /// Put `entry` at hole `at` or below, moving smaller children up.
    fn sift_down(&mut self, mut at: usize, entry: Entry) {
        let n = self.heap.len();
        loop {
            let left = 2 * at + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].key() < self.heap[left].key() {
                right
            } else {
                left
            };
            if self.heap[child].key() >= entry.key() {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl HeapRank {
        /// The heap property holds, `position` and `heap` agree both ways,
        /// and `len()` counts exactly the slots marked live.
        fn assert_invariants(&self) {
            for (at, e) in self.heap.iter().enumerate() {
                if at > 0 {
                    assert!(self.heap[(at - 1) / 2].key() < e.key(), "heap order at {at}");
                }
                assert_eq!(self.position[e.slot as usize], at as u32, "slot {}", e.slot);
            }
            let live = self.position.iter().filter(|&&at| at != ABSENT).count();
            assert_eq!(live, self.len());
        }
    }

    fn drain(r: &mut HeapRank) -> Vec<(i64, ObjId)> {
        let mut out = Vec::new();
        while let Some((s, id)) = r.peek_min() {
            out.push((s, id));
            let slot = r.heap[0].slot;
            r.remove(slot);
        }
        out
    }

    #[test]
    fn min_order_with_ties_matches_reference() {
        let mut h = HeapRank::new();
        let mut reference = Vec::new();
        for (slot, (id, score)) in
            [(3u64, 5i64), (1, 5), (2, 4), (9, 4), (7, 6)].into_iter().enumerate()
        {
            h.set(slot as u32, id, score);
            reference.push((score, id));
            assert_eq!(h.peek_min(), reference.iter().copied().min());
        }
        reference.sort_unstable();
        assert_eq!(drain(&mut h), reference);
    }

    #[test]
    fn rescore_discards_stale_entries() {
        let mut h = HeapRank::new();
        h.set(0, 1, 10);
        h.set(1, 2, 20);
        h.set(0, 1, 30); // the old (10, 1) must not surface
        assert_eq!(h.peek_min(), Some((20, 2)));
        h.set(0, 1, 10); // back to the old value
        assert_eq!(h.peek_min(), Some((10, 1)));
        assert_eq!(h.get(0), Some(10));
        assert_eq!(h.len(), 2);
        h.assert_invariants();
    }

    #[test]
    fn remove_then_reinsert_same_score() {
        let mut h = HeapRank::new();
        h.set(0, 1, 7);
        h.set(1, 2, 9);
        assert!(h.remove(0));
        assert_eq!(h.peek_min(), Some((9, 2)));
        h.set(0, 1, 7); // slot recycled
        assert_eq!(h.peek_min(), Some((7, 1)));
        assert!(!h.remove(42));
        assert_eq!(h.get(42), None);
        h.assert_invariants();
    }

    #[test]
    fn heap_holds_one_entry_per_ranked_slot() {
        let mut h = HeapRank::new();
        for round in 0..1_000i64 {
            for slot in 0..8u32 {
                h.set(slot, slot as u64, round * 8 + slot as i64);
            }
        }
        assert_eq!(h.heap.len(), 8);
        assert_eq!(h.peek_min(), Some((999 * 8, 0)));
        h.assert_invariants();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random set / remove / evict-min sequences over recycled slots:
        /// the invariants hold after every operation.
        #[test]
        fn invariants_hold_after_every_op(
            ops in proptest::collection::vec((0u8..3, 0u32..24, -20i64..20), 1..400),
        ) {
            let mut h = HeapRank::new();
            for (op, slot, score) in ops {
                match op {
                    0 => h.set(slot, slot as u64, score),
                    1 => {
                        let ranked = h.get(slot).is_some();
                        prop_assert_eq!(h.remove(slot), ranked);
                    }
                    _ => {
                        if let Some((_, id)) = h.peek_min() {
                            prop_assert!(h.remove(id as u32));
                        }
                    }
                }
                h.assert_invariants();
            }
        }
    }
}

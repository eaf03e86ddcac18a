//! Table-1 feature infrastructure for the template host: percentile
//! aggregates over the resident set and the recent-eviction history.
//!
//! §4.1.2 of the paper requires the `priority()` function to see
//! "percentiles over access counts, ages, or sizes of all objects in
//! cache". Maintaining exact order statistics under every access would
//! dominate runtime, so the tracker keeps a deterministic random sample of
//! residents and refreshes it every `AggregateTracker::refresh_interval`
//! accesses — the same approximation a production host would make (the
//! paper itself flags the template's overhead question in §4.1.2). A
//! refresh reads the sampled residents' metadata by engine slot and picks
//! out only the percentile ranks the hosted expression reads
//! (`select_nth_unstable`, no full sort); between refreshes a percentile
//! is a table read. Ages are derived from last-access samples at *query*
//! time, so they stay current between refreshes.

use crate::engine::{CacheView, ObjId};
use crate::util::IdMap;
use policysmith_dsl::Feature;
use std::collections::VecDeque;

/// Maximum residents sampled per snapshot refresh.
const SNAPSHOT_SAMPLE: usize = 256;

/// Sample families, indexing `AggregateTracker::samples`.
pub(crate) const COUNTS: usize = 0;
pub(crate) const LAST_ACCESS: usize = 1;
pub(crate) const SIZES: usize = 2;

/// `position` of a slot that is not tracked.
const ABSENT: u32 = u32::MAX;

/// Sampled percentile snapshots over the resident population.
#[derive(Debug, Clone)]
pub struct AggregateTracker {
    /// Engine slots of the residents, in insertion order (swap-remove).
    residents: Vec<u32>,
    /// Slot → index in `residents`, or [`ABSENT`].
    position: Vec<u32>,
    /// Per family, the last refresh's sample, in no particular order:
    /// access counts, last-access vtimes, sizes.
    samples: [Vec<u64>; 3],
    /// `(family, percentile)` pairs the hosted expression reads.
    wanted: Vec<(usize, u8)>,
    /// `selected[family][p]` is the `p`-th percentile of that family's
    /// sample, for every wanted pair (0 while the sample is empty).
    selected: [[u64; 101]; 3],
    accesses_since_refresh: u64,
    refresh_interval: u64,
    rng_state: u64,
}

impl AggregateTracker {
    /// Tracker refreshing every `refresh_interval` accesses.
    pub fn new(refresh_interval: u64) -> Self {
        AggregateTracker {
            residents: Vec::new(),
            position: Vec::new(),
            samples: Default::default(),
            wanted: Vec::new(),
            selected: [[0; 101]; 3],
            accesses_since_refresh: 0,
            refresh_interval: refresh_interval.max(1),
            rng_state: 0xa0761d6478bd642f,
        }
    }

    /// Number of tracked residents.
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// Is the tracker empty?
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Record the insertion of the object in engine slot `slot`.
    pub fn insert(&mut self, slot: u32) {
        let s = slot as usize;
        if s >= self.position.len() {
            self.position.resize(s + 1, ABSENT);
        }
        self.position[s] = self.residents.len() as u32;
        self.residents.push(slot);
    }

    /// Record the eviction of the object in engine slot `slot`.
    pub fn remove(&mut self, slot: u32) {
        let Some(&ix) = self.position.get(slot as usize) else { return };
        if ix == ABSENT {
            return;
        }
        self.position[slot as usize] = ABSENT;
        self.residents.swap_remove(ix as usize);
        if let Some(&moved) = self.residents.get(ix as usize) {
            self.position[moved as usize] = ix;
        }
    }

    /// Select the percentiles `features` read — now, from the current
    /// sample, and at every later refresh. Call on (re)hosting a policy.
    pub fn want(&mut self, features: &[Feature]) {
        self.wanted = features
            .iter()
            .filter_map(|&f| match f {
                Feature::CountsPct(p) => Some((COUNTS, p.min(100))),
                // the p-th oldest age is the (100-p)-th last access
                Feature::AgesPct(p) => Some((LAST_ACCESS, 100 - p.min(100))),
                Feature::SizesPct(p) => Some((SIZES, p.min(100))),
                _ => None,
            })
            .collect();
        self.wanted.sort_unstable();
        self.wanted.dedup();
        self.select();
    }

    /// Tick on every access; refreshes snapshots when due.
    pub fn on_access(&mut self, view: &CacheView<'_>) {
        self.accesses_since_refresh += 1;
        if self.accesses_since_refresh >= self.refresh_interval || self.samples[COUNTS].is_empty() {
            self.refresh(view);
            self.accesses_since_refresh = 0;
        }
    }

    fn refresh(&mut self, view: &CacheView<'_>) {
        for sample in &mut self.samples {
            sample.clear();
        }
        let n = self.residents.len();
        for _ in 0..SNAPSHOT_SAMPLE.min(n) {
            let r = self.next_rand();
            let m = view.meta_at(self.residents[(r % n as u64) as usize]);
            self.samples[COUNTS].push(m.access_count);
            self.samples[LAST_ACCESS].push(m.last_vtime);
            self.samples[SIZES].push(m.size as u64);
        }
        self.select();
    }

    /// Fill `selected` for every wanted pair from the current samples.
    fn select(&mut self) {
        for &(family, p) in &self.wanted {
            let sample = &mut self.samples[family];
            self.selected[family][p as usize] = if sample.is_empty() {
                0
            } else {
                // the index of the p-th percentile were the sample sorted
                let rank = p as usize * (sample.len() - 1) / 100;
                *sample.select_nth_unstable(rank).1
            };
        }
    }

    /// p-th percentile of resident access counts.
    pub fn counts_pct(&self, p: u8) -> u64 {
        self.selected[COUNTS][p.min(100) as usize]
    }

    /// p-th percentile of resident object ages (`now - last_access`).
    ///
    /// The p-th *oldest* age corresponds to the (100-p)-th last-access
    /// sample, translated by the current clock at query time.
    pub fn ages_pct(&self, p: u8, now_vtime: u64) -> u64 {
        if self.samples[LAST_ACCESS].is_empty() {
            return 0;
        }
        now_vtime.saturating_sub(self.selected[LAST_ACCESS][100 - p.min(100) as usize])
    }

    /// p-th percentile of resident sizes, bytes.
    pub fn sizes_pct(&self, p: u8) -> u64 {
        self.selected[SIZES][p.min(100) as usize]
    }
}

/// The sort-and-index percentile that selection must reproduce — the
/// test oracle.
#[cfg(test)]
fn pct_of(sorted: &[u64], p: u8) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p as usize * (sorted.len() - 1)).div_euclid(100);
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
impl AggregateTracker {
    /// [`pct_of`] over a sorted copy of `family`'s current sample.
    pub(crate) fn sorted_sample_pct(&self, family: usize, p: u8) -> u64 {
        let mut sorted = self.samples[family].clone();
        sorted.sort_unstable();
        pct_of(&sorted, p)
    }
}

/// One remembered eviction — the paper's "list of recently evicted
/// objects, along with (timestamp, access count, age) at eviction".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionRecord {
    pub evict_vtime: u64,
    pub access_count: u64,
    /// `evict_time - last_access` at eviction.
    pub age_at_evict: u64,
}

/// Bounded history of recent evictions, keyed for `hist.contains` lookups.
#[derive(Debug, Clone)]
pub struct EvictionHistory {
    map: IdMap<ObjId, EvictionRecord>,
    fifo: VecDeque<ObjId>,
    capacity: usize,
}

impl EvictionHistory {
    /// History remembering the last `capacity` evictions.
    pub fn new(capacity: usize) -> Self {
        EvictionHistory { map: IdMap::default(), fifo: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Record an eviction (most recent record wins for repeated ids).
    pub fn record(&mut self, id: ObjId, rec: EvictionRecord) {
        if self.map.insert(id, rec).is_none() {
            self.fifo.push_back(id);
        }
        while self.fifo.len() > self.capacity {
            let old = self.fifo.pop_front().unwrap();
            self.map.remove(&old);
        }
    }

    /// Lookup by object id.
    pub fn get(&self, id: ObjId) -> Option<&EvictionRecord> {
        self.map.get(&id)
    }

    /// Number of remembered evictions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the history empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker whose samples are `values` for every family, wanting every
    /// percentile of every family.
    fn tracker_over(values: &[u64]) -> AggregateTracker {
        let mut t = AggregateTracker::new(1);
        t.samples = [values.to_vec(), values.to_vec(), values.to_vec()];
        let every: Vec<Feature> = (0..=100u8)
            .flat_map(|p| [Feature::CountsPct(p), Feature::AgesPct(p), Feature::SizesPct(p)])
            .collect();
        t.want(&every);
        t
    }

    #[test]
    fn percentile_indexing() {
        let sorted = vec![10, 20, 30, 40, 50];
        assert_eq!(pct_of(&sorted, 0), 10);
        assert_eq!(pct_of(&sorted, 50), 30);
        assert_eq!(pct_of(&sorted, 100), 50);
        assert_eq!(pct_of(&sorted, 75), 40);
        assert_eq!(pct_of(&[], 50), 0);
        let t = tracker_over(&[50, 10, 40, 30, 20]);
        assert_eq!(t.counts_pct(75), 40);
        assert_eq!(tracker_over(&[]).counts_pct(50), 0);
    }

    #[test]
    fn selected_percentiles_equal_sort_and_index() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [1usize, 2, 3, 7, 100, 255, 256] {
            for _ in 0..8 {
                // narrow ranges force duplicates
                let modulus = [3, 50, u64::MAX][(next() % 3) as usize];
                let values: Vec<u64> = (0..len).map(|_| next() % modulus).collect();
                let t = tracker_over(&values);
                let mut sorted = values.clone();
                sorted.sort_unstable();
                for p in 0..=100u8 {
                    assert_eq!(t.counts_pct(p), pct_of(&sorted, p), "counts p{p} of {len}");
                    assert_eq!(t.sizes_pct(p), pct_of(&sorted, p), "sizes p{p} of {len}");
                    let now = u64::MAX;
                    let age = now.saturating_sub(pct_of(&sorted, 100 - p));
                    assert_eq!(t.ages_pct(p, now), age, "ages p{p} of {len}");
                }
            }
        }
    }

    #[test]
    fn history_bounded_and_overwrites() {
        let mut h = EvictionHistory::new(3);
        for i in 0..5u64 {
            h.record(i, EvictionRecord { evict_vtime: i, access_count: 1, age_at_evict: 0 });
        }
        assert_eq!(h.len(), 3);
        assert!(h.get(0).is_none() && h.get(1).is_none());
        assert!(h.get(4).is_some());
        // re-record an existing id: updates in place, no duplicate
        h.record(4, EvictionRecord { evict_vtime: 99, access_count: 7, age_at_evict: 5 });
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(4).unwrap().access_count, 7);
    }

    #[test]
    fn resident_tracking() {
        let mut t = AggregateTracker::new(100);
        for slot in 0..10 {
            t.insert(slot);
        }
        t.remove(3);
        t.remove(9);
        t.remove(42); // absent: no-op
        t.remove(3); // already gone: no-op
        assert_eq!(t.len(), 8);
        for (ix, &slot) in t.residents.iter().enumerate() {
            assert_eq!(t.position[slot as usize], ix as u32);
        }
    }

    #[test]
    fn ages_percentile_uses_query_clock() {
        let mut t = AggregateTracker::new(1);
        t.samples[LAST_ACCESS] = vec![30, 50, 10, 40, 20];
        t.want(&[Feature::AgesPct(75), Feature::AgesPct(0)]);
        // p75 oldest age ↔ 25th percentile of last_access = 20
        assert_eq!(t.ages_pct(75, 100), 80);
        // same snapshot, later clock: ages grow
        assert_eq!(t.ages_pct(75, 200), 180);
        // youngest (p0) age ↔ newest last_access
        assert_eq!(t.ages_pct(0, 100), 50);
    }
}

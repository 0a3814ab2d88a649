//! Brute-force ground truth for every read the benchmark makes.
//!
//! The benchmark keeps its own copy of what it stored and, after the
//! timed window, checks each read against it. Range answers are compared
//! as an order-free digest (count and wrapping sum of per-event hashes),
//! so the timed loop only records 16 bytes per read. Each stored event
//! carries the sequence number of the operation that stored it, so a
//! read is checked against exactly the events stored before it.

use pool_core::event::Event;
use pool_core::query::RangeQuery;

/// A stable 64-bit hash of an event's attribute values.
pub fn event_hash(event: &Event) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for v in event.values() {
        h = crate::inputs::derive(h, v.to_bits());
    }
    h
}

/// An order-free digest of a multiset of events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Number of events.
    pub count: u64,
    /// Wrapping sum of [`event_hash`]es.
    pub sum: u64,
}

impl Digest {
    /// The digest of `events`.
    pub fn of(events: &[Event]) -> Self {
        let mut d = Digest::default();
        for e in events {
            d.add(event_hash(e));
        }
        d
    }

    fn add(&mut self, hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash);
    }
}

/// Every event stored, sorted by its first attribute for range scans.
pub struct Truth {
    dims: usize,
    /// First attribute of each event, ascending.
    firsts: Vec<f64>,
    /// Attribute values, `dims` per event, in the same order.
    values: Vec<f64>,
    /// Hash and storing operation's sequence number, in the same order.
    stored: Vec<(u64, u64)>,
}

impl Truth {
    /// Ground truth from `(event, sequence number of the operation that
    /// stored it)` pairs; the preload has sequence number 0.
    pub fn new(events: impl IntoIterator<Item = (Event, u64)>) -> Self {
        let mut all: Vec<(Event, u64)> = events.into_iter().collect();
        all.sort_by(|a, b| a.0.value(0).total_cmp(&b.0.value(0)));
        let dims = all.first().map_or(1, |(e, _)| e.dims());
        let firsts = all.iter().map(|(e, _)| e.value(0)).collect();
        let values = all.iter().flat_map(|(e, _)| e.values().iter().copied()).collect();
        let stored = all.iter().map(|(e, seq)| (event_hash(e), *seq)).collect();
        Truth { dims, firsts, values, stored }
    }

    /// Whether `got` is exactly the events matching `query` among those
    /// stored by operations numbered below `before`. The match test is
    /// [`RangeQuery::matches`]: inclusive bounds, unspecified dimensions
    /// spanning `[0, 1]`.
    pub fn accepts(&self, query: &RangeQuery, before: u64, got: Digest) -> bool {
        let bounds = query.rewritten();
        assert_eq!(bounds.len(), self.dims, "query and stored events differ in dimensions");
        let (lo, hi) = bounds[0];
        let first = self.firsts.partition_point(|&v| v < lo);
        let mut expected = Digest::default();
        let rows = self.values[first * self.dims..].chunks_exact(self.dims);
        for (v, &(hash, seq)) in rows.zip(&self.stored[first..]) {
            if v[0] > hi {
                break;
            }
            if seq < before && bounds.iter().zip(v).all(|(&(lo, hi), &x)| lo <= x && x <= hi) {
                expected.add(hash);
            }
        }
        expected == got
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(v: [f64; 3]) -> Event {
        Event::new(v.to_vec()).unwrap()
    }

    fn truth() -> (Truth, RangeQuery, Vec<Event>) {
        let events = vec![ev([0.1, 0.1, 0.1]), ev([0.2, 0.5, 0.5]), ev([0.25, 0.4, 0.6])];
        let query = RangeQuery::exact(vec![(0.15, 0.3), (0.3, 0.6), (0.3, 0.7)]).unwrap();
        let t = Truth::new(events.iter().cloned().map(|e| (e, 0)));
        (t, query, events)
    }

    #[test]
    fn exact_answer_is_accepted() {
        let (t, q, events) = truth();
        assert!(t.accepts(&q, 1, Digest::of(&events[1..])));
    }

    #[test]
    fn corrupted_answers_are_flagged() {
        let (t, q, events) = truth();
        // A missing event.
        assert!(!t.accepts(&q, 1, Digest::of(&events[1..2])));
        // An event that does not match the query.
        assert!(!t.accepts(&q, 1, Digest::of(&events)));
        // A matching count with a wrong value.
        let wrong = vec![events[1].clone(), ev([0.25, 0.4, 0.61])];
        assert!(!t.accepts(&q, 1, Digest::of(&wrong)));
    }

    #[test]
    fn a_read_sees_exactly_the_inserts_before_it() {
        let base = ev([0.2, 0.5, 0.5]);
        let later = ev([0.22, 0.5, 0.5]);
        let q = RangeQuery::exact(vec![(0.15, 0.3), (0.3, 0.6), (0.3, 0.7)]).unwrap();
        // `later` was stored by operation 5.
        let t = Truth::new([(base.clone(), 0), (later.clone(), 5)]);
        let both = Digest::of(&[base.clone(), later]);
        assert!(t.accepts(&q, 5, Digest::of(std::slice::from_ref(&base))));
        assert!(!t.accepts(&q, 5, both));
        assert!(t.accepts(&q, 6, both));
        assert!(!t.accepts(&q, 6, Digest::of(&[base])));
    }
}

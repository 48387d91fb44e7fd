//! Bucketed calendar queue: a monotone priority queue over `(time, key)`
//! pairs that dequeues in exactly ascending `(time, key)` order — the
//! same total order as a binary min-heap — but with O(1) amortized
//! push/pop when event times are spread across the calendar.
//!
//! The queue is the event backbone of the long-horizon serving fleet
//! loop in `pim_core`. The reference loop of the packet DES's
//! differential test (`tests/des_equivalence.rs`) also runs on it, so
//! that test cross-checks the DES's binary heap against an independent
//! exact queue. The DES itself keeps the heap: its few hundred live
//! events crowd into a few buckets, so every pop would min-scan dozens
//! of them.
//! Events are stored as plain `(u64, u64)` pairs in flat per-bucket
//! arenas (no per-event allocation), and [`CalendarQueue::clear`] keeps
//! the bucket capacity so one queue can be reused across sweep cells.
//!
//! # Discipline
//!
//! The calendar has `n` buckets of `width` time units each ("days");
//! an event at time `t` lives in bucket `(t / width) % n`. Popping
//! scans the current day's bucket for the minimum `(time, key)` event,
//! advancing day by day; if a whole "year" (all `n` buckets) is empty,
//! the cursor jumps straight to the earliest event. Pushing an event
//! earlier than the cursor rewinds the cursor, so the queue stays
//! correct even for non-monotone insertion patterns.
//!
//! # Examples
//!
//! ```
//! use netsim::CalendarQueue;
//!
//! let mut q = CalendarQueue::new(8);
//! q.push(30, 1);
//! q.push(10, 2);
//! q.push(10, 1);
//! assert_eq!(q.pop(), Some((10, 1)));
//! assert_eq!(q.pop(), Some((10, 2)));
//! assert_eq!(q.pop(), Some((30, 1)));
//! assert_eq!(q.pop(), None);
//! ```

/// A bucketed calendar queue over `(time, key)` events.
///
/// Pops return events in strictly ascending `(time, key)` order; ties
/// on both fields dequeue in an unspecified but deterministic order
/// (duplicates are allowed). The source-file header documents the
/// bucketing discipline.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Flat per-bucket event arenas; index = `(time / width) % buckets.len()`.
    buckets: Vec<Vec<(u64, u64)>>,
    /// Bucket width in time units (one "day").
    width: u64,
    /// Total events stored.
    len: usize,
    /// The day (`time / width`) the pop cursor is currently scanning.
    /// Invariant: no stored event has `time / width < cursor_day`.
    cursor_day: u64,
}

/// Initial bucket count; grows by doubling as the population grows.
const INITIAL_BUCKETS: usize = 16;
/// Grow when the population exceeds this many events per bucket.
const GROW_THRESHOLD: usize = 4;

impl CalendarQueue {
    /// Creates an empty queue with the given bucket width (clamped to at
    /// least 1). Pick a width close to the typical gap between event
    /// times; correctness never depends on it, only constant factors.
    pub fn new(width: u64) -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            width: width.max(1),
            len: 0,
            cursor_day: 0,
        }
    }

    /// Number of events stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every event but keeps all bucket capacity, so the queue
    /// can be reused across runs (e.g. sweep cells) without reallocating.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cursor_day = 0;
    }

    /// Inserts an event.
    pub fn push(&mut self, time: u64, key: u64) {
        if self.len >= GROW_THRESHOLD * self.buckets.len() {
            self.grow();
        }
        let day = time / self.width;
        if day < self.cursor_day {
            // Out-of-order insertion into the past: rewind the cursor so
            // the pop scan cannot skip this event.
            self.cursor_day = day;
        }
        let n = self.buckets.len();
        self.buckets[(day % n as u64) as usize].push((time, key));
        self.len += 1;
    }

    /// Removes and returns the minimum `(time, key)` event, or `None`
    /// when empty.
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        // Scan at most one full year from the cursor, day by day.
        for _ in 0..n {
            let day_end = (self.cursor_day + 1).saturating_mul(self.width);
            let bucket = (self.cursor_day % n) as usize;
            if let Some(pos) = Self::min_before(&self.buckets[bucket], day_end) {
                self.len -= 1;
                return Some(self.buckets[bucket].swap_remove(pos));
            }
            self.cursor_day += 1;
        }
        // A whole year is empty: jump the cursor to the earliest event.
        let (bucket, pos) = self.global_min();
        self.cursor_day = self.buckets[bucket][pos].0 / self.width;
        self.len -= 1;
        Some(self.buckets[bucket].swap_remove(pos))
    }

    /// Index of the minimum `(time, key)` event with `time < day_end`
    /// within one bucket, if any.
    fn min_before(bucket: &[(u64, u64)], day_end: u64) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, ev) in bucket.iter().enumerate() {
            if ev.0 < day_end && best.is_none_or(|b| *ev < bucket[b]) {
                best = Some(i);
            }
        }
        best
    }

    /// Location of the global minimum event. Only called when non-empty.
    fn global_min(&self) -> (usize, usize) {
        let mut best: Option<((u64, u64), usize, usize)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (i, ev) in bucket.iter().enumerate() {
                if best.is_none_or(|(b, _, _)| *ev < b) {
                    best = Some((*ev, bi, i));
                }
            }
        }
        let (_, bi, i) = best.expect("global_min on empty queue");
        (bi, i)
    }

    /// Doubles the bucket count and redistributes every event.
    fn grow(&mut self) {
        let new_n = self.buckets.len() * 2;
        let mut next: Vec<Vec<(u64, u64)>> = (0..new_n).map(|_| Vec::new()).collect();
        for b in &mut self.buckets {
            for ev in b.drain(..) {
                next[((ev.0 / self.width) % new_n as u64) as usize].push(ev);
            }
        }
        self.buckets = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Reference discipline: a binary min-heap over (time, key).
    fn heap_order(events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut h: BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            events.iter().map(|&e| std::cmp::Reverse(e)).collect();
        let mut out = Vec::with_capacity(events.len());
        while let Some(std::cmp::Reverse(e)) = h.pop() {
            out.push(e);
        }
        out
    }

    fn calendar_order(width: u64, events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut q = CalendarQueue::new(width);
        for &(t, k) in events {
            q.push(t, k);
        }
        let mut out = Vec::with_capacity(events.len());
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn empty_pops_none() {
        let mut q = CalendarQueue::new(4);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn dequeues_in_time_then_key_order() {
        let events = [(5, 9), (1, 2), (5, 1), (0, 7), (100, 0), (1, 1)];
        assert_eq!(calendar_order(8, &events), heap_order(&events));
    }

    #[test]
    fn sparse_events_trigger_the_year_jump() {
        // Gaps far larger than width * INITIAL_BUCKETS force the direct
        // global-min jump path.
        let events = [(0, 0), (1_000_000, 1), (50_000_000, 2), (1_000_001, 0)];
        assert_eq!(calendar_order(4, &events), heap_order(&events));
    }

    #[test]
    fn interleaved_push_pop_respects_order() {
        let mut q = CalendarQueue::new(4);
        q.push(10, 0);
        q.push(3, 1);
        assert_eq!(q.pop(), Some((3, 1)));
        // Push at the current time after the cursor advanced.
        q.push(3, 2);
        q.push(7, 0);
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((7, 0)));
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_order() {
        let mut q = CalendarQueue::new(2);
        for t in 0..200 {
            q.push(t * 3, t);
        }
        q.clear();
        assert!(q.is_empty());
        q.push(5, 0);
        q.push(1, 0);
        assert_eq!(q.pop(), Some((1, 0)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_redistribution_preserves_order() {
        // Enough events to force several doublings.
        let events: Vec<(u64, u64)> = (0..1000)
            .map(|i: u64| ((i * 2_654_435_761) % 4096, i % 7))
            .collect();
        assert_eq!(calendar_order(8, &events), heap_order(&events));
    }

    #[test]
    fn duplicate_times_and_keys_all_come_out() {
        let events = [(4, 4); 10];
        let out = calendar_order(16, &events);
        assert_eq!(out, vec![(4, 4); 10]);
    }
}

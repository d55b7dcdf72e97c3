//! The event calendar.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! scheduled event. [`EventQueue`] is a hierarchical calendar keyed on
//! ([`SimTime`], push order): push and pop are O(1) amortized instead of
//! the O(log n) of a binary heap, and events scheduled for the same instant
//! are still delivered in the order they were pushed. That FIFO tie-break
//! is what makes whole-system runs reproducible.
//!
//! [`HeapEventQueue`] keeps the original `BinaryHeap` implementation as a
//! differential-test oracle and benchmark baseline; both queues produce
//! bit-identical pop sequences for any program of pushes and pops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::time::SimTime;

/// Bits of the level-0 window: one slot per microsecond, `2^12` slots
/// (~4 ms), wide enough that network hops and most compute segments are
/// filed straight into their final slot.
const L0_BITS: u32 = 12;
/// Level-0 slots.
const L0_SLOTS: usize = 1 << L0_BITS;
/// `u64` words of the level-0 occupancy bitmap.
const L0_WORDS: usize = L0_SLOTS / 64;
/// Bits per coarse level; each coarse level has `2^SLOT_BITS` buckets.
const SLOT_BITS: u32 = 6;
/// Buckets per coarse level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Coarse levels above level 0. Coarse level `L` (0-based) buckets events
/// by bits `[12 + 6L, 18 + 6L)` of their microsecond timestamp, so the
/// calendar directly addresses `2^36` µs (~19 hours) ahead of the cursor;
/// anything further waits in an overflow list.
const COARSE_LEVELS: usize = 4;
/// End-of-list / empty-free-list marker for slab links.
const NIL: u32 = u32::MAX;

/// A deterministic future-event list.
///
/// The payload type `E` is opaque to the kernel; the simulation driver (see
/// the `microsim` crate) defines its own event enum and interprets popped
/// events.
///
/// Events are filed by their distance from a *cursor*, which moves forward
/// only when level 0 runs dry:
///
/// * in the cursor's `2^12` µs level-0 block → a per-microsecond FIFO list
///   in a slab, found through a two-level occupancy bitmap and popped
///   straight from its slot;
/// * further ahead → a 64-bucket coarse level, re-filed once when the
///   cursor reaches its bucket;
/// * beyond the ~19 h span → the overflow list;
/// * before the cursor (scheduled after a [`peek_time`](Self::peek_time)
///   cascaded past it, e.g. at a `run_until` horizon) → a small sorted list
///   that pops before everything else.
///
/// # Example
///
/// ```
/// use simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "later");
/// q.push(SimTime::from_millis(1), "sooner");
/// q.push(SimTime::from_millis(1), "sooner-second");
///
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner-second");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Level-0 event nodes; each slot's events form a FIFO list linked by
    /// slab index. Popped nodes are recycled through `free`.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list threaded through `Node::next`, or `NIL`.
    free: u32,
    /// `(head, tail)` node of each level-0 slot's list; meaningful only
    /// while the slot's occupancy bit is set.
    ends: Vec<(u32, u32)>,
    /// Level-0 occupancy: bit `s % 64` of word `s / 64` is set iff slot
    /// `s` is non-empty.
    occupied: [u64; L0_WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: u64,
    /// `COARSE_LEVELS * SLOTS` buckets, flattened; bucket
    /// `level * SLOTS + slot` holds events in push order.
    buckets: Vec<Vec<Entry<E>>>,
    /// Per-coarse-level occupancy: bit `s` set iff bucket `s` is non-empty.
    coarse: [u64; COARSE_LEVELS],
    /// Events before the cursor, sorted by descending (time, push order):
    /// popped from the back.
    behind: Vec<Entry<E>>,
    /// Events more than the calendar span (~19 h) ahead of the cursor.
    overflow: Vec<Entry<E>>,
    /// Microsecond timestamp the calendar is positioned at. Level 0 holds
    /// events in `[cursor, end of cursor's 2^12 µs block)`; coarse buckets
    /// hold events in later blocks.
    cursor: u64,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<E> {
    /// Next node in the slot's list (or in the free list), or `NIL`.
    next: u32,
    /// `None` only while the node is on the free list.
    payload: Option<E>,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    payload: E,
}

/// The queue's snapshot path: every field cloned explicitly, one line per
/// field. A clone is an exact fork — it preserves the slab and its free
/// list, the slot lists' FIFO order and the cursor, so the original and
/// the copy pop identical sequences. `simlint`'s `snapshot-complete` rule
/// cross-checks this impl against the struct's field list, making a
/// silently-missing field a CI failure instead of a stale fork.
impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            nodes: self.nodes.clone(),
            free: self.free,
            ends: self.ends.clone(),
            occupied: self.occupied,
            summary: self.summary,
            buckets: self.buckets.clone(),
            coarse: self.coarse,
            behind: self.behind.clone(),
            overflow: self.overflow.clone(),
            cursor: self.cursor,
            len: self.len,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` soon-to-fire events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            ends: vec![(NIL, NIL); L0_SLOTS],
            occupied: [0; L0_WORDS],
            summary: 0,
            buckets: (0..COARSE_LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            coarse: [0; COARSE_LEVELS],
            behind: Vec::new(),
            overflow: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Events pushed for the same instant pop in push order.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.len += 1;
        self.insert(time, payload);
    }

    /// Removes and returns the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(e) = self.behind.pop() {
            self.len -= 1;
            return Some((e.time, e.payload));
        }
        if self.summary == 0 && !self.cascade() {
            return None;
        }
        self.len -= 1;
        let slot = self.first_slot();
        let (head, tail) = self.ends[slot];
        let node = &mut self.nodes[head as usize];
        let payload = node.payload.take().expect("live slot node");
        let next = mem::replace(&mut node.next, self.free);
        self.free = head;
        if head == tail {
            let word = slot / 64;
            self.occupied[word] &= !(1 << (slot % 64));
            if self.occupied[word] == 0 {
                self.summary &= !(1 << word);
            }
        } else {
            self.ends[slot].0 = next;
        }
        Some((self.slot_time(slot), payload))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because peeking may cascade a coarse bucket and
    /// advance the cursor; the set of pending events is unchanged.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(e) = self.behind.last() {
            return Some(e.time);
        }
        if self.summary == 0 && !self.cascade() {
            return None;
        }
        Some(self.slot_time(self.first_slot()))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending event, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.occupied = [0; L0_WORDS];
        self.summary = 0;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.coarse = [0; COARSE_LEVELS];
        self.behind.clear();
        self.overflow.clear();
        self.cursor = 0;
        self.len = 0;
    }

    /// The earliest occupied level-0 slot. Level 0 must be non-empty.
    #[inline]
    fn first_slot(&self) -> usize {
        let word = self.summary.trailing_zeros() as usize;
        word * 64 + self.occupied[word].trailing_zeros() as usize
    }

    /// The timestamp of level-0 slot `slot` in the cursor's block.
    #[inline]
    fn slot_time(&self, slot: usize) -> SimTime {
        SimTime::from_micros((self.cursor & !(L0_SLOTS as u64 - 1)) | slot as u64)
    }

    /// Files an event into the behind-cursor list, level 0, a coarse
    /// bucket, or the overflow list, according to its distance from the
    /// cursor.
    #[inline]
    fn insert(&mut self, time: SimTime, payload: E) {
        let t = time.as_micros();
        if t < self.cursor {
            // Before the cursor: ordered insert ahead of equal times, so
            // same-time events pop from the back in push order.
            let pos = self.behind.partition_point(|e| e.time > time);
            self.behind.insert(pos, Entry { time, payload });
            return;
        }
        let diff = t ^ self.cursor;
        if diff < L0_SLOTS as u64 {
            self.file_level0(t as usize & (L0_SLOTS - 1), payload);
            return;
        }
        let level = ((63 - diff.leading_zeros() - L0_BITS) / SLOT_BITS) as usize;
        if level >= COARSE_LEVELS {
            self.overflow.push(Entry { time, payload });
            return;
        }
        let slot = ((t >> (L0_BITS + SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
        self.buckets[level * SLOTS + slot].push(Entry { time, payload });
        self.coarse[level] |= 1 << slot;
    }

    /// Appends an event to the tail of level-0 slot `slot`'s FIFO list.
    #[inline]
    fn file_level0(&mut self, slot: usize, payload: E) {
        let node = Node {
            next: NIL,
            payload: Some(payload),
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = mem::replace(&mut self.nodes[idx as usize], node).next;
            idx
        };
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[word] & bit == 0 {
            self.ends[slot] = (idx, idx);
            self.occupied[word] |= bit;
            self.summary |= 1 << word;
        } else {
            let tail = mem::replace(&mut self.ends[slot].1, idx);
            self.nodes[tail as usize].next = idx;
        }
    }

    /// Refills an empty level 0: advances the cursor to the earliest
    /// occupied coarse bucket (or re-seeds from the overflow list) and
    /// re-files its events, until level 0 holds the earliest pending
    /// events. Returns `false` when the queue is empty.
    fn cascade(&mut self) -> bool {
        'scan: loop {
            if self.summary != 0 {
                return true;
            }
            for level in 0..COARSE_LEVELS {
                let shift = L0_BITS + SLOT_BITS * level as u32;
                let cursor_slot = ((self.cursor >> shift) as usize & (SLOTS - 1)) as u32;
                // Buckets at or above the cursor's digit. Lower levels are
                // scanned first, so a non-empty bucket here holds the
                // globally earliest pending events.
                let mask = self.coarse[level] & (u64::MAX << cursor_slot);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                self.coarse[level] &= !(1u64 << slot);
                // Advance to the bucket's start (nothing pends before it)
                // and re-file its entries in push order; they now land at
                // lower levels. The drained bucket keeps its allocation.
                let above = shift + SLOT_BITS;
                self.cursor = ((self.cursor >> above) << above) | ((slot as u64) << shift);
                let mut bucket = mem::take(&mut self.buckets[level * SLOTS + slot]);
                for e in bucket.drain(..) {
                    self.insert(e.time, e.payload);
                }
                self.buckets[level * SLOTS + slot] = bucket;
                continue 'scan;
            }
            // Calendar empty: re-seed from the overflow list, if any.
            let Some(min_t) = self.overflow.iter().map(|e| e.time.as_micros()).min() else {
                return false;
            };
            self.cursor = min_t;
            for e in mem::take(&mut self.overflow) {
                self.insert(e.time, e.payload);
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The original `BinaryHeap`-backed event queue.
///
/// Kept as the reference implementation: the property tests in
/// `tests/properties.rs` drive it and [`EventQueue`] with identical
/// push/pop programs and assert bit-identical pop sequences, and the
/// benches in `crates/bench` use it as the before/after baseline.
#[derive(Debug, Clone)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.push(SimTime::from_secs(10), 3);
        q.push(SimTime::FAR_FUTURE, 4);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The cleared queue is reusable from time zero.
        q.push(SimTime::from_micros(7), 5);
        q.push(SimTime::from_micros(7), 6);
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 5)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 6)));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn far_future_events_survive_overflow() {
        let mut q = EventQueue::new();
        // Beyond the calendar span (~19 h) and at the FAR_FUTURE sentinel.
        q.push(SimTime::FAR_FUTURE, "sentinel");
        q.push(SimTime::from_secs(100_000), "distant");
        q.push(SimTime::from_millis(1), "soon");
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(1), "soon"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(100_000), "distant"));
        assert_eq!(q.pop().unwrap(), (SimTime::FAR_FUTURE, "sentinel"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_before_the_cursor_pop_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(50), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        // The cursor now sits at 50 ms; schedule into its past.
        q.push(SimTime::from_millis(10), "past");
        q.push(SimTime::from_millis(60), "future");
        q.push(SimTime::from_millis(10), "past-second");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "past-second");
        assert_eq!(q.pop().unwrap().1, "future");
    }

    #[test]
    fn cloned_queue_replays_identically() {
        let mut q = EventQueue::new();
        let mut t = 3u64;
        for i in 0..500u64 {
            t = t.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(i) % 90_000_000;
            q.push(SimTime::from_micros(t), i);
        }
        for _ in 0..120 {
            q.pop();
        }
        // A clone taken mid-stream must drain identically to the original,
        // including the seq counter for subsequent same-time pushes.
        let mut fork = q.clone();
        q.push(SimTime::from_micros(50), 9_999);
        fork.push(SimTime::from_micros(50), 9_999);
        loop {
            let (a, b) = (q.pop(), fork.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_heap_reference_on_dense_interleaving() {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Deterministic scatter of pushes across all calendar levels, with
        // interleaved pops.
        let mut t = 1u64;
        for i in 0..2_000u64 {
            t = t.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) % 300_000_000;
            cal.push(SimTime::from_micros(t), i);
            heap.push(SimTime::from_micros(t), i);
            if i % 3 == 0 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pushes_at_an_idle_horizon_pop_fifo_before_the_peeked_event() {
        // A `run_until(5 ms)` horizon: the only pending event lies in a
        // later level-0 block, so peeking cascades the cursor to that
        // block's start (8192 µs), past the horizon.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10_000), "next");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10_000)));
        assert!(q.cursor > 5_000);
        // Agents woken at the horizon schedule between it and the cursor
        // (behind it), at the cursor, and between the cursor and the
        // peeked event.
        q.push(SimTime::from_micros(5_250), "a1");
        q.push(SimTime::from_micros(8_192), "cursor");
        q.push(SimTime::from_micros(7_000), "b");
        q.push(SimTime::from_micros(5_250), "a2");
        q.push(SimTime::from_micros(9_000), "c");
        q.push(SimTime::from_micros(5_250), "a3");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5_250)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a1", "a2", "a3", "b", "cursor", "c", "next"]);
    }
}

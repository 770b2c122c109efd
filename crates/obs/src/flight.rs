//! The flight recorder: an always-on, lock-free, bounded ring buffer
//! of fixed-size structured records.
//!
//! When a query is slow or panics, aggregate counters tell you *that*
//! it happened but not *what happened around it*. The flight recorder
//! closes that gap: every interesting event on the serving hot path
//! (enqueue, dequeue, query start/end, cache traffic) appends one
//! small record — monotonic timestamp, thread id, event kind, two
//! `u64` payload words — to a fixed-size ring. Writers never block and
//! never allocate; old records are silently overwritten; a snapshot
//! or an ndjson dump captures the last `capacity` events at the
//! moment of an incident.
//!
//! ## Concurrency
//!
//! The ring is a power-of-two array of seqlock slots behind one
//! atomic write cursor. A writer claims a slot with a single relaxed
//! `fetch_add`, marks it busy, stores the five payload words with
//! relaxed atomics and publishes the slot's sequence number with a
//! release store. A reader ([`FlightRecorder::snapshot`]) checks each
//! slot's sequence before and after copying the payload and discards
//! the slot when the two disagree — a record being overwritten
//! mid-read is dropped, never torn. No operation takes a lock and the
//! writer path is wait-free (one `fetch_add`, six stores).
//!
//! A [`FlightRecorder::disabled`] recorder has no slots; `record` on
//! it is a single branch, so the disabled path stays inside the <2%
//! observability ceiling the `emulator_decode` bench enforces.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use crate::trace::thread_id;

/// Slot sequence value marking a write in progress.
const BUSY: u64 = u64::MAX;

/// What a flight record describes. The codes are stable (they appear
/// in dumps); add new kinds at the end.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum FlightKind {
    /// A free-form marker (payload meaning is the caller's).
    Mark = 0,
    /// A request entered the queue (`a` = request id, `b` = depth
    /// after enqueue).
    Enqueue = 1,
    /// A request left the queue (`a` = request id, `b` = depth after
    /// dequeue).
    Dequeue = 2,
    /// A query began executing (`a` = request id).
    QueryStart = 3,
    /// A query succeeded (`a` = request id, `b` = steps).
    QueryOk = 4,
    /// A query returned an error (`a` = request id).
    QueryFail = 5,
    /// A query panicked through `catch_unwind` (`a` = request id).
    QueryPanic = 6,
    /// A live stats query was answered (`a` = request id).
    StatsQuery = 7,
    /// Artifact cache hit (`a` = source hash, `b` = config hash).
    CacheHit = 8,
    /// Artifact cache miss (`a` = source hash, `b` = config hash).
    CacheMiss = 9,
    /// Artifact cache entry was corrupt (`a` = source hash, `b` =
    /// config hash).
    CacheCorrupt = 10,
    /// The recorder itself was dumped (`a` = triggering request id).
    Dump = 11,
}

impl FlightKind {
    /// Every kind, in code order.
    pub const ALL: [FlightKind; 12] = [
        FlightKind::Mark,
        FlightKind::Enqueue,
        FlightKind::Dequeue,
        FlightKind::QueryStart,
        FlightKind::QueryOk,
        FlightKind::QueryFail,
        FlightKind::QueryPanic,
        FlightKind::StatsQuery,
        FlightKind::CacheHit,
        FlightKind::CacheMiss,
        FlightKind::CacheCorrupt,
        FlightKind::Dump,
    ];

    /// Stable lower-snake name (what dumps carry).
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Mark => "mark",
            FlightKind::Enqueue => "enqueue",
            FlightKind::Dequeue => "dequeue",
            FlightKind::QueryStart => "query_start",
            FlightKind::QueryOk => "query_ok",
            FlightKind::QueryFail => "query_fail",
            FlightKind::QueryPanic => "query_panic",
            FlightKind::StatsQuery => "stats_query",
            FlightKind::CacheHit => "cache_hit",
            FlightKind::CacheMiss => "cache_miss",
            FlightKind::CacheCorrupt => "cache_corrupt",
            FlightKind::Dump => "dump",
        }
    }

    /// The kind of a stored code, `None` for codes from a future
    /// format.
    pub fn from_code(code: u16) -> Option<FlightKind> {
        FlightKind::ALL.get(code as usize).copied()
    }
}

/// One recorded event, as copied out by a snapshot.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global write sequence (1-based, gap-free per recorder).
    pub seq: u64,
    /// Nanoseconds since the recorder was created (monotonic).
    pub ts_ns: u64,
    /// Dense thread id of the recording thread (see
    /// [`crate::thread_id`]).
    pub tid: u64,
    /// Event kind code (render through [`FlightKind::from_code`]).
    pub kind: u16,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl FlightRecord {
    /// The record's kind name, or `"unknown"` for codes from a future
    /// format.
    pub fn kind_name(&self) -> &'static str {
        FlightKind::from_code(self.kind).map_or("unknown", FlightKind::name)
    }
}

#[derive(Debug)]
struct Slot {
    /// 0 = never written, [`BUSY`] = write in progress, else
    /// `record.seq`.
    seq: AtomicU64,
    ts_ns: AtomicU64,
    tid: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            tid: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// The bounded lock-free ring of [`FlightRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Power-of-two slot array (empty when disabled).
    slots: Box<[Slot]>,
    /// Index mask (`slots.len() - 1`).
    mask: usize,
    /// Total records ever written (also the next sequence number).
    cursor: AtomicU64,
    /// Zero point of all record timestamps.
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` records (rounded up to a
    /// power of two, minimum 8). `capacity == 0` gives the disabled
    /// recorder.
    pub fn new(capacity: usize) -> Self {
        let cap = if capacity == 0 {
            0
        } else {
            capacity.max(8).next_power_of_two()
        };
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: cap.saturating_sub(1),
            cursor: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The recorder every record call falls straight through: no
    /// slots, no stores, one branch.
    pub fn disabled() -> Self {
        FlightRecorder::new(0)
    }

    /// Whether this recorder stores anything.
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Slot capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one record. Wait-free; never blocks, never allocates.
    #[inline]
    pub fn record(&self, kind: FlightKind, a: u64, b: u64) {
        if self.slots.is_empty() {
            return;
        }
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx as usize) & self.mask];
        // The swap's acquire half keeps the payload stores from
        // floating above the busy mark; the final release store
        // publishes them with the sequence.
        slot.seq.swap(BUSY, Ordering::AcqRel);
        slot.ts_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        slot.tid.store(thread_id(), Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Total records ever written (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Copies out every consistent record, oldest first (by sequence).
    /// Records being overwritten concurrently are skipped, never torn.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 == BUSY {
                continue;
            }
            let rec = FlightRecord {
                seq: s1,
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                tid: slot.tid.load(Ordering::Relaxed),
                kind: slot.kind.load(Ordering::Relaxed) as u16,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == s1 {
                out.push(rec);
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Renders a snapshot as ndjson — one record object per line, in
    /// sequence order (the dump format `obs_report --flight` renders).
    pub fn dump_ndjson(&self) -> String {
        to_ndjson(&self.snapshot())
    }
}

/// Renders records as ndjson, one object per line.
pub fn to_ndjson(records: &[FlightRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let _ = writeln!(
            out,
            "{{\"seq\": {}, \"ts_ns\": {}, \"tid\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}",
            r.seq,
            r.ts_ns,
            r.tid,
            r.kind_name(),
            r.a,
            r.b
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let f = FlightRecorder::disabled();
        assert!(!f.enabled());
        f.record(FlightKind::Mark, 1, 2);
        assert_eq!(f.recorded(), 0);
        assert!(f.snapshot().is_empty());
        assert_eq!(f.dump_ndjson(), "");
    }

    #[test]
    fn records_come_back_in_order_with_payloads() {
        let f = FlightRecorder::new(64);
        f.record(FlightKind::QueryStart, 7, 0);
        f.record(FlightKind::QueryOk, 7, 1234);
        let snap = f.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 1);
        assert_eq!(snap[0].kind_name(), "query_start");
        assert_eq!(snap[0].a, 7);
        assert_eq!(snap[1].kind_name(), "query_ok");
        assert_eq!(snap[1].b, 1234);
        assert!(snap[0].ts_ns <= snap[1].ts_ns, "timestamps are monotonic");
        assert_eq!(f.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let f = FlightRecorder::new(8);
        for i in 0..20u64 {
            f.record(FlightKind::Mark, i, 0);
        }
        assert_eq!(f.recorded(), 20);
        assert_eq!(f.dropped(), 12);
        let snap = f.snapshot();
        assert_eq!(snap.len(), 8, "only the last capacity records remain");
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (13..=20).collect::<Vec<_>>(),
            "the survivors are the newest, in order"
        );
        assert_eq!(snap[0].a, 12, "payload follows the sequence");
    }

    #[test]
    fn capacity_is_rounded_to_a_power_of_two() {
        assert_eq!(FlightRecorder::new(1).capacity(), 8);
        assert_eq!(FlightRecorder::new(100).capacity(), 128);
        assert_eq!(FlightRecorder::new(1024).capacity(), 1024);
        assert_eq!(FlightRecorder::new(0).capacity(), 0);
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in FlightKind::ALL {
            assert_eq!(FlightKind::from_code(k as u16), Some(k), "{}", k.name());
        }
        assert_eq!(FlightKind::from_code(999), None);
        let r = FlightRecord {
            seq: 1,
            ts_ns: 0,
            tid: 0,
            kind: 999,
            a: 0,
            b: 0,
        };
        assert_eq!(r.kind_name(), "unknown");
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let f = FlightRecorder::new(8);
        f.record(FlightKind::Enqueue, 1, 1);
        f.record(FlightKind::Dequeue, 1, 1);
        let dump = f.dump_ndjson();
        assert_eq!(dump.lines().count(), 2);
        for line in dump.lines() {
            let v = crate::json::parse(line).expect("valid json");
            assert!(v.get("seq").and_then(|s| s.as_u64()).is_some());
            assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
        }
    }
}

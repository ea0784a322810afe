//! The discrete-event queue.
//!
//! An indexed 4-ary min-heap keyed by `(time, sequence)`: the sequence
//! number breaks ties in insertion order, which makes runs fully
//! deterministic — two events scheduled for the same picosecond always
//! fire in the order they were scheduled.
//!
//! Layout matters here: this queue is the simulator's hottest structure
//! (every event passes through it, tens of millions per run). The heap
//! itself holds only 24-byte `(time, seq, slot, lane)` entries, so sift-up /
//! sift-down move small Copy values with good cache locality; the fat
//! [`Event`] payloads (a full [`Packet`] by value in the `Arrival` case)
//! live in a slab indexed by `slot` and are written exactly once on
//! `schedule` and read exactly once on `pop`. Freed slots are recycled
//! through a free list, so a steady-state run allocates nothing per event.
//! The 4-ary shape halves tree depth versus a binary heap, trading a few
//! extra comparisons per level for fewer cache-missing levels — the usual
//! win for discrete-event simulation workloads.
//!
//! # Lanes
//!
//! Most pending events of a packet simulation are packets in flight on a
//! link, and their order is already known: a link delivers in the order it
//! transmitted, and links of equal delay deliver in the order they all
//! transmitted. Holding each event as its own heap entry makes every push
//! and pop sift through entries whose relative order was never in question.
//! A **lane** ([`EventQueue::with_lanes`], [`EventQueue::schedule_on_lanes`])
//! is a FIFO of pending events sorted by `(time, seq)`, threaded through the
//! shared slab by a per-slot `next` link, and only the lane's *head* owns a
//! heap entry:
//!
//! * scheduling behind a non-empty lane appends to the list — O(1), the
//!   heap is not touched;
//! * popping a lane head overwrites `heap[0]` with its successor's key and
//!   does one sift-down — instead of a pop plus a push — on a heap that
//!   holds one entry per busy lane rather than one per packet in flight.
//!
//! What a lane stands for is the caller's business. The simulator opens one
//! per port and, beside them, four per **delay class** — the ports whose
//! links have the same latency and bandwidth. A packet of a given size that
//! starts transmitting *now* on any port of a class completes `ser(size)`
//! later and arrives `ser(size) + latency` later, the same two constants
//! whichever port, so the class's `Arrival`s of one size are scheduled in
//! the order they fire, and so — nearly — are its `TxDone`s: each kind and
//! size gets a lane, and the heap holds one entry per (class, size) instead
//! of one per busy link. An offer names up to two lanes, class first and
//! port second, and joins the first it keeps sorted.
//!
//! Sequence numbers still come from the one global counter at schedule
//! time and `pop` still returns the minimum `(time, seq)` over everything
//! pending, so the pop sequence is exactly what a single heap would produce
//! (a lane is sorted, so its head is its minimum, so the heap — lane heads
//! plus plain entries — always contains the global minimum). Nothing relies
//! on the caller's claim that a lane's offers are monotone — the queue
//! verifies, it never trusts: an offer that would unsort a lane goes on to
//! its second choice, and one that no lane will have, or that names none,
//! takes the plain heap path. That is what happens to the simulator's class
//! lanes under hybrid fidelity, where a transmission timed behind an express
//! reservation starts later than *now*: its arrival is ahead of what the
//! class's other ports offer next, those offers are refused, and they land
//! on their port's lane as they did before there were classes.
//! [`EventQueue::check_invariants`] audits all of it; [`LaneChurn`] counts
//! where inserts went. Lane entries are never handed a [`TimerHandle`];
//! cancel and reschedule are for plain entries only.
//!
//! # Reserved keys
//!
//! A caller that knows an event is usually a no-op can take its sequence
//! number now ([`EventQueue::reserve_seq`]) and insert the event under that
//! key later ([`EventQueue::schedule_reserved`]) — or never. The simulator
//! does this for `TxDone`: a port reserves the key at transmit start and
//! materialises the event only once a packet is waiting behind the one on
//! the wire. Why the pop order of everything else is untouched:
//!
//! * `next_seq` advances at the reservation exactly as it would have at a
//!   `schedule`, so every other event gets the key it always had;
//! * an event that is never materialised is one whose handler would have
//!   done nothing, so nothing downstream of it is missing;
//! * whoever needs to know whether the reserved instant has passed compares
//!   the reserved key with [`EventQueue::current_key`] — the `(time, seq)`
//!   of the event being handled — which answers exactly as "has that event
//!   popped yet" would have. The comparison is on the pair, not the time:
//!   two events in the same picosecond as a reserved key fall on either
//!   side of it by sequence number, and the earlier one must still see the
//!   reserved event as pending (equal-rate links deliver back-to-back
//!   packets exactly at the previous packet's transmit-complete instant, so
//!   this tie is the common case, not a corner).
//!
//! A reserved key may ride a lane: a lane orders by `(time, seq)`, and that
//! is all a key is. But it is the one kind of offer whose sequence number is
//! not the largest yet, so a lane may already hold a *later* key for the
//! same picosecond — two ports of a class that start transmitting together
//! and need their `TxDone`s in the other order — and appending there would
//! pop the older key second. The sortedness test is therefore on the pair;
//! for a fresh key it reduces to comparing times.

use crate::metrics::LaneChurn;
use crate::packet::{AgentId, NodeId, Packet, PortId};
use crate::time::SimTime;

/// Timer discriminator passed back to the agent that armed it.
///
/// Carries no validity state: a timer that should no longer fire is
/// canceled or rescheduled in place through its [`TimerHandle`] instead of
/// being left in the heap to be popped and discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Generic agent-defined timer (pacing, orchestration probes, ...).
    Custom { tag: u64 },
}

/// A stable reference to a pending event, returned by
/// [`EventQueue::schedule_cancelable`].
///
/// The handle names a slab slot plus the generation the slot had when the
/// event was scheduled; once the event fires, is canceled, or its slot is
/// recycled, the generation moves on and the handle goes harmlessly stale
/// ([`EventQueue::cancel`] / [`EventQueue::reschedule`] become no-ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// A scheduled infrastructure fault (see [`crate::faults::FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// `port` stops transmitting and blackholes everything offered to it.
    LinkDown { port: PortId },
    /// `port` resumes transmitting (queued packets drain from here on).
    LinkUp { port: PortId },
    /// `agent` crashes: its handlers stop running and packets addressed to
    /// it are destroyed.
    AgentCrash { agent: AgentId },
    /// `agent` restarts and handles traffic again.
    AgentRestore { agent: AgentId },
}

/// A scheduled simulator event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet finished propagating over a link and arrives at `node`.
    Arrival { node: NodeId, packet: Packet },
    /// The transmitter of `port` finished serializing its current packet.
    TxDone { port: PortId },
    /// A timer armed by `agent` fired.
    Timer { agent: AgentId, kind: TimerKind },
    /// A flow's sender starts transmitting.
    FlowStart { agent: AgentId },
    /// A packet leaves host processing and joins output port `port`
    /// (delayed host-side sends, e.g. modelled proxy processing time).
    Inject { port: PortId, packet: Packet },
    /// An injected infrastructure fault takes effect.
    Fault(FaultEvent),
}

/// Pending-event counts by class, as reported by [`EventQueue::census`].
/// `packets` counts events that carry a packet in flight (`Arrival`,
/// `Inject`); `timers` counts pending `Timer` events; `tx_done` counts
/// materialised `TxDone`s; everything else (`FlowStart`, `Fault`) lands in
/// `other`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCensus {
    pub packets: u64,
    pub timers: u64,
    pub tx_done: u64,
    pub other: u64,
}

/// Heap arity. Four children per node keeps the tree shallow (log₄ n
/// levels) while a whole sibling group still fits in one or two cache
/// lines of 24-byte entries.
const ARITY: usize = 4;

/// "No slot" / "no lane" sentinel for the `u32` links below.
const NIL: u32 = u32::MAX;

/// The lane index that names no lane, for the scheduling calls that take
/// one: the event goes where [`EventQueue::schedule`] would put it.
pub const NO_LANE: usize = usize::MAX;

/// A compact heap entry: ordering key plus a handle into the event slab.
/// `lane` rides in what would otherwise be padding: the lane this entry is
/// the head of, or [`NIL`] for a plain entry.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    lane: u32,
}

impl HeapEntry {
    /// Min-heap ordering key: earliest time first, schedule order within a
    /// timestamp.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Per-slot lane threading, meaningful only while the slot holds a lane
/// entry: its ordering key (a queued entry has no heap entry to carry it)
/// and the slot queued behind it on the same lane.
#[derive(Debug, Clone, Copy)]
struct LaneLink {
    at: SimTime,
    seq: u64,
    next: u32,
}

/// The event queue: a deterministic min-heap of [`Event`]s with
/// first-class cancel and reschedule-in-place, plus FIFO lanes
/// (see the module docs).
#[derive(Default)]
pub struct EventQueue {
    /// Indexed 4-ary min-heap of compact entries: every plain event and
    /// the head of every non-empty lane.
    heap: Vec<HeapEntry>,
    /// Slab of event payloads; `HeapEntry::slot` indexes into it. `None`
    /// slots are free and linked through `free`.
    slab: Vec<Option<Event>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Heap index of each occupied slot (`pos[slot]` is only meaningful
    /// while the slot is live); maintained by every sift so cancel and
    /// reschedule find their entry in O(1).
    pos: Vec<u32>,
    /// Per-slot generation, bumped whenever a slot is freed; a
    /// [`TimerHandle`] is live iff its generation still matches.
    gen: Vec<u32>,
    /// Per-slot lane threading, parallel to `slab`.
    link: Vec<LaneLink>,
    /// Tail slot of each lane; [`NIL`] while the lane is empty.
    lanes: Vec<u32>,
    /// Events queued on lanes behind their head, i.e. pending but not in
    /// `heap`.
    queued: usize,
    /// What every insert so far cost (appended / pushed / refused).
    churn: LaneChurn,
    next_seq: u64,
    now: SimTime,
    /// Sequence number of the last popped event; with `now`, the key of
    /// the event being handled.
    now_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before any reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_lanes(capacity, 0)
    }

    /// Like [`with_capacity`](Self::with_capacity), with `lanes` empty
    /// lanes for [`schedule_on_lane`](Self::schedule_on_lane).
    pub fn with_lanes(capacity: usize, lanes: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            pos: Vec::with_capacity(capacity),
            gen: Vec::with_capacity(capacity),
            link: Vec::with_capacity(capacity),
            lanes: vec![NIL; lanes],
            queued: 0,
            churn: LaneChurn::default(),
            next_seq: 0,
            now: SimTime::ZERO,
            now_seq: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The `(time, seq)` key of the last popped event — the one being
    /// handled; `(0, 0)` before the first pop. Every pending event, and
    /// every key reserved while handling an event, compares greater.
    #[inline]
    pub fn current_key(&self) -> (SimTime, u64) {
        (self.now, self.now_seq)
    }

    /// Takes the next sequence number without scheduling anything: the
    /// tie-break position an event scheduled right now would get. Insert
    /// the event later with [`schedule_reserved`](Self::schedule_reserved),
    /// or never (see the module docs).
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` under a key reserved earlier: it pops exactly
    /// where it would have had it been scheduled at
    /// [`reserve_seq`](Self::reserve_seq) time. `lane` is offered the event
    /// as in [`schedule_on_lane`](Self::schedule_on_lane) ([`NO_LANE`] for
    /// none); a reserved key is older than the lane's tail may be, so the
    /// lane takes it only if the whole `(at, seq)` pair keeps it sorted.
    ///
    /// # Panics
    /// Panics unless `(at, seq)` is after [`current_key`](Self::current_key)
    /// — a key at or before it names an instant that has already passed —
    /// or if `seq` was never handed out.
    pub fn schedule_reserved(&mut self, lane: usize, at: SimTime, seq: u64, event: Event) {
        assert!(
            (at, seq) > self.current_key() && seq < self.next_seq,
            "reserved key ({at}, {seq}) is not pending: current key ({}, {}), next seq {}",
            self.now,
            self.now_seq,
            self.next_seq
        );
        self.insert([self.lane_id(lane), NIL], at, seq, event);
    }

    /// Number of pending events, lane-held ones included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.queued
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        // A non-empty lane always has its head in the heap.
        debug_assert!(!self.heap.is_empty() || self.queued == 0);
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — events may only be scheduled at or
    /// after the current time.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve_seq();
        self.insert([NIL; 2], at, seq, event);
    }

    /// Schedules `event` at absolute time `at`, returning a handle that
    /// can later [`cancel`](Self::cancel) or
    /// [`reschedule`](Self::reschedule) it while it is still pending.
    ///
    /// # Panics
    /// Panics if `at` is in the past — events may only be scheduled at or
    /// after the current time.
    pub fn schedule_cancelable(&mut self, at: SimTime, event: Event) -> TimerHandle {
        let seq = self.reserve_seq();
        let slot = self.insert([NIL; 2], at, seq, event);
        TimerHandle {
            slot,
            gen: self.gen[slot as usize],
        }
    }

    /// Schedules `event` at absolute time `at` on `lane`: behind the
    /// lane's pending events if `at` is no earlier than the last of them
    /// (an O(1) append that leaves the heap alone), otherwise — or if the
    /// queue has no such lane — exactly as [`schedule`](Self::schedule)
    /// would. Either way the event fires in `(at, schedule order)` position
    /// among all pending events; the lane only changes what that costs.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_on_lane(&mut self, lane: usize, at: SimTime, event: Event) {
        self.schedule_on_lanes([lane, NO_LANE], at, event);
    }

    /// [`schedule_on_lane`](Self::schedule_on_lane) with a second choice:
    /// the event joins the first of `lanes` it keeps sorted (an empty lane
    /// always is), and takes the plain heap path only if neither will have
    /// it. The simulator offers a link's arrivals to the lane its delay
    /// class shares first and to the port's own lane second.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_on_lanes(&mut self, lanes: [usize; 2], at: SimTime, event: Event) {
        let lanes = lanes.map(|lane| self.lane_id(lane));
        let seq = self.reserve_seq();
        self.insert(lanes, at, seq, event);
    }

    /// A caller's lane index as stored: [`NIL`] if the queue has no such
    /// lane ([`NO_LANE`] never names one).
    #[inline]
    fn lane_id(&self, lane: usize) -> u32 {
        if lane < self.lanes.len() {
            lane as u32
        } else {
            NIL
        }
    }

    /// The one scheduling path: takes a slab slot, then offers the event to
    /// `lanes` in order — an empty lane makes it its head (a heap entry
    /// tagged with the lane), a lane whose tail's `(at, seq)` is no later
    /// than the offer's appends it (no heap entry) — and pushes a plain heap
    /// entry if neither lane keeps sorted with it or both are [`NIL`]. `seq`
    /// is fresh from [`reserve_seq`](Self::reserve_seq), and then `at` alone
    /// would decide sortedness, except on the reserved path, whose key can
    /// be older than a tail's at the same `at`: the test is on the pair.
    /// Returns the slot.
    #[inline]
    fn insert(&mut self, lanes: [u32; 2], at: SimTime, seq: u64, event: Event) -> u32 {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        let unlinked = LaneLink { at, seq, next: NIL };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slab[slot as usize].is_none());
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(Some(event));
                self.pos.push(0);
                self.gen.push(0);
                self.link.push(unlinked);
                slot
            }
        };
        let mut head_of = NIL;
        for lane in lanes {
            if lane == NIL {
                continue;
            }
            let tail = self.lanes[lane as usize];
            if tail != NIL {
                let last = self.link[tail as usize];
                if (at, seq) < (last.at, last.seq) {
                    self.churn.refused += 1;
                    continue;
                }
            }
            self.link[slot as usize] = unlinked;
            self.lanes[lane as usize] = slot;
            if tail != NIL {
                self.link[tail as usize].next = slot;
                self.queued += 1;
                self.churn.appended += 1;
                return slot;
            }
            head_of = lane;
            break;
        }
        self.churn.pushed += 1;
        let i = self.heap.len();
        self.heap.push(HeapEntry {
            at,
            seq,
            slot,
            lane: head_of,
        });
        self.sift_up(i);
        slot
    }

    /// True while the handle's event is still pending (not yet popped,
    /// canceled, or recycled).
    pub fn is_live(&self, handle: TimerHandle) -> bool {
        self.gen
            .get(handle.slot as usize)
            .is_some_and(|&g| g == handle.gen)
            && self.slab[handle.slot as usize].is_some()
    }

    /// Cancels a pending event, removing it from the heap and returning
    /// its payload. Returns `None` (and does nothing) if the handle is
    /// stale — the event already fired, was canceled, or its slot moved on.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<Event> {
        if !self.is_live(handle) {
            return None;
        }
        let i = self.pos[handle.slot as usize] as usize;
        debug_assert_eq!(self.heap[i].slot, handle.slot);
        debug_assert_eq!(self.heap[i].lane, NIL, "handle to a lane entry");
        let last = self.heap.pop().expect("live handle implies non-empty heap");
        if i < self.heap.len() {
            self.heap[i] = last;
            self.pos[last.slot as usize] = i as u32;
            // The displaced tail entry can violate the heap property in
            // either direction relative to position `i`.
            if i > 0 && self.heap[i].key() < self.heap[(i - 1) / ARITY].key() {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        Some(self.free_slot(handle.slot))
    }

    /// Moves a pending event to a new deadline in place: an indexed
    /// decrease/increase-key instead of a cancel + schedule pair. The entry
    /// takes a fresh sequence number, so within a timestamp it orders as if
    /// it had just been scheduled — exactly where a cancel + re-schedule
    /// would have put it. Returns `false` (and does nothing) on a stale
    /// handle.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn reschedule(&mut self, handle: TimerHandle, at: SimTime) -> bool {
        assert!(
            at >= self.now,
            "rescheduling into the past: at={at} now={}",
            self.now
        );
        if !self.is_live(handle) {
            return false;
        }
        let seq = self.reserve_seq();
        let i = self.pos[handle.slot as usize] as usize;
        debug_assert_eq!(self.heap[i].slot, handle.slot);
        let went_earlier = (at, seq) < self.heap[i].key();
        self.heap[i].at = at;
        self.heap[i].seq = seq;
        if went_earlier {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        true
    }

    /// Mutable access to a pending event's payload (e.g. to refresh a
    /// timer's kind on reschedule). `None` on a stale handle.
    pub fn event_mut(&mut self, handle: TimerHandle) -> Option<&mut Event> {
        if !self.is_live(handle) {
            return None;
        }
        self.slab[handle.slot as usize].as_mut()
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let top = *self.heap.first()?;
        let succ = if top.lane == NIL {
            NIL
        } else {
            self.link[top.slot as usize].next
        };
        if succ != NIL {
            // A lane head with events queued behind it: its successor takes
            // over the root entry — one sift-down, no pop + push.
            let LaneLink { at, seq, .. } = self.link[succ as usize];
            self.heap[0] = HeapEntry {
                at,
                seq,
                slot: succ,
                lane: top.lane,
            };
            self.queued -= 1;
            self.sift_down(0);
        } else {
            if top.lane != NIL {
                self.lanes[top.lane as usize] = NIL;
            }
            let last = self.heap.pop().expect("non-empty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down(0);
            }
        }
        debug_assert!(top.at >= self.now, "heap returned an out-of-order event");
        self.now = top.at;
        self.now_seq = top.seq;
        Some((top.at, self.free_slot(top.slot)))
    }

    /// Releases a slot back to the free list, invalidating any handle that
    /// still points at it, and returns the payload it held.
    fn free_slot(&mut self, slot: u32) -> Event {
        let event = self.slab[slot as usize]
            .take()
            .expect("freeing an already-free slot");
        self.gen[slot as usize] = self.gen[slot as usize].wrapping_add(1);
        self.free.push(slot);
        event
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// What every insert since construction cost: appended behind a lane
    /// or pushed into the heap, and how often a lane refused an offer.
    pub fn lane_churn(&self) -> LaneChurn {
        self.churn
    }

    /// Counts pending events by class (for the invariant auditor). Walks
    /// the whole slab — lane-held events live there like any other — so it
    /// is O(slots): callers should only invoke it at audit checkpoints, not
    /// per event.
    pub fn census(&self) -> EventCensus {
        let mut census = EventCensus::default();
        for entry in self.slab.iter().flatten() {
            match entry {
                Event::Arrival { .. } | Event::Inject { .. } => census.packets += 1,
                Event::Timer { .. } => census.timers += 1,
                Event::TxDone { .. } => census.tx_done += 1,
                Event::FlowStart { .. } | Event::Fault(_) => census.other += 1,
            }
        }
        census
    }

    /// Checks the structure the pop order rests on (for the invariant
    /// auditor; O(pending events)): the heap is a heap and `pos` indexes it;
    /// every non-empty lane has its head — and only its head — in the heap,
    /// tagged with the lane and carrying the head's key; each lane is sorted
    /// by `(at, seq)` from head to the recorded tail, through live slots;
    /// `queued` is the number of events behind heads; every live slot is
    /// reachable.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut head_seen = vec![false; self.lanes.len()];
        let mut behind_heads = 0usize;
        for (i, entry) in self.heap.iter().enumerate() {
            if i > 0 && self.heap[(i - 1) / ARITY].key() > entry.key() {
                return Err(format!("heap[{i}] orders before its parent"));
            }
            if self
                .slab
                .get(entry.slot as usize)
                .is_none_or(Option::is_none)
            {
                return Err(format!("heap[{i}] names free slot {}", entry.slot));
            }
            if self.pos[entry.slot as usize] as usize != i {
                return Err(format!("pos[{}] does not point at heap[{i}]", entry.slot));
            }
            if entry.lane == NIL {
                continue;
            }
            let lane = entry.lane as usize;
            if lane >= self.lanes.len() || std::mem::replace(&mut head_seen[lane], true) {
                return Err(format!(
                    "heap[{i}] is a second or stray head of lane {lane}"
                ));
            }
            let mut slot = entry.slot;
            let mut key = self.link[slot as usize];
            if (key.at, key.seq) != entry.key() {
                return Err(format!(
                    "lane {lane}: heap entry and head disagree on the key"
                ));
            }
            while key.next != NIL {
                slot = key.next;
                behind_heads += 1;
                if behind_heads > self.queued || self.slab[slot as usize].is_none() {
                    return Err(format!(
                        "lane {lane} runs through slot {slot}: free or a loop"
                    ));
                }
                let next = self.link[slot as usize];
                if (next.at, next.seq) < (key.at, key.seq) {
                    return Err(format!("lane {lane} is unsorted at slot {slot}"));
                }
                key = next;
            }
            if self.lanes[lane] != slot {
                return Err(format!("lane {lane} ends at slot {slot}, not its tail"));
            }
        }
        if let Some(lane) = (0..self.lanes.len()).find(|&l| (self.lanes[l] != NIL) != head_seen[l])
        {
            return Err(format!("lane {lane} is non-empty with no head in the heap"));
        }
        let live = self.slab.iter().flatten().count();
        if behind_heads != self.queued || live != self.heap.len() + self.queued {
            return Err(format!(
                "queued={} but {behind_heads} events sit behind heads; {live} live slots \
                 for {} heap entries",
                self.queued,
                self.heap.len()
            ));
        }
        Ok(())
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].slot as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for c in first_child + 1..last_child {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if entry.key() <= best_key {
                break;
            }
            self.heap[i] = self.heap[best];
            self.pos[self.heap[i].slot as usize] = i as u32;
            i = best;
        }
        self.heap[i] = entry;
        self.pos[entry.slot as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn dummy(tag: u64) -> Event {
        Event::Timer {
            agent: AgentId(0),
            kind: TimerKind::Custom { tag },
        }
    }

    fn tag_of(e: &Event) -> u64 {
        match e {
            Event::Timer {
                kind: TimerKind::Custom { tag, .. },
                ..
            } => *tag,
            _ => panic!("unexpected event"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), dummy(3));
        q.schedule(SimTime(10), dummy(1));
        q.schedule(SimTime(20), dummy(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            q.schedule(SimTime(5), dummy(tag));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + SimDuration::from_micros(7), dummy(0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::ZERO + SimDuration::from_micros(7));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(42), dummy(0));
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), dummy(0));
        q.pop();
        q.schedule(SimTime(5), dummy(1));
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// Lanes of the queues under the randomized tests: [`OFFER_LANES`] that
    /// take offers of every kind, and one more that only reserved keys are
    /// materialised on — the simulator's `TxDone` lanes — where keys of one
    /// picosecond meet in either order of their sequence numbers.
    const TEST_LANES: usize = OFFER_LANES + 1;
    const OFFER_LANES: usize = 4;

    /// A lane index for the randomized tests: one of the first `lanes`
    /// lanes, or [`NO_LANE`].
    fn random_lane(rng: &mut trace::SplitMix64, lanes: usize) -> usize {
        match rng.next_bounded(lanes as u64 + 1) as usize {
            lane if lane < lanes => lane,
            _ => NO_LANE,
        }
    }

    /// A two-lane offer for the randomized tests: usually at or after the
    /// latest time its first lane was ever offered (the shape a link
    /// produces, which appends), sometimes anywhere from `now` on (which may
    /// unsort the first lane, the second, or both, and must then take the
    /// next choice or the heap); either lane may be no lane at all. Returns
    /// the chosen time.
    fn offer_on_random_lanes(
        rng: &mut trace::SplitMix64,
        q: &mut EventQueue,
        latest: &mut [u64],
        event: Event,
    ) -> u64 {
        let lanes = [random_lane(rng, OFFER_LANES), random_lane(rng, OFFER_LANES)];
        let now = q.now().0;
        let at = match latest.get(lanes[0]) {
            Some(&last) if rng.next_bounded(4) > 0 => last.max(now) + rng.next_bounded(20),
            _ => now + rng.next_bounded(50),
        };
        for lane in lanes {
            if let Some(last) = latest.get_mut(lane) {
                *last = at.max(*last);
            }
        }
        q.schedule_on_lanes(lanes, SimTime(at), event);
        at
    }

    /// The tail key of `lane`, if the queue has the lane and it is busy.
    fn tail_key(q: &EventQueue, lane: usize) -> Option<(SimTime, u64)> {
        let tail = *q.lanes.get(lane)?;
        (tail != NIL).then(|| (q.link[tail as usize].at, q.link[tail as usize].seq))
    }

    /// Materialises a reserved key on a random lane (the reserved-keys-only
    /// one half the time) or on none, counting in `tie_refusals` the case
    /// `at` alone would get wrong: the lane's tail is in the same picosecond
    /// with a later sequence number.
    fn materialise_on_random_lane(
        rng: &mut trace::SplitMix64,
        q: &mut EventQueue,
        (at, seq, tag): (u64, u64, u64),
        tie_refusals: &mut u32,
    ) {
        let lane = match rng.next_bounded(2) {
            0 => OFFER_LANES,
            _ => random_lane(rng, TEST_LANES),
        };
        let (queued, refused) = (q.queued, q.churn.refused);
        let tie = tail_key(q, lane).is_some_and(|(t, s)| t == SimTime(at) && s > seq);
        q.schedule_reserved(lane, SimTime(at), seq, dummy(tag));
        if tie {
            assert_eq!((q.queued, q.churn.refused), (queued, refused + 1));
            *tie_refusals += 1;
        }
    }

    /// Random interleaving of schedules, two-lane offers, key reservations
    /// and pops against a reference model: the queue must agree with a sorted
    /// `(time, seq)` list at every step, whichever of heap and lane an event
    /// went to, and its structure must audit clean. A reserved key enters
    /// the reference with the tag it was given at reservation — i.e. where an
    /// eager schedule would have put it — but only once it is materialised,
    /// on a lane or off: at once, pops later (timestamp ties on both sides
    /// of it by then), or never.
    #[test]
    fn randomized_interleaving_matches_reference() {
        let mut rng = trace::SplitMix64::new(0xE7E7);
        let mut q = EventQueue::with_lanes(0, TEST_LANES);
        let mut latest = [0u64; OFFER_LANES];
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, tag)
        let mut reserved: Vec<(u64, u64, u64)> = Vec::new(); // (time, seq, tag)
        let mut next_tag = 0u64;
        let (mut early, mut late, mut never) = (0u32, 0u32, 0u32);
        let mut tie_refusals = 0u32;
        for _ in 0..10_000 {
            match rng.next_bounded(8) {
                // Reserve a key a picosecond or three ahead (dense ties);
                // half the time materialise it on the spot.
                0..=1 => {
                    let at = q.now().0 + rng.next_bounded(3);
                    let seq = q.reserve_seq();
                    if (SimTime(at), seq) > q.current_key() && rng.next_bounded(2) == 0 {
                        let key = (at, seq, next_tag);
                        materialise_on_random_lane(&mut rng, &mut q, key, &mut tie_refusals);
                        reference.push((at, next_tag));
                        early += 1;
                    } else {
                        reserved.push((at, seq, next_tag));
                    }
                    next_tag += 1;
                }
                // Come back to an outstanding reservation: materialise it
                // if its instant is still ahead, else it stays elided.
                2 if !reserved.is_empty() => {
                    let pick = rng.next_bounded(reserved.len() as u64) as usize;
                    let key = reserved.swap_remove(pick);
                    if (SimTime(key.0), key.1) > q.current_key() {
                        materialise_on_random_lane(&mut rng, &mut q, key, &mut tie_refusals);
                        reference.push((key.0, key.2));
                        late += 1;
                    } else {
                        never += 1;
                    }
                }
                3..=4 if !reference.is_empty() => {
                    let (at, event) = q.pop().expect("reference non-empty");
                    // Earliest time, first-scheduled within it. Tags
                    // increase with schedule (and reservation) order, so
                    // min-by (time, tag) is the model.
                    let best = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(t, tag))| (t, tag))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    let (want_at, want_tag) = reference.swap_remove(best);
                    assert_eq!((at.0, tag_of(&event)), (want_at, want_tag));
                }
                op => {
                    let at = if op % 2 == 0 {
                        let at = q.now().0 + rng.next_bounded(50);
                        q.schedule(SimTime(at), dummy(next_tag));
                        at
                    } else {
                        offer_on_random_lanes(&mut rng, &mut q, &mut latest, dummy(next_tag))
                    };
                    reference.push((at, next_tag));
                    next_tag += 1;
                }
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.is_empty(), reference.is_empty());
            assert_eq!(q.check_invariants(), Ok(()));
        }
        let churn = q.lane_churn();
        assert!(
            churn.appended > 500 && churn.refused > 100 && churn.pushed > 500,
            "every lane outcome must be exercised: {churn:?}"
        );
        assert!(
            early > 100 && late > 100 && never > 100,
            "every fate of a reserved key must be exercised: \
             {early} at once, {late} later, {never} never"
        );
        assert!(
            tie_refusals > 20,
            "a reserved key must meet a lane tail of its own picosecond and a \
             later sequence number: {tie_refusals} times"
        );
        // Drain; times must be non-decreasing to the end.
        let mut last = q.now();
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.check_invariants(), Ok(()));
    }

    /// A reserved key orders by its sequence number inside a timestamp:
    /// materialised after later-scheduled events of the same picosecond, it
    /// still pops ahead of them.
    #[test]
    fn a_reserved_key_pops_where_an_eager_schedule_would_have() {
        let mut q = EventQueue::with_lanes(0, 1);
        q.schedule(SimTime(5), dummy(0));
        let seq = q.reserve_seq();
        q.schedule(SimTime(5), dummy(2));
        q.schedule_on_lane(0, SimTime(5), dummy(3));
        assert_eq!(q.pop().map(|(_, e)| tag_of(&e)), Some(0));
        assert_eq!(q.current_key(), (SimTime(5), 0));
        q.schedule_reserved(NO_LANE, SimTime(5), seq, dummy(1));
        assert_eq!(q.census().timers, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    /// Materialising a key whose instant has passed would pop it out of
    /// order (or never): it is a bug in the caller, caught at the insert.
    #[test]
    #[should_panic(expected = "is not pending")]
    fn materialising_a_key_at_or_before_the_current_one_panics() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.schedule(SimTime(7), dummy(0));
        q.pop();
        // Same picosecond as the event being handled, earlier sequence.
        q.schedule_reserved(NO_LANE, SimTime(7), seq, dummy(1));
    }

    /// A bounded-pending workload must not grow the slab beyond its peak
    /// concurrency: freed slots are reused, whether the events went through
    /// the heap, through lanes, or a mix of both.
    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::with_lanes(0, 2);
        for round in 0..1_000u64 {
            for k in 0..8 {
                let at = SimTime(round * 10 + k);
                match (round % 3, k % 2) {
                    (0, _) => q.schedule(at, dummy(k)),
                    (1, lane) => q.schedule_on_lane(lane as usize, at, dummy(k)),
                    (_, 0) => q.schedule(at, dummy(k)),
                    (_, _) => q.schedule_on_lane(0, at, dummy(k)),
                }
            }
            assert_eq!(q.len(), 8);
            for _ in 0..8 {
                q.pop().expect("scheduled");
            }
        }
        assert!(
            q.slab.len() <= 8,
            "slab grew to {} slots for 8 concurrent events",
            q.slab.len()
        );
        assert_eq!(q.link.len(), q.slab.len());
    }

    #[test]
    fn canceled_event_never_fires() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(SimTime(10), dummy(1));
        q.schedule(SimTime(20), dummy(2));
        assert!(q.is_live(h));
        assert!(matches!(
            q.cancel(h),
            Some(Event::Timer {
                kind: TimerKind::Custom { tag: 1 },
                ..
            })
        ));
        assert!(!q.is_live(h));
        assert_eq!(q.len(), 1);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![2], "canceled event must not fire");
        // Double-cancel and cancel-after-drain are no-ops.
        assert!(q.cancel(h).is_none());
    }

    #[test]
    fn rescheduled_event_fires_only_at_the_new_deadline() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(SimTime(10), dummy(1));
        q.schedule(SimTime(15), dummy(2));
        // Push the deadline later: the old slot must not fire at t=10.
        assert!(q.reschedule(h, SimTime(30)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.0, tag_of(&e)))
            .collect();
        assert_eq!(order, vec![(15, 2), (30, 1)]);
    }

    #[test]
    fn reschedule_can_pull_a_deadline_earlier() {
        let mut q = EventQueue::new();
        for tag in 0..16 {
            q.schedule(SimTime(100 + tag), dummy(tag));
        }
        let h = q.schedule_cancelable(SimTime(500), dummy(99));
        assert!(q.reschedule(h, SimTime(1)));
        assert_eq!(q.pop().map(|(t, e)| (t.0, tag_of(&e))), Some((1, 99)));
    }

    #[test]
    fn reschedule_orders_like_a_fresh_schedule_within_a_timestamp() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(SimTime(10), dummy(1));
        q.schedule(SimTime(10), dummy(2));
        // Rescheduling to the same timestamp re-enters at the back of the
        // tie order, as a cancel + schedule pair would.
        assert!(q.reschedule(h, SimTime(10)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn handles_go_stale_once_fired_and_survive_slot_reuse() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(SimTime(10), dummy(1));
        q.pop();
        assert!(!q.is_live(h));
        assert!(!q.reschedule(h, SimTime(50)));
        assert!(q.cancel(h).is_none());
        // The freed slot is recycled for a new event; the old handle must
        // not reach it.
        let h2 = q.schedule_cancelable(SimTime(20), dummy(2));
        assert!(q.is_live(h2));
        assert!(!q.is_live(h));
        assert!(q.cancel(h).is_none());
        assert_eq!(q.pop().map(|(_, e)| tag_of(&e)), Some(2));
    }

    #[test]
    fn event_mut_rewrites_a_pending_payload() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(SimTime(10), dummy(1));
        *q.event_mut(h).expect("live") = dummy(7);
        assert_eq!(q.pop().map(|(_, e)| tag_of(&e)), Some(7));
        assert!(q.event_mut(h).is_none(), "stale after firing");
    }

    /// The operation mix the two tests below share, and its state: plain
    /// cancelable schedules, two-lane offers, reserved keys (materialised on
    /// a lane or off it, at once, later or never), cancels, reschedules and
    /// pops, drawn from `rng`. Offers are drawn against [`TEST_LANES`]
    /// whatever the queue has, so two queues fed one seed see one operation
    /// stream.
    struct Mix {
        rng: trace::SplitMix64,
        latest: [u64; OFFER_LANES],
        /// Handles issued so far (stale ones included, on purpose).
        handles: Vec<(TimerHandle, u64)>,
        /// Keys reserved and not yet come back to: `(time, seq, tag)`.
        reserved: Vec<(u64, u64, u64)>,
        next_tag: u64,
        popped: Vec<(u64, u64)>,
        tie_refusals: u32,
    }

    /// What [`Mix::step`] did, for the reference model to mirror.
    enum Op {
        Scheduled {
            at: u64,
        },
        /// A sequence number was taken and nothing inserted (yet).
        Reserved,
        /// A key reserved earlier — at `seq` — was inserted.
        Materialised {
            at: u64,
            seq: u64,
            tag: u64,
        },
        /// A key reserved earlier had passed: it is never inserted.
        Elided,
        Canceled {
            tag: u64,
            hit: bool,
        },
        Rescheduled {
            tag: u64,
            at: u64,
            hit: bool,
        },
        Popped(Option<(u64, u64)>),
    }

    impl Mix {
        fn new(seed: u64) -> Self {
            Mix {
                rng: trace::SplitMix64::new(seed),
                latest: [0; OFFER_LANES],
                handles: Vec::new(),
                reserved: Vec::new(),
                next_tag: 0,
                popped: Vec::new(),
                tie_refusals: 0,
            }
        }

        fn step(&mut self, q: &mut EventQueue) -> Op {
            let tag = self.next_tag;
            match self.rng.next_bounded(10) {
                0..=1 => {
                    let at = q.now().0 + self.rng.next_bounded(50);
                    let h = q.schedule_cancelable(SimTime(at), dummy(tag));
                    self.handles.push((h, tag));
                    self.next_tag += 1;
                    Op::Scheduled { at }
                }
                2..=4 => {
                    let at = offer_on_random_lanes(&mut self.rng, q, &mut self.latest, dummy(tag));
                    self.next_tag += 1;
                    Op::Scheduled { at }
                }
                5 if !self.handles.is_empty() => {
                    let pick = self.rng.next_bounded(self.handles.len() as u64) as usize;
                    let (h, tag) = self.handles.swap_remove(pick);
                    Op::Canceled {
                        tag,
                        hit: q.cancel(h).is_some(),
                    }
                }
                6 if !self.handles.is_empty() => {
                    let pick = self.rng.next_bounded(self.handles.len() as u64) as usize;
                    let (h, tag) = self.handles[pick];
                    let at = q.now().0 + self.rng.next_bounded(50);
                    Op::Rescheduled {
                        tag,
                        at,
                        hit: q.reschedule(h, SimTime(at)),
                    }
                }
                7 => {
                    let at = q.now().0 + self.rng.next_bounded(3);
                    self.reserved.push((at, q.reserve_seq(), tag));
                    self.next_tag += 1;
                    Op::Reserved
                }
                8 if !self.reserved.is_empty() => {
                    let pick = self.rng.next_bounded(self.reserved.len() as u64) as usize;
                    let key @ (at, seq, tag) = self.reserved.swap_remove(pick);
                    if (SimTime(at), seq) <= q.current_key() {
                        return Op::Elided;
                    }
                    materialise_on_random_lane(&mut self.rng, q, key, &mut self.tie_refusals);
                    Op::Materialised { at, seq, tag }
                }
                _ => {
                    let got = q.pop().map(|(at, event)| (at.0, tag_of(&event)));
                    self.popped.extend(got);
                    Op::Popped(got)
                }
            }
        }
    }

    /// Random interleaving of schedules, two-lane offers, reserved keys,
    /// cancels, reschedules and pops against a reference model: same
    /// contract as `randomized_interleaving_matches_reference`, with the
    /// mutators in the mix — a cancel or reschedule that moves heap entries
    /// around must carry lane heads along intact.
    #[test]
    fn randomized_cancel_reschedule_matches_reference() {
        let mut mix = Mix::new(0xCA7C8);
        let mut q = EventQueue::with_lanes(0, TEST_LANES);
        // Reference: (time, order key, tag) triples; the order key mirrors
        // the sequence counter — one per schedule, reservation and
        // reschedule that hit.
        let mut reference: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_key = 0u64;
        let (mut materialised, mut elided) = (0u32, 0u32);
        for _ in 0..20_000 {
            let tag = mix.next_tag;
            match mix.step(&mut q) {
                Op::Scheduled { at } => {
                    reference.push((at, next_key, tag));
                    next_key += 1;
                }
                Op::Reserved => next_key += 1,
                Op::Materialised { at, seq, tag } => {
                    reference.push((at, seq, tag));
                    materialised += 1;
                }
                Op::Elided => elided += 1,
                Op::Canceled { tag, hit } => {
                    assert_eq!(hit, reference.iter().any(|&(_, _, t)| t == tag));
                    reference.retain(|&(_, _, t)| t != tag);
                }
                Op::Rescheduled { tag, at, hit } => {
                    assert_eq!(hit, reference.iter().any(|&(_, _, t)| t == tag));
                    if hit {
                        reference.retain(|&(_, _, t)| t != tag);
                        reference.push((at, next_key, tag));
                        next_key += 1;
                    }
                }
                Op::Popped(got) => {
                    let best = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(t, key, _))| (t, key))
                        .map(|(i, _)| i);
                    let want = best.map(|i| reference.swap_remove(i));
                    assert_eq!(got, want.map(|(at, _, tag)| (at, tag)));
                }
            }
            assert_eq!(next_key, q.next_seq, "the reference mirrors the counter");
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.check_invariants(), Ok(()));
        }
        assert!(q.queued > 0, "the mix must leave events queued on lanes");
        assert!(
            materialised > 200 && elided > 50 && mix.tie_refusals > 20,
            "{materialised} reserved keys materialised, {elided} elided, \
             {} refused on a sequence-number tie",
            mix.tie_refusals
        );
        let mut last = q.now();
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
    }

    /// Lanes change what an operation costs, never what it does: one
    /// operation stream fed to a queue with lanes and to one without (every
    /// offer, reserved keys included, falls through to the heap) pops the
    /// same `(time, event)` sequence and answers every cancel and reschedule
    /// alike.
    #[test]
    fn lanes_are_invisible_in_the_pop_sequence() {
        for seed in 0..8u64 {
            let mut traces = Vec::new();
            for lanes in [TEST_LANES, 0] {
                let mut mix = Mix::new(0x1A9E5 + seed);
                let mut q = EventQueue::with_lanes(16, lanes);
                let mut answers = Vec::new();
                let mut reserved_on_lanes = 0u32;
                for _ in 0..20_000 {
                    let queued = q.queued;
                    match mix.step(&mut q) {
                        Op::Canceled { hit, .. } | Op::Rescheduled { hit, .. } => answers.push(hit),
                        Op::Materialised { .. } => reserved_on_lanes += (q.queued > queued) as u32,
                        _ => {}
                    }
                }
                let churn = q.lane_churn();
                assert_eq!(churn.appended > 0, lanes > 0, "lanes={lanes}");
                assert_eq!(reserved_on_lanes > 100, lanes > 0, "lanes={lanes}");
                assert_eq!(mix.tie_refusals > 0, lanes > 0, "lanes={lanes}");
                while let Some((at, event)) = q.pop() {
                    mix.popped.push((at.0, tag_of(&event)));
                }
                traces.push((mix.popped, answers));
            }
            assert!(traces[0].0.len() > 5_000);
            assert_eq!(traces[0], traces[1], "seed {seed}");
        }
    }

    #[test]
    fn lane_appends_stay_out_of_the_heap() {
        let mut q = EventQueue::with_lanes(0, 2);
        q.schedule(SimTime(25), dummy(100));
        for k in 0..10u64 {
            q.schedule_on_lane(1, SimTime(10 + 2 * k), dummy(k));
        }
        assert_eq!(q.len(), 11);
        assert_eq!(q.heap.len(), 2, "one plain entry plus the lane's head");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.census().timers, 11, "census sees lane-held events");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7, 100, 8, 9]);
        assert_eq!((q.len(), q.queued), (0, 0));
        // A drained lane starts over: the next offer becomes its head.
        q.schedule_on_lane(1, SimTime(40), dummy(7));
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop().map(|(t, e)| (t.0, tag_of(&e))), Some((40, 7)));
    }

    #[test]
    fn an_offer_that_would_unsort_its_lane_takes_the_heap() {
        let mut q = EventQueue::with_lanes(0, 1);
        q.schedule_on_lane(0, SimTime(10), dummy(0));
        q.schedule_on_lane(0, SimTime(30), dummy(1));
        q.schedule_on_lane(0, SimTime(20), dummy(2)); // earlier than the tail
        q.schedule_on_lane(0, SimTime(30), dummy(3)); // ties append
        q.schedule_on_lane(9, SimTime(15), dummy(4)); // no such lane
        assert_eq!((q.heap.len(), q.queued), (3, 2));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.0, tag_of(&e)))
            .collect();
        assert_eq!(order, vec![(10, 0), (15, 4), (20, 2), (30, 1), (30, 3)]);
    }

    #[test]
    fn a_two_lane_offer_joins_the_first_lane_it_keeps_sorted() {
        let mut q = EventQueue::with_lanes(0, 2);
        q.schedule_on_lanes([0, 1], SimTime(30), dummy(0)); // lane 0 empty: its head
        q.schedule_on_lanes([0, 1], SimTime(30), dummy(1)); // ties append to lane 0
        q.schedule_on_lanes([0, 1], SimTime(20), dummy(2)); // refused; lane 1's head
        q.schedule_on_lanes([0, 1], SimTime(25), dummy(3)); // refused; behind it
        q.schedule_on_lanes([0, 1], SimTime(22), dummy(4)); // refused twice: heap
        q.schedule_on_lanes([NO_LANE, 1], SimTime(26), dummy(5)); // no first choice
        q.schedule_on_lanes([7, NO_LANE], SimTime(21), dummy(6)); // no lane at all
        assert_eq!((q.heap.len(), q.queued), (4, 3));
        assert_eq!(
            q.lane_churn(),
            LaneChurn {
                appended: 3,
                pushed: 4,
                refused: 4
            }
        );
        assert_eq!(q.check_invariants(), Ok(()));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.0, tag_of(&e)))
            .collect();
        assert_eq!(
            order,
            vec![
                (20, 2),
                (21, 6),
                (22, 4),
                (25, 3),
                (26, 5),
                (30, 0),
                (30, 1)
            ]
        );
    }

    /// A reserved key is older than the events scheduled since, so a lane
    /// may hold a later sequence number in the very picosecond it names:
    /// appending there would put it behind an event it must pop ahead of.
    #[test]
    fn a_reserved_key_rides_a_lane_only_where_the_pair_keeps_it_sorted() {
        let mut q = EventQueue::with_lanes(0, 1);
        let first = q.reserve_seq();
        let second = q.reserve_seq();
        let third = q.reserve_seq();
        q.schedule_reserved(0, SimTime(5), second, dummy(2)); // the lane's head
        q.schedule_reserved(0, SimTime(5), third, dummy(3)); // same instant, later key
        q.schedule_reserved(0, SimTime(5), first, dummy(1)); // same instant, older key
        q.schedule_on_lane(0, SimTime(5), dummy(4)); // a fresh key always fits a tie
        assert_eq!((q.heap.len(), q.queued), (2, 2));
        assert_eq!(q.lane_churn().refused, 1);
        assert_eq!(q.check_invariants(), Ok(()));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    /// The auditor's view of the structure: each way a lane can go wrong
    /// while every pending event is still there to be counted.
    #[test]
    fn check_invariants_names_what_is_broken() {
        let build = || {
            let mut q = EventQueue::with_lanes(0, 2);
            q.schedule(SimTime(15), dummy(9));
            for k in 0..3u64 {
                q.schedule_on_lane(0, SimTime(10 + k), dummy(k));
                q.schedule_on_lane(1, SimTime(20 + k), dummy(10 + k));
            }
            assert_eq!(q.check_invariants(), Ok(()));
            q
        };
        let broken = |q: &EventQueue, what: &str| {
            let detail = q.check_invariants().expect_err(what);
            assert!(detail.contains(what), "{detail:?} should mention {what:?}");
        };
        let lane0_head = |q: &EventQueue| q.heap.iter().position(|e| e.lane == 0).expect("busy");

        let mut q = build();
        let head = q.heap[lane0_head(&q)].slot;
        let second = q.link[head as usize].next;
        q.link[second as usize].at = SimTime(5);
        broken(&q, "unsorted");

        let mut q = build();
        let i = lane0_head(&q);
        q.heap[i].lane = NIL;
        broken(&q, "no head in the heap");

        let mut q = build();
        let i = lane0_head(&q);
        q.heap[i].lane = 1; // walked as lane 1, it ends at lane 0's tail
        broken(&q, "lane 1 ends at");

        let mut q = build();
        q.queued -= 1;
        broken(&q, "free or a loop");

        let mut q = build();
        q.lanes[0] = q.heap[lane0_head(&q)].slot;
        broken(&q, "lane 0 ends at");

        let mut q = build();
        q.pos.swap(0, 1);
        broken(&q, "pos[");

        let mut q = build();
        let i = lane0_head(&q);
        q.heap[i].at = SimTime(11);
        broken(&q, "disagree on the key");
    }

    #[test]
    fn ties_across_lanes_and_heap_break_in_schedule_order() {
        let mut q = EventQueue::with_lanes(0, 3);
        for tag in 0..60u64 {
            match tag % 4 {
                3 => q.schedule(SimTime(5), dummy(tag)),
                lane => q.schedule_on_lane(lane as usize, SimTime(5), dummy(tag)),
            }
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, (0..60).collect::<Vec<_>>());
    }

    /// Re-arming through one handle N times leaves exactly one pending
    /// event — the regression this whole change exists for.
    #[test]
    fn rearming_repeatedly_keeps_one_pending_event() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancelable(SimTime(100), dummy(0));
        for k in 0..1_000u64 {
            assert!(q.reschedule(h, SimTime(100 + k)));
            assert_eq!(q.len(), 1, "reschedule must not grow the heap");
        }
        assert!(q.slab.len() <= 1, "reschedule must not grow the slab");
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime(1099)));
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime(3), dummy(1));
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime(3)));
    }
}

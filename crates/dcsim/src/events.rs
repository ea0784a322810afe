//! The discrete-event queue.
//!
//! Two 4-ary min-heaps — one of plain events, one of lane heads — keyed
//! by `(time, sequence)`: the sequence number breaks ties in insertion
//! order, which makes runs fully deterministic — two events scheduled for
//! the same picosecond always fire in the order they were scheduled.
//!
//! Layout matters here: this queue is the simulator's hottest structure
//! (every event passes through it, tens of millions per run). A **plain**
//! event — one scheduled off any lane (see below) — owns a 24-byte
//! `(time, seq, slot)` entry in the plain heap, so sift-up / sift-down
//! move small Copy values with good cache locality; its [`Event`] payload
//! (a full [`Packet`] by value in the `Arrival` case) lives in a slab
//! indexed by `slot`, written exactly once on `schedule` and read exactly
//! once on `pop`. Freed slots are recycled through a free list, so a
//! steady-state run allocates nothing per event. The slab is what gives a
//! plain event a stable address: `pos[slot]` tracks its heap index, and a
//! [`TimerHandle`] (slot + generation) can cancel or reschedule it in
//! place. The 4-ary shape halves tree depth versus a binary heap, trading
//! a few extra comparisons per level for fewer cache-missing levels — the
//! usual win for discrete-event simulation workloads.
//!
//! # Lanes
//!
//! Most pending events of a packet simulation are packets in flight on a
//! link, and their order is already known: a link delivers in the order it
//! transmitted, and links of equal delay deliver in the order they all
//! transmitted. Holding each event as its own heap entry makes every push
//! and pop sift through entries whose relative order was never in question.
//! A **lane** ([`EventQueue::with_lanes`], [`EventQueue::schedule_on_lanes`])
//! is a FIFO of pending events sorted by `(time, seq)`, and lanes keep their
//! events apart from plain ones:
//!
//! * a lane is a chain of fixed blocks of 32 events, each stored
//!   whole — key and payload — so a lane's events sit contiguously. A
//!   slot is 56 bytes: the 16-byte key and a 40-byte [`Event`], whose
//!   `Arrival` carries a 32-byte [`Packet`] by value. The blocks come
//!   from one pool shared by every lane of the queue, a
//!   [`Blocks`](crate::blocks::Blocks); a lane takes a block from the
//!   pool's free list when its tail block is full (or when it was empty),
//!   and hands a block back the moment its head leaves it. The pool knows
//!   blocks and links; where each lane starts and ends is this module's.
//!   Scheduling behind a non-empty lane is an O(1) append that touches no
//!   heap;
//! * the head of every non-empty lane owns one entry in a second 4-ary
//!   heap, the **lane-head heap**: the head's key and where it sits in the
//!   pool. Nothing outside `pop` ever moves a lane head, so this heap needs
//!   no `pos`. Popping a lane head reads the successor's key from the same
//!   block (the next slot, or the first of the next block), writes it over
//!   the root and does one sift-down — instead of a pop plus a push — on a
//!   heap that holds one entry per busy lane and no plain events.
//!
//! `pop` takes the smaller of the two roots. That is exact: sequence
//! numbers still come from the one global counter at schedule time, a lane
//! is sorted, so its head is its minimum, so the lane-head heap's root is
//! the minimum over everything on lanes and the plain heap's root the
//! minimum over the rest — the smaller of the two is the minimum
//! `(time, seq)` over everything pending, the event a single heap would
//! have popped. Keys are unique, so there is never a tie between the roots.
//!
//! Why blocks and not a `VecDeque` per lane: a deque per lane is about as
//! fast, but each deque keeps its own high-water capacity for the life of
//! the run. In a hybrid fleet run (`sim_fleet_hybrid`) the deques held
//! 283 k entries where the old shared slab needed 197 k slots, and
//! `sim_incast_full`'s peak RSS went from 7.6 to 8.8–9.6 MB. Pooled
//! blocks bound what lanes hold to the events pending plus at most one
//! part-filled block at each end of a busy lane, whatever each lane's
//! peak was. The same argument, and the same pool type, holds for the
//! simulator's port queues ([`crate::queues`]), whose deques summed
//! every port's peak the same way.
//!
//! What a lane stands for is the caller's business. The simulator opens one
//! per port and, beside them, four per **delay class** — the ports whose
//! links have the same latency and bandwidth. A packet of a given size that
//! starts transmitting *now* on any port of a class completes `ser(size)`
//! later and arrives `ser(size) + latency` later, the same two constants
//! whichever port, so the class's `Arrival`s of one size are scheduled in
//! the order they fire, and so — nearly — are its `TxDone`s: each kind and
//! size gets a lane, and the lane-head heap holds one entry per (class,
//! size) instead of one per busy link. An offer names up to two lanes,
//! class first and port second, and joins the first it keeps sorted.
//!
//! Nothing relies on the caller's claim that a lane's offers are monotone —
//! the queue verifies, it never trusts: an offer that would unsort a lane
//! goes on to its second choice, and one that no lane will have, or that
//! names none, takes the plain heap path. That is what happens to the
//! simulator's class lanes under hybrid fidelity, where a transmission timed
//! behind an express reservation starts later than *now*: its arrival is
//! ahead of what the class's other ports offer next, those offers are
//! refused, and they land on their port's lane as they did before there
//! were classes. [`EventQueue::check_invariants`] audits all of it;
//! [`LaneChurn`] counts where inserts went. Lane entries are never handed a
//! [`TimerHandle`]; cancel and reschedule are for plain entries only.
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

use crate::blocks::{block_of, Blocks, BLOCK, NIL};
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
#[derive(Debug, Clone, Copy)]
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

trace::counters! {
    "dcsim.census";
    /// Pending-event counts by class, as reported by [`EventQueue::census`].
    /// `packets` counts events that carry a packet in flight (`Arrival`,
    /// `Inject`); `timers` counts pending `Timer` events; `tx_done` counts
    /// materialised `TxDone`s; everything else (`FlowStart`, `Fault`) lands in
    /// `other`.
    pub struct EventCensus {
        packets,
        timers,
        tx_done,
        other,
    }
}

/// Heap arity. Four children per node keeps the tree shallow (log₄ n
/// levels) while a whole sibling group still fits in one or two cache
/// lines of 24-byte entries.
const ARITY: usize = 4;

/// The lane index that names no lane, for the scheduling calls that take
/// one: the event goes where [`EventQueue::schedule`] would put it.
pub const NO_LANE: usize = usize::MAX;

/// An entry of either heap: its ordering key.
trait Keyed: Copy {
    fn key(&self) -> (SimTime, u64);
}

/// A plain heap entry: ordering key plus a handle into the event slab.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Keyed for HeapEntry {
    /// Min-heap ordering key: earliest time first, schedule order within a
    /// timestamp.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A lane-head heap entry: the head's key, its lane, and its index in the
/// block pool.
#[derive(Debug, Clone, Copy)]
struct LaneHead {
    at: SimTime,
    seq: u64,
    lane: u32,
    idx: u32,
}

impl Keyed for LaneHead {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A lane event as it sits in its block: key and payload together, so a
/// pop reads both, and its successor's key, from one place.
#[derive(Debug, Clone, Copy)]
struct Queued {
    at: SimTime,
    seq: u64,
    event: Event,
}

/// The event queue: a deterministic min-heap of [`Event`]s with
/// first-class cancel and reschedule-in-place, plus FIFO lanes
/// (see the module docs).
#[derive(Default)]
pub struct EventQueue {
    /// Indexed 4-ary min-heap of plain events.
    heap: Vec<HeapEntry>,
    /// Slab of plain event payloads; `HeapEntry::slot` indexes into it.
    /// `None` slots are free and linked through `free`.
    slab: Vec<Option<Event>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Heap index of each occupied slot (`pos[slot]` is only meaningful
    /// while the slot is live); maintained by every sift of the plain heap
    /// so cancel and reschedule find their entry in O(1).
    pos: Vec<u32>,
    /// Per-slot generation, bumped whenever a slot is freed; a
    /// [`TimerHandle`] is live iff its generation still matches.
    gen: Vec<u32>,
    /// 4-ary min-heap of the heads of non-empty lanes.
    heads: Vec<LaneHead>,
    /// The block pool every lane's events sit in.
    pool: Blocks<Queued>,
    /// Pool index of each lane's tail event; [`NIL`] (also "no lane") while
    /// the lane is empty.
    tails: Vec<u32>,
    /// Events queued on lanes behind their head, i.e. pending but in
    /// neither heap.
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

    /// Creates an empty queue with room for `capacity` pending plain
    /// events before any reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_lanes(capacity, 0)
    }

    /// Like [`with_capacity`](Self::with_capacity), with `lanes` empty
    /// lanes for [`schedule_on_lane`](Self::schedule_on_lane).
    pub fn with_lanes(capacity: usize, lanes: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            pos: Vec::with_capacity(capacity),
            gen: Vec::with_capacity(capacity),
            tails: vec![NIL; lanes],
            ..Self::default()
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
        self.heap.len() + self.heads.len() + self.queued
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        // A non-empty lane always has its head in the lane-head heap.
        debug_assert!(!self.heads.is_empty() || self.queued == 0);
        self.heap.is_empty() && self.heads.is_empty()
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
        self.assert_not_past(at);
        let seq = self.reserve_seq();
        let slot = self.push_plain(at, seq, event);
        TimerHandle {
            slot,
            gen: self.gen[slot as usize],
        }
    }

    /// Schedules `event` at absolute time `at` on `lane`: behind the
    /// lane's pending events if `at` is no earlier than the last of them
    /// (an O(1) append that leaves both heaps alone), otherwise — or if the
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
        if lane < self.tails.len() {
            lane as u32
        } else {
            NIL
        }
    }

    #[inline]
    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
    }

    /// The one scheduling path: offers the event to `lanes` in order — an
    /// empty lane makes it its head (a fresh block and a lane-head heap
    /// entry), a lane whose tail's `(at, seq)` is no later than the
    /// offer's appends it (no heap entry) — and pushes a plain heap entry
    /// if neither lane keeps sorted with it or both are [`NIL`]. `seq` is
    /// fresh from [`reserve_seq`](Self::reserve_seq), and then `at` alone
    /// would decide sortedness, except on the reserved path, whose key can
    /// be older than a tail's at the same `at`: the test is on the pair.
    #[inline]
    fn insert(&mut self, lanes: [u32; 2], at: SimTime, seq: u64, event: Event) {
        self.assert_not_past(at);
        let queued = Queued { at, seq, event };
        for lane in lanes {
            if lane == NIL {
                continue;
            }
            let tail = self.tails[lane as usize];
            if tail == NIL {
                let idx = self.pool.take(queued);
                self.pool[idx] = queued;
                self.tails[lane as usize] = idx;
                self.churn.pushed += 1;
                let i = self.heads.len();
                self.heads.push(LaneHead { at, seq, lane, idx });
                sift_up(&mut self.heads, i, |_, _| {});
                return;
            }
            let last = &self.pool[tail];
            if (at, seq) < (last.at, last.seq) {
                self.churn.refused += 1;
                continue;
            }
            let idx = self.pool.extend(tail, queued);
            self.pool[idx] = queued;
            self.tails[lane as usize] = idx;
            self.queued += 1;
            self.churn.appended += 1;
            return;
        }
        self.push_plain(at, seq, event);
    }

    /// Pushes a plain heap entry for `event`, in a slab slot of its own;
    /// returns the slot.
    fn push_plain(&mut self, at: SimTime, seq: u64, event: Event) -> u32 {
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
                slot
            }
        };
        self.churn.pushed += 1;
        let i = self.heap.len();
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_plain_up(i);
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
        let last = self.heap.pop().expect("live handle implies non-empty heap");
        if i < self.heap.len() {
            self.heap[i] = last;
            // The displaced tail entry can violate the heap property in
            // either direction relative to position `i`.
            if i > 0 && self.heap[i].key() < self.heap[(i - 1) / ARITY].key() {
                self.sift_plain_up(i);
            } else {
                self.sift_plain_down(i);
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
            self.sift_plain_up(i);
        } else {
            self.sift_plain_down(i);
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

    /// Pops the earliest event, advancing the clock to its timestamp: the
    /// smaller of the two heaps' roots.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let from_lane = match (self.heap.first(), self.heads.first()) {
            (None, None) => return None,
            (Some(plain), Some(head)) => head.key() < plain.key(),
            (plain, _) => plain.is_none(),
        };
        let (at, seq, event) = if from_lane {
            self.pop_lane_head()
        } else {
            self.pop_plain()
        };
        debug_assert!(at >= self.now, "heap returned an out-of-order event");
        self.now = at;
        self.now_seq = seq;
        Some((at, event))
    }

    /// Pops the lane-head heap's root: its successor on the lane, read from
    /// the same block or the first of the next, takes over the root entry —
    /// one sift-down, no pop + push — and a block the head leaves goes back
    /// to the pool.
    #[inline]
    fn pop_lane_head(&mut self) -> (SimTime, u64, Event) {
        let head = self.heads[0];
        let Queued { at, seq, event } = self.pool[head.idx];
        if head.idx == self.tails[head.lane as usize] {
            self.tails[head.lane as usize] = NIL;
            self.pool.release(head.idx);
            let last = self.heads.pop().expect("non-empty");
            if !self.heads.is_empty() {
                self.heads[0] = last;
                sift_down(&mut self.heads, 0, |_, _| {});
            }
        } else {
            let idx = self.pool.advance(head.idx);
            let next = &self.pool[idx];
            self.heads[0] = LaneHead {
                at: next.at,
                seq: next.seq,
                lane: head.lane,
                idx,
            };
            self.queued -= 1;
            sift_down(&mut self.heads, 0, |_, _| {});
        }
        (at, seq, event)
    }

    /// Pops the plain heap's root and frees its slot.
    fn pop_plain(&mut self) -> (SimTime, u64, Event) {
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_plain_down(0);
        }
        (top.at, top.seq, self.free_slot(top.slot))
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
        let plain = self.heap.first().map(|e| e.at);
        let lane = self.heads.first().map(|h| h.at);
        match (plain, lane) {
            (Some(p), Some(l)) => Some(p.min(l)),
            _ => plain.or(lane),
        }
    }

    /// What every insert since construction cost: appended behind a lane
    /// or pushed into a heap, and how often a lane refused an offer.
    pub fn lane_churn(&self) -> LaneChurn {
        self.churn
    }

    /// Counts pending events by class (for the invariant auditor). Walks
    /// the slab and every lane, so it is O(slots + lane events): callers
    /// should only invoke it at audit checkpoints, not per event.
    pub fn census(&self) -> EventCensus {
        let mut census = EventCensus::default();
        let on_lanes = self.heads.iter().flat_map(|head| {
            let tail = self.tails[head.lane as usize];
            std::iter::successors(Some(head.idx), move |&i| {
                (i != tail).then(|| self.pool.successor(i))
            })
            .map(|i| &self.pool[i].event)
        });
        // The bound keeps a corrupted lane from looping here; the
        // structural audit reports it.
        let lane_events = on_lanes.take(self.heads.len() + self.queued);
        for entry in self.slab.iter().flatten().chain(lane_events) {
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
    /// auditor; O(pending events + blocks)): both heaps are heaps and `pos`
    /// indexes the plain one through live slots; every non-empty lane has
    /// exactly one lane-head entry, carrying its head's key; each lane is
    /// sorted by `(at, seq)` from its head, through its blocks, to its
    /// recorded tail, whose block chains on to nothing and which no other
    /// lane's walk meets; `queued` is the number of events behind heads;
    /// every block is either free or on exactly one lane.
    pub fn check_invariants(&self) -> Result<(), String> {
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
        }
        let live = self.slab.iter().flatten().count();
        if live != self.heap.len() {
            return Err(format!(
                "{live} live slots for {} plain heap entries",
                self.heap.len()
            ));
        }

        // Who holds each block: nobody yet, a lane, or the free list.
        let mut holders = self.pool.holders()?;
        // The lane whose recorded tail sits in each block: a walk that
        // enters another lane's tail block has strayed onto that lane.
        let mut tail_in = vec![NIL; self.pool.blocks()];
        for (lane, &tail) in self.tails.iter().enumerate() {
            if let Some(t) = tail_in.get_mut(tail as usize / BLOCK) {
                *t = lane as u32;
            }
        }
        let mut head_seen = vec![false; self.tails.len()];
        let mut behind_heads = 0usize;
        for (i, head) in self.heads.iter().enumerate() {
            if i > 0 && self.heads[(i - 1) / ARITY].key() > head.key() {
                return Err(format!("heads[{i}] orders before its parent"));
            }
            let lane = head.lane as usize;
            if lane >= self.tails.len() || std::mem::replace(&mut head_seen[lane], true) {
                return Err(format!(
                    "heads[{i}] is a second or stray head of lane {lane}"
                ));
            }
            let tail = self.tails[lane];
            if tail == NIL || head.idx as usize >= self.pool.slots() {
                return Err(format!("heads[{i}] heads empty lane {lane}"));
            }
            let mut idx = head.idx;
            let mut key = (self.pool[idx].at, self.pool[idx].seq);
            if key != head.key() {
                return Err(format!(
                    "lane {lane}: head entry and head disagree on the key"
                ));
            }
            loop {
                if idx.is_multiple_of(BLOCK as u32) || idx == head.idx {
                    let block = idx as usize / BLOCK;
                    if holders.claim(idx, head.lane).is_err() {
                        return Err(format!(
                            "lane {lane} runs into block {}, free or on a lane already",
                            block_of(idx)
                        ));
                    }
                    if tail_in[block] != NIL && tail_in[block] != head.lane {
                        return Err(format!(
                            "lane {lane} runs into block {}, where lane {} ends",
                            block_of(idx),
                            tail_in[block]
                        ));
                    }
                }
                if idx == tail {
                    if self.pool.next_of(idx) != NIL {
                        return Err(format!(
                            "lane {lane} chains on past its tail at index {tail}"
                        ));
                    }
                    break;
                }
                behind_heads += 1;
                let next = self.pool.successor(idx);
                if behind_heads > self.queued || next as usize >= self.pool.slots() {
                    return Err(format!(
                        "lane {lane} runs past index {idx} without reaching its tail: \
                         free or a loop"
                    ));
                }
                let next_key = (self.pool[next].at, self.pool[next].seq);
                if next_key < key {
                    let across = if next.is_multiple_of(BLOCK as u32) {
                        " across a block boundary"
                    } else {
                        ""
                    };
                    return Err(format!("lane {lane} is unsorted at index {next}{across}"));
                }
                (idx, key) = (next, next_key);
            }
        }
        if let Some(lane) = (0..self.tails.len()).find(|&l| (self.tails[l] != NIL) != head_seen[l])
        {
            return Err(format!("lane {lane} is non-empty with no head entry"));
        }
        if behind_heads != self.queued {
            return Err(format!(
                "queued={} but {behind_heads} events sit behind heads",
                self.queued
            ));
        }
        if let Some(block) = holders.unheld() {
            return Err(format!("block {block} is neither free nor on a lane"));
        }
        Ok(())
    }

    /// True while some lane spans more than one block.
    #[cfg(test)]
    pub(crate) fn some_lane_chains(&self) -> bool {
        self.pool.in_use() > self.heads.len()
    }

    #[inline]
    fn sift_plain_up(&mut self, i: usize) {
        let pos = &mut self.pos;
        sift_up(&mut self.heap, i, |e, at| pos[e.slot as usize] = at as u32);
    }

    #[inline]
    fn sift_plain_down(&mut self, i: usize) {
        let pos = &mut self.pos;
        sift_down(&mut self.heap, i, |e, at| pos[e.slot as usize] = at as u32);
    }
}

/// Restores the heap property upward from `i`; `placed(entry, index)` is
/// told every entry's new index.
#[inline]
fn sift_up<T: Keyed>(heap: &mut [T], mut i: usize, mut placed: impl FnMut(&T, usize)) {
    let entry = heap[i];
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[parent].key() <= entry.key() {
            break;
        }
        heap[i] = heap[parent];
        placed(&heap[i], i);
        i = parent;
    }
    heap[i] = entry;
    placed(&entry, i);
}

/// Restores the heap property downward from `i`; `placed` as in
/// [`sift_up`].
#[inline]
fn sift_down<T: Keyed>(heap: &mut [T], mut i: usize, mut placed: impl FnMut(&T, usize)) {
    let entry = heap[i];
    let len = heap.len();
    loop {
        let first_child = i * ARITY + 1;
        if first_child >= len {
            break;
        }
        let last_child = (first_child + ARITY).min(len);
        let mut best = first_child;
        let mut best_key = heap[first_child].key();
        for (c, child) in heap[..last_child].iter().enumerate().skip(first_child + 1) {
            let k = child.key();
            if k < best_key {
                best = c;
                best_key = k;
            }
        }
        if entry.key() <= best_key {
            break;
        }
        heap[i] = heap[best];
        placed(&heap[i], i);
        i = best;
    }
    heap[i] = entry;
    placed(&entry, i);
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

    /// What a packet in flight costs: by value in a port queue, as an
    /// `Event` in the plain slab, as a `Queued` slot in a lane block. A
    /// field added to `Packet` or `Event` grows all three, so it changes
    /// this test too.
    #[test]
    fn packet_event_and_lane_slot_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Packet>(), 32);
        assert_eq!(size_of::<Event>(), 40);
        assert_eq!(size_of::<Queued>(), 56);
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
        let tail = *q.tails.get(lane)?;
        (tail != NIL).then(|| (q.pool[tail].at, q.pool[tail].seq))
    }

    /// Blocks that hold lane events right now.
    fn blocks_in_use(q: &EventQueue) -> usize {
        q.pool.in_use()
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
        let mut chained = false;
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
            chained |= q.some_lane_chains();
        }
        assert!(chained, "some lane must chain more than one block");
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

    /// A bounded-pending workload must not grow the slab or the block pool
    /// beyond its peak concurrency: freed slots and drained blocks are
    /// reused, whether the events went through the plain heap, through
    /// lanes, or a mix of both. Lanes are filled and drained in rounds, so
    /// the pool never holds more than `⌈pending / BLOCK⌉ + busy lanes`
    /// blocks.
    #[test]
    fn slab_slots_and_lane_blocks_are_recycled() {
        const PENDING: u64 = 100;
        const LANES: usize = 3;
        let mut q = EventQueue::with_lanes(0, LANES);
        for round in 0..1_000u64 {
            for k in 0..PENDING {
                let at = SimTime(round * 1_000 + k);
                match (round % 3, k % 4) {
                    (0, _) | (2, 3) => q.schedule(at, dummy(k)),
                    (_, lane) => q.schedule_on_lane(lane as usize % LANES, at, dummy(k)),
                }
            }
            assert_eq!(q.len(), PENDING as usize);
            if round % 3 == 1 {
                assert!(q.some_lane_chains(), "round {round}: no lane chains");
            }
            for _ in 0..PENDING {
                q.pop().expect("scheduled");
            }
            assert_eq!(blocks_in_use(&q), 0, "a drained lane keeps no block");
        }
        assert!(
            q.slab.len() <= PENDING as usize,
            "slab grew to {} slots for {PENDING} concurrent events",
            q.slab.len()
        );
        let bound = (PENDING as usize).div_ceil(BLOCK) + LANES;
        assert!(
            q.pool.blocks() <= bound,
            "pool grew to {} blocks for {PENDING} events on {LANES} lanes (bound {bound})",
            q.pool.blocks()
        );
        assert_eq!(q.pool.slots(), q.pool.blocks() * BLOCK);
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
        let mut chained = false;
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
            chained |= q.some_lane_chains();
        }
        assert!(q.queued > 0, "the mix must leave events queued on lanes");
        assert!(chained, "some lane must chain more than one block");
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
                let mut chained = false;
                for _ in 0..20_000 {
                    let queued = q.queued;
                    match mix.step(&mut q) {
                        Op::Canceled { hit, .. } | Op::Rescheduled { hit, .. } => answers.push(hit),
                        Op::Materialised { .. } => reserved_on_lanes += (q.queued > queued) as u32,
                        _ => {}
                    }
                    chained |= q.some_lane_chains();
                }
                let churn = q.lane_churn();
                assert_eq!(churn.appended > 0, lanes > 0, "lanes={lanes}");
                assert_eq!(chained, lanes > 0, "lanes={lanes}");
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
        assert_eq!(
            (q.heap.len(), q.heads.len()),
            (1, 1),
            "one plain entry plus the lane's head"
        );
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.census().timers, 11, "census sees lane-held events");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7, 100, 8, 9]);
        assert_eq!((q.len(), q.queued), (0, 0));
        // A drained lane starts over: the next offer becomes its head.
        q.schedule_on_lane(1, SimTime(40), dummy(7));
        assert_eq!((q.heap.len(), q.heads.len()), (0, 1));
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
        assert_eq!((q.heap.len(), q.heads.len(), q.queued), (2, 1, 2));
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
        assert_eq!((q.heap.len(), q.heads.len(), q.queued), (2, 2, 3));
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
        assert_eq!((q.heap.len(), q.heads.len(), q.queued), (1, 1, 2));
        assert_eq!(q.lane_churn().refused, 1);
        assert_eq!(q.check_invariants(), Ok(()));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    /// The auditor's view of the structure: each way a lane or its blocks
    /// can go wrong while every pending event is still there to be counted.
    /// Lane 0 spans two blocks; lane 2's one event has popped, so its block
    /// is back in the pool.
    #[test]
    fn check_invariants_names_what_is_broken() {
        let build = || {
            let mut q = EventQueue::with_lanes(0, 3);
            q.schedule_on_lane(2, SimTime(1), dummy(99));
            q.schedule(SimTime(15), dummy(9));
            q.schedule(SimTime(16), dummy(8));
            for k in 0..40u64 {
                q.schedule_on_lane(0, SimTime(10 + k), dummy(k));
                if k < 3 {
                    q.schedule_on_lane(1, SimTime(20 + k), dummy(100 + k));
                }
            }
            assert_eq!(q.pop().map(|(_, e)| tag_of(&e)), Some(99));
            assert_eq!((q.pool.blocks(), blocks_in_use(&q)), (4, 3));
            assert_eq!(q.check_invariants(), Ok(()));
            q
        };
        let broken = |q: &EventQueue, what: &str| {
            let detail = q.check_invariants().expect_err(what);
            assert!(detail.contains(what), "{detail:?} should mention {what:?}");
        };
        let lane0 = |q: &EventQueue| q.heads.iter().position(|h| h.lane == 0).expect("busy");

        // Unsorted inside a block: the head's successor goes back in time.
        let mut q = build();
        let head = q.heads[lane0(&q)].idx;
        q.pool[head + 1].at = SimTime(5);
        assert_eq!(
            q.check_invariants(),
            Err(format!("lane 0 is unsorted at index {}", head + 1))
        );

        // Unsorted across a block boundary: the first event of lane 0's
        // second block goes back in time.
        let mut q = build();
        let second = second_block(&q);
        q.pool[second].at = SimTime(5);
        broken(
            &q,
            &format!("lane 0 is unsorted at index {second} across a block boundary"),
        );

        let mut q = build();
        let i = lane0(&q);
        q.heads[i].at = SimTime(11);
        broken(&q, "disagree on the key");

        let mut q = build();
        let i = lane0(&q);
        q.heads.swap_remove(i);
        broken(&q, "lane 0 is non-empty with no head entry");

        // A head entry tagged with another lane: walked as lane 1, lane 0's
        // chain runs into the block where lane 0 ends.
        let mut q = build();
        let (i, second) = (lane0(&q), second_block(&q));
        q.heads[i].lane = 1;
        broken(
            &q,
            &format!("lane 1 runs into block {second}, where lane 0 ends"),
        );

        // A recorded tail short of the lane's end: its block chains on.
        let mut q = build();
        let head = q.heads[lane0(&q)].idx;
        q.tails[0] = head;
        broken(
            &q,
            &format!("lane 0 chains on past its tail at index {head}"),
        );

        let mut q = build();
        q.queued += 1;
        broken(&q, "events sit behind heads");

        let mut q = build();
        q.queued -= 1;
        broken(&q, "free or a loop");

        let mut q = build();
        q.pos.swap(0, 1);
        broken(&q, "pos[");

        // A block both free and on a lane, a block on no lane and not free,
        // and a block freed twice.
        let mut q = build();
        let second = second_block(&q);
        q.pool.release(second);
        broken(&q, "free or on a lane already");

        let mut q = build();
        q.pool.forget_free_blocks();
        broken(&q, "neither free nor on a lane");

        // Lane 2's block, the first taken, is the one on the free list.
        let mut q = build();
        q.pool.release(0);
        broken(&q, "freed twice");
    }

    /// The block lane 0 chains after its head's, in the queue
    /// `check_invariants_names_what_is_broken` builds.
    fn second_block(q: &EventQueue) -> u32 {
        let head = q.heads.iter().find(|h| h.lane == 0).expect("busy").idx;
        q.pool.next_of(head)
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

//! Fixed-size blocks from one pool, chained into FIFOs.
//!
//! A [`Blocks<T>`] is one `Vec<T>` cut into blocks of [`BLOCK`] slots, a
//! `next` link per block, and a LIFO free list threaded through the
//! links of the free blocks. A FIFO is a chain of
//! blocks: it takes a block from the pool when its tail block is full (or
//! when it was empty) and hands a block back the moment its head leaves
//! it. Two users share the mechanism: the event queue's lanes
//! ([`crate::events`]), whose heads live in a heap of their own, and the
//! simulator's port queues ([`crate::queues`]), which hold each FIFO as a
//! [`Fifo`] handle.
//!
//! Why blocks and not a `VecDeque` per FIFO: a deque keeps its own
//! high-water capacity for the whole run, so a simulator holding one per
//! lane or per port pays for the *sum* of every FIFO's peak. A pool holds
//! what is queued at once plus at most one part-filled block at each end
//! of a busy FIFO, whatever each FIFO's own peak was. The pool never
//! shrinks either, so its block count is its high-water mark.
//!
//! A slot is named by its index in the pool; a block by the index of its
//! first slot. Nothing here knows what a FIFO's head or tail is: callers
//! keep those ([`Fifo`] for the port queues, the lane-head heap and the
//! tail array for lanes) and ask the pool for the slot after one
//! ([`Blocks::successor`], [`Blocks::advance`]) or a slot behind one
//! ([`Blocks::extend`]).

use std::ops::{Index, IndexMut};

/// Slots per block: a FIFO crosses into another block, and hands one
/// back to the pool, once every 32 pops.
pub const BLOCK: usize = 32;

/// "No slot" sentinel: the `next` of a chain's last block, and the head
/// and tail of an empty [`Fifo`].
pub const NIL: u32 = u32::MAX;

/// A pool of fixed blocks of `T` (see the module docs).
#[derive(Debug, Clone)]
pub struct Blocks<T> {
    /// Block `b` is `slots[b..b + BLOCK]` for every multiple `b` of
    /// [`BLOCK`].
    slots: Vec<T>,
    /// Per block, the block chained after it: on a chain, the next block
    /// of the chain ([`NIL`] for its last); on the free list, the next free
    /// block ([`NIL`] for the list's last).
    next: Vec<u32>,
    /// The free list's top: the block freed last, reused first; [`NIL`]
    /// while every block is on a chain. The list runs through `next`, so
    /// freeing a block never allocates.
    free: u32,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            slots: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }
}

impl<T: Copy> Blocks<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a block from the free list, growing the pool (with copies of
    /// `fill`) if none is free; returns its first slot. The block chains
    /// on to nothing: it becomes its chain's last.
    #[inline]
    pub fn take(&mut self, fill: T) -> u32 {
        let block = self.free;
        if block == NIL {
            return self.grow(fill);
        }
        let link = &mut self.next[block as usize / BLOCK];
        self.free = std::mem::replace(link, NIL);
        block
    }

    /// [`take`](Self::take) with nothing free: one more block.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, fill: T) -> u32 {
        let block = self.slots.len() as u32;
        self.next.push(NIL);
        self.slots.resize(self.slots.len() + BLOCK, fill);
        block
    }

    /// The slot to write behind `tail`, a chain's last slot: the next slot
    /// of its block, or the first of a block [taken](Self::take) and
    /// chained after it.
    #[inline]
    pub fn extend(&mut self, tail: u32, fill: T) -> u32 {
        if !(tail as usize + 1).is_multiple_of(BLOCK) {
            tail + 1
        } else {
            let block = self.take(fill);
            self.next[tail as usize / BLOCK] = block;
            block
        }
    }
}

impl<T> Blocks<T> {
    /// Hands the block holding slot `idx` back to the pool.
    #[inline]
    pub fn release(&mut self, idx: u32) {
        let block = block_of(idx);
        self.next[block as usize / BLOCK] = self.free;
        self.free = block;
    }

    /// The slot after `idx` on its chain: the next slot of the block, or
    /// the first slot of the block chained after it. Only meaningful while
    /// `idx` is not its chain's last slot.
    #[inline]
    pub fn successor(&self, idx: u32) -> u32 {
        if !(idx + 1).is_multiple_of(BLOCK as u32) {
            idx + 1
        } else {
            self.next[idx as usize / BLOCK]
        }
    }

    /// [`successor`](Self::successor), for a head that leaves `idx`
    /// behind: a block it leaves goes back to the pool.
    #[inline]
    pub fn advance(&mut self, idx: u32) -> u32 {
        let next = self.successor(idx);
        if next.is_multiple_of(BLOCK as u32) {
            self.release(idx);
        }
        next
    }

    /// Blocks the pool holds, free or not: its high-water mark, since it
    /// never shrinks.
    pub fn blocks(&self) -> usize {
        self.next.len()
    }

    /// The block chained after the one holding slot `idx` ([`NIL`] for a
    /// chain's last block).
    pub fn next_of(&self, idx: u32) -> u32 {
        self.next[idx as usize / BLOCK]
    }

    /// Slots the pool holds (`blocks() * BLOCK`).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Who holds each block, for an audit: every block on the free list is
    /// marked [`Holders::FREE`], the rest nobody yet. Fails if the free
    /// list meets a block twice (it loops), or names a slot that does not
    /// start a block of the pool.
    pub fn holders(&self) -> Result<Holders, String> {
        let mut holders = Holders(vec![NIL; self.next.len()]);
        let mut block = self.free;
        while block != NIL {
            let fresh =
                block.is_multiple_of(BLOCK as u32) && holders.claim(block, Holders::FREE).is_ok();
            if !fresh {
                return Err(format!("free block {block} is freed twice or not a block"));
            }
            block = self.next[block as usize / BLOCK];
        }
        Ok(holders)
    }

    /// Blocks on some chain right now.
    #[cfg(test)]
    pub(crate) fn in_use(&self) -> usize {
        let holders = self.holders().expect("a sound free list");
        holders.0.iter().filter(|&&h| h != Holders::FREE).count()
    }

    /// Forgets every free block, for tests that corrupt the free list.
    #[cfg(test)]
    pub(crate) fn forget_free_blocks(&mut self) {
        self.free = NIL;
    }
}

impl<T> Index<u32> for Blocks<T> {
    type Output = T;

    #[inline]
    fn index(&self, idx: u32) -> &T {
        &self.slots[idx as usize]
    }
}

impl<T> IndexMut<u32> for Blocks<T> {
    #[inline]
    fn index_mut(&mut self, idx: u32) -> &mut T {
        &mut self.slots[idx as usize]
    }
}

/// The block holding slot `idx`, named by its first slot.
#[inline]
pub fn block_of(idx: u32) -> u32 {
    idx - idx % BLOCK as u32
}

/// An audit's record of who holds each block of a pool: nobody,
/// [`Holders::FREE`], or an owner number the caller chose (a lane, a
/// port's FIFO).
#[derive(Debug)]
pub struct Holders(Vec<u32>);

impl Holders {
    /// The holder of a block on the free list.
    pub const FREE: u32 = NIL - 1;

    /// Records `owner` as the holder of the block holding slot `idx`. If
    /// someone holds it already, leaves it theirs and returns them; a slot
    /// outside the pool returns [`NIL`].
    pub fn claim(&mut self, idx: u32, owner: u32) -> Result<(), u32> {
        match self.0.get_mut(idx as usize / BLOCK) {
            Some(holder) if *holder == NIL => {
                *holder = owner;
                Ok(())
            }
            Some(holder) => Err(*holder),
            None => Err(NIL),
        }
    }

    /// The first block, by its first slot, that is neither free nor
    /// claimed.
    pub fn unheld(&self) -> Option<u32> {
        let block = self.0.iter().position(|&h| h == NIL)?;
        Some((block * BLOCK) as u32)
    }
}

/// A FIFO over a [`Blocks`] pool: where its chain starts and ends, and
/// how many slots it holds. The pool is passed to every call, so any
/// number of FIFOs can share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl Fifo {
    /// An empty FIFO; it holds no block until its first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Values queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is queued (and the FIFO holds no block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value`, taking a block from `blocks` if the tail block is
    /// full or the FIFO was empty.
    #[inline(always)]
    pub fn push_back<T: Copy>(&mut self, blocks: &mut Blocks<T>, value: T) {
        let idx = if self.len == 0 {
            let block = blocks.take(value);
            self.head = block;
            block
        } else {
            blocks.extend(self.tail, value)
        };
        blocks[idx] = value;
        self.tail = idx;
        self.len += 1;
    }

    /// Removes the oldest value, handing its block back to `blocks` once
    /// the head leaves it.
    #[inline(always)]
    pub fn pop_front<T: Copy>(&mut self, blocks: &mut Blocks<T>) -> Option<T> {
        (self.len > 0).then(|| self.take_front(blocks))
    }

    /// [`pop_front`](Self::pop_front) for a FIFO known to be busy: the
    /// value itself, with no `Option` for a caller to copy it out of.
    ///
    /// # Panics
    /// Panics if the FIFO is empty.
    #[inline(always)]
    pub fn take_front<T: Copy>(&mut self, blocks: &mut Blocks<T>) -> T {
        assert!(self.len > 0, "take_front on an empty FIFO");
        let head = self.head;
        self.len -= 1;
        if self.len == 0 {
            blocks.release(head);
            *self = Fifo::default();
        } else {
            self.head = blocks.advance(head);
        }
        // Read last, straight into wherever the caller wants it: a freed
        // block keeps its slots until it is taken again.
        blocks[head]
    }

    /// The oldest value, if any.
    #[inline]
    pub fn front<'a, T>(&self, blocks: &'a Blocks<T>) -> Option<&'a T> {
        (self.len > 0).then(|| &blocks[self.head])
    }

    /// The queued values, oldest first.
    pub fn iter<'a, T>(&self, blocks: &'a Blocks<T>) -> impl Iterator<Item = &'a T> + 'a {
        let tail = self.tail;
        let first = (self.len > 0).then_some(self.head);
        std::iter::successors(first, move |&i| (i != tail).then(|| blocks.successor(i)))
            .take(self.len as usize)
            .map(|i| &blocks[i])
    }

    /// Checks the chain against the pool (for an audit; O(len)): an empty
    /// FIFO names no slot; a busy one walks from its head through its
    /// blocks, claiming each for `owner` in `holders`, to its tail in
    /// exactly `len` slots, and its tail block chains on to nothing.
    pub fn check<T>(
        &self,
        blocks: &Blocks<T>,
        holders: &mut Holders,
        owner: u32,
    ) -> Result<(), String> {
        if self.len == 0 {
            return if (self.head, self.tail) == (NIL, NIL) {
                Ok(())
            } else {
                Err(format!(
                    "empty, yet names slots {} and {}",
                    self.head, self.tail
                ))
            };
        }
        let mut idx = self.head;
        let mut walked = 1u32;
        loop {
            if idx as usize >= blocks.slots() {
                return Err(format!("runs out of the pool at slot {idx}"));
            }
            if idx == self.head || idx.is_multiple_of(BLOCK as u32) {
                if let Err(holder) = holders.claim(idx, owner) {
                    let whose = if holder == Holders::FREE {
                        "free"
                    } else {
                        "on another FIFO"
                    };
                    return Err(format!("runs into block {}, {whose}", block_of(idx)));
                }
            }
            if idx == self.tail {
                break;
            }
            if walked == self.len {
                return Err(format!(
                    "walks {walked} slots without reaching its tail: len is short, or a loop"
                ));
            }
            idx = blocks.successor(idx);
            walked += 1;
        }
        if walked != self.len {
            return Err(format!(
                "reaches its tail in {walked} slots, not len {}",
                self.len
            ));
        }
        if blocks.next_of(self.tail) != NIL {
            return Err(format!("chains on past its tail at slot {}", self.tail));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use trace::SplitMix64;

    /// The pool-wide audit both users of the pool run: every block is
    /// free or on exactly one FIFO, and every FIFO's chain checks out.
    fn audit(blocks: &Blocks<u64>, fifos: &[Fifo]) -> Result<(), String> {
        let mut holders = blocks.holders()?;
        for (i, fifo) in fifos.iter().enumerate() {
            fifo.check(blocks, &mut holders, i as u32)
                .map_err(|e| format!("FIFO {i} {e}"))?;
        }
        match holders.unheld() {
            Some(block) => Err(format!("block {block} is neither free nor on a FIFO")),
            None => Ok(()),
        }
    }

    /// Seeded push/pop runs on 1–64 FIFOs sharing one pool, each checked
    /// against a `VecDeque` of its own for order and length. Phases lean
    /// to pushes, then to pops, so FIFOs grow across many blocks and drain
    /// back. Throughout, the pool holds at most `⌈len / BLOCK⌉ + 1` blocks
    /// per non-empty FIFO and passes the audit; drained, it holds every
    /// block on its free list.
    #[test]
    fn fifos_sharing_a_pool_match_a_deque_each() {
        for case in 0..300u64 {
            let mut rng = SplitMix64::new(case);
            let n = 1 + rng.next_bounded(64) as usize;
            let mut blocks = Blocks::new();
            let mut fifos = vec![Fifo::new(); n];
            let mut model = vec![VecDeque::new(); n];
            let steps = 500 + rng.next_bounded(4_000);
            for step in 0..steps {
                let i = rng.next_bounded(n as u64) as usize;
                let push_odds = if (step / 400) % 2 == 0 { 3 } else { 1 };
                if rng.next_bounded(4) < push_odds {
                    fifos[i].push_back(&mut blocks, step);
                    model[i].push_back(step);
                } else {
                    assert_eq!(fifos[i].pop_front(&mut blocks), model[i].pop_front());
                }
                assert_eq!(fifos[i].len(), model[i].len(), "case {case} step {step}");
                assert_eq!(
                    fifos[i].front(&blocks),
                    model[i].front(),
                    "case {case} step {step}"
                );
                if step % 97 == 0 {
                    assert_eq!(audit(&blocks, &fifos), Ok(()), "case {case} step {step}");
                    let bound: usize = model
                        .iter()
                        .filter(|m| !m.is_empty())
                        .map(|m| m.len().div_ceil(BLOCK) + 1)
                        .sum();
                    assert!(
                        blocks.in_use() <= bound,
                        "case {case} step {step}: {} blocks in use, bound {bound}",
                        blocks.in_use()
                    );
                    for (fifo, m) in fifos.iter().zip(&model) {
                        assert!(fifo.iter(&blocks).eq(m.iter()), "case {case} step {step}");
                    }
                }
            }
            for (fifo, m) in fifos.iter_mut().zip(&mut model) {
                while let Some(value) = fifo.pop_front(&mut blocks) {
                    assert_eq!(Some(value), m.pop_front(), "case {case}");
                }
                assert!(m.is_empty(), "case {case}");
            }
            assert_eq!(
                blocks.in_use(),
                0,
                "case {case}: drained, yet blocks are held"
            );
            assert_eq!(audit(&blocks, &fifos), Ok(()), "case {case}");
        }
    }

    /// Each way a chain or the free list can break shows in the audit.
    #[test]
    fn the_audit_names_what_is_broken() {
        let build = || {
            let mut blocks = Blocks::new();
            let mut fifos = vec![Fifo::new(); 3];
            for v in 0..40 {
                fifos[0].push_back(&mut blocks, v);
            }
            fifos[1].push_back(&mut blocks, 100);
            fifos[2].push_back(&mut blocks, 200);
            fifos[2].pop_front(&mut blocks);
            assert_eq!((blocks.in_use(), blocks.blocks()), (3, 4));
            assert_eq!(audit(&blocks, &fifos), Ok(()));
            (blocks, fifos)
        };
        let broken = |blocks: &Blocks<u64>, fifos: &[Fifo], what: &str| {
            let detail = audit(blocks, fifos).expect_err(what);
            assert!(detail.contains(what), "{detail:?} should mention {what:?}");
        };

        let (blocks, mut fifos) = build();
        fifos[0].len -= 1;
        broken(
            &blocks,
            &fifos,
            "FIFO 0 walks 39 slots without reaching its tail",
        );

        let (blocks, mut fifos) = build();
        fifos[0].len += 1;
        broken(
            &blocks,
            &fifos,
            "FIFO 0 reaches its tail in 40 slots, not len 41",
        );

        let (blocks, mut fifos) = build();
        fifos[0].tail = fifos[0].head;
        broken(&blocks, &fifos, "FIFO 0 reaches its tail in 1 slots");

        let (mut blocks, fifos) = build();
        let second = blocks.next_of(fifos[0].head);
        blocks.release(second);
        broken(
            &blocks,
            &fifos,
            &format!("FIFO 0 runs into block {second}, free"),
        );

        let (blocks, mut fifos) = build();
        fifos[1].head = fifos[0].head;
        fifos[1].tail = fifos[0].head;
        broken(&blocks, &fifos, "FIFO 1 runs into block 0, on another FIFO");

        let (mut blocks, fifos) = build();
        blocks.forget_free_blocks();
        broken(&blocks, &fifos, "is neither free nor on a FIFO");

        let (mut blocks, fifos) = build();
        let free = blocks.free;
        blocks.release(free);
        broken(&blocks, &fifos, "freed twice");

        let (mut blocks, fifos) = build();
        let tail = fifos[1].tail;
        blocks.next[tail as usize / BLOCK] = 0;
        broken(
            &blocks,
            &fifos,
            &format!("FIFO 1 chains on past its tail at slot {tail}"),
        );

        let (blocks, mut fifos) = build();
        fifos[2].head = 0;
        broken(&blocks, &fifos, "FIFO 2 empty, yet names slots 0");
    }
}

//! The load-store unit: splits scratchpad↔DRAM transfers into DRAM
//! columns and tracks up to 64 outstanding requests (§III-B).

use std::collections::VecDeque;

use vip_isa::{Reg, Trap};
use vip_mem::{MemRequest, MemResponse, ReqId, RequestKind};
use vip_snap::{snapshot_struct, Reader, SnapError, Snapshot, Writer};

use crate::arc::ArcId;
use crate::scalar::ScalarRegs;
use crate::scratchpad::Scratchpad;
use crate::ArcTable;

/// What an in-flight operation does when its responses arrive.
#[derive(Debug)]
enum OpKind {
    /// `ld.sram`: responses fill the scratchpad; clears an ARC entry on
    /// completion.
    LoadSram { arc_id: ArcId },
    /// `st.sram` / `st.reg` / `st.reg.ff`: data was snapshotted at issue;
    /// acks just drain.
    Store,
    /// `ld.reg` / `ld.reg.fe`: the response fills a scalar register and
    /// sets its valid bit.
    LoadReg { rd: Reg },
}

#[derive(Debug)]
struct Chunk {
    dram_addr: u64,
    sp_addr: usize,
    len: usize,
    data: Vec<u8>,
    kind: RequestKind,
}

#[derive(Debug)]
struct LsuOp {
    kind: OpKind,
    unsent: VecDeque<Chunk>,
    outstanding: usize,
}

/// Per-request bookkeeping for routing a response to its chunk.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    op: u64,
    sp_addr: usize,
    dram_addr: u64,
    kind: RequestKind,
}

/// A failure while applying a memory completion. The PE wraps these into
/// [`SimError`](crate::SimError) variants with its own id attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsuError {
    /// The response matches no in-flight request — a routing bug in the
    /// system model, reported with the full outstanding set.
    Orphan {
        /// The orphaned response id.
        id: ReqId,
        /// Request ids actually in flight, sorted.
        outstanding: Vec<ReqId>,
    },
    /// The response carries data ECC flagged as uncorrectable.
    Poisoned {
        /// The poisoned DRAM address.
        addr: u64,
    },
}

/// The low half of a request id: a sequence number the LSU mints in
/// issue order, wrapping at 2^32 (the high half is the PE id).
const REQ_SEQ: u64 = 0xffff_ffff;

/// How many keys a [`Window`]'s slots span at most: four LSQs' worth.
/// An entry that falls further behind the newest (a full-empty load the
/// vault holds while later requests come and go) moves aside, so the
/// slots never grow with how long one entry waits.
const SPAN: usize = 256;

/// Entries keyed by a sequence number their owner mints in issue order
/// (wrapping at `mask + 1`; the bits above `mask` are fixed), in a
/// window from the oldest key: a key's slot is its distance from that
/// one, so finding, taking and adding an entry are index arithmetic, and
/// the keys come out in issue order.
#[derive(Debug)]
struct Window<T> {
    mask: u64,
    /// The key of `slots[0]`, whose entry is live whenever there are
    /// slots.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Entries more than [`SPAN`] keys behind the newest, oldest first.
    parked: Vec<(u64, T)>,
    live: usize,
}

impl<T> Window<T> {
    fn new(mask: u64) -> Self {
        Window {
            mask,
            base: 0,
            slots: VecDeque::new(),
            parked: Vec::new(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The key of `slots[slot]`.
    fn key_at(&self, slot: usize) -> u64 {
        let seq = self.base.wrapping_add(slot as u64) & self.mask;
        self.base & !self.mask | seq
    }

    /// The slot `key` has, if it is inside the slots' span.
    fn slot(&self, key: u64) -> Option<usize> {
        let slot = key.wrapping_sub(self.base) & self.mask;
        let fixed = (key ^ self.base) & !self.mask == 0;
        (fixed && slot < self.slots.len() as u64).then_some(slot as usize)
    }

    /// Appends `value` under `key`, the key after the newest (any key
    /// when the slots are empty).
    fn push(&mut self, key: u64, value: T) {
        if self.slots.is_empty() {
            self.base = key;
        }
        debug_assert_eq!(key, self.key_at(self.slots.len()));
        self.slots.push_back(Some(value));
        self.live += 1;
        if self.slots.len() > SPAN {
            if let Some(Some(oldest)) = self.slots.pop_front() {
                self.parked.push((self.base, oldest));
            }
            self.base = self.key_at(1);
            self.trim();
        }
    }

    /// Drops the empty slots at the front.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.key_at(1);
        }
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        match self.slot(key) {
            Some(slot) => self.slots[slot].as_mut(),
            None => self
                .parked
                .iter_mut()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v),
        }
    }

    fn remove(&mut self, key: u64) -> Option<T> {
        let value = match self.slot(key) {
            Some(slot) => self.slots[slot].take(),
            None => {
                let at = self.parked.iter().position(|(k, _)| *k == key)?;
                Some(self.parked.remove(at).1)
            }
        }?;
        self.live -= 1;
        self.trim();
        Some(value)
    }

    /// Whether what the window derives holds, recomputed: `live` counts
    /// the entries, the front slot is live, the slots stay in [`SPAN`].
    fn holds(&self) -> bool {
        self.live == self.iter().count()
            && self.slots.front().is_none_or(Option::is_some)
            && self.slots.len() <= SPAN
    }

    /// The entries in issue order.
    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let parked = self.parked.iter().map(|(k, v)| (*k, v));
        let slots = self.slots.iter().enumerate();
        parked.chain(slots.filter_map(|(slot, v)| Some((self.key_at(slot), v.as_ref()?))))
    }

    /// The entries in ascending key order: issue order, with the keys
    /// minted after a wrap (smaller than the oldest) first.
    fn ascending(&self) -> impl Iterator<Item = (u64, &T)> {
        let oldest = self.iter().next().map_or(0, |(k, _)| k);
        let wrapped = self.iter().filter(move |&(k, _)| k < oldest);
        wrapped.chain(self.iter().filter(move |&(k, _)| k >= oldest))
    }

    /// Rebuilds a window from its entries in ascending key order (what
    /// [`save`](Self::save) writes), given `next`, the key its owner
    /// mints next: keys past `next` were minted before a wrap, so they
    /// are the oldest.
    fn restore(mask: u64, mut entries: Vec<(u64, T)>, next: u64) -> Result<Self, SnapError> {
        let newer = entries.partition_point(|&(k, _)| k < next);
        entries.rotate_left(newer);
        // How many keys before `next` each was minted: falling, in issue
        // order, and never zero.
        let age = |k: u64| next.wrapping_sub(k) & mask;
        if entries
            .iter()
            .any(|&(k, _)| age(k) == 0 || (k ^ next) & !mask != 0)
            || entries
                .windows(2)
                .any(|pair| age(pair[0].0) <= age(pair[1].0))
        {
            return Err(SnapError::Corrupt("LSU ids out of order"));
        }
        let mut window = Window::new(mask);
        for (key, value) in entries {
            if age(key) > SPAN as u64 {
                window.parked.push((key, value));
                window.live += 1;
                continue;
            }
            if window.slots.is_empty() {
                window.base = key;
            }
            while window.key_at(window.slots.len()) != key {
                window.slots.push_back(None);
            }
            window.push(key, value);
        }
        // The slots reach the newest key minted, answered or not.
        while !window.slots.is_empty() && window.key_at(window.slots.len()) != next {
            window.slots.push_back(None);
        }
        Ok(window)
    }
}

impl<T: Snapshot> Window<T> {
    /// The bytes of a map from key to value saved in key order.
    fn save(&self, w: &mut Writer) {
        w.usize(self.len());
        for (key, value) in self.ascending() {
            w.u64(key);
            value.save(w);
        }
    }
}

/// The PE's load-store unit.
///
/// Accepts whole `ld.sram`/`st.sram`/`ld.reg`/`st.reg` operations from
/// the issue stage, splits them into HMC request packets (up to 128
/// bytes, never crossing a DRAM row), sends at most one request per
/// cycle (respecting the 64-outstanding limit), and applies responses —
/// writing scratchpad bytes, filling scalar registers, and clearing ARC
/// entries when a scratchpad load fully lands.
#[derive(Debug)]
pub struct LoadStoreUnit {
    pe_id: u64,
    capacity: usize,
    granule: usize,
    /// The memory stack's capacity: no transfer may reach past it.
    dram_bytes: u64,
    /// Accepted operations by op id, until their last response.
    ops: Window<LsuOp>,
    /// The oldest op with chunks still to send (`next_op` when none):
    /// ops send in issue order, so every op from here on has some.
    unsent_from: u64,
    /// Sent requests by request id, until their response.
    in_flight: Window<InFlight>,
    next_op: u64,
    next_req: u64,
}

impl LoadStoreUnit {
    /// Creates the LSU for PE `pe_id` with `capacity` outstanding
    /// requests, splitting transfers at `granule`-byte windows (the
    /// stack's request packet size — 128 B for the HMC, less if rows
    /// are narrower) and refusing any that reach past `dram_bytes`.
    #[must_use]
    pub fn new(pe_id: usize, capacity: usize, granule: usize, dram_bytes: u64) -> Self {
        LoadStoreUnit {
            pe_id: pe_id as u64,
            capacity,
            granule,
            dram_bytes,
            ops: Window::new(u64::MAX),
            unsent_from: 0,
            in_flight: Window::new(REQ_SEQ),
            next_op: 0,
            next_req: 0,
        }
    }

    /// The memory stack's capacity in bytes.
    pub(crate) fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Outstanding requests (sent, unanswered).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether all accepted operations have fully completed (the
    /// `memfence` condition).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Full-empty words with requests still in flight, as
    /// `(address, is_load)` pairs sorted by address — the watchdog's view
    /// of what this PE is synchronizing on. An `fe.load` parked here is
    /// held at the vault until the word becomes full; if nothing ever
    /// fills it, this is the deadlock.
    #[must_use]
    pub fn fe_outstanding(&self) -> Vec<(u64, bool)> {
        let mut waits: Vec<(u64, bool)> = self
            .in_flight
            .iter()
            .filter_map(|(_, f)| match f.kind {
                RequestKind::FeLoad => Some((f.dram_addr, true)),
                RequestKind::FeStore => Some((f.dram_addr, false)),
                RequestKind::Read | RequestKind::Write => None,
            })
            .collect();
        waits.sort_unstable();
        waits
    }

    /// Whether [`next_request`](Self::next_request) would emit something:
    /// a chunk is waiting and the outstanding limit has room. Used by the
    /// fast stepping engine to decide whether the owning PE has work next
    /// cycle.
    #[must_use]
    pub fn can_emit(&self) -> bool {
        self.unsent_from != self.next_op && self.in_flight.len() < self.capacity
    }

    /// Checks that the transfer `[dram, dram+len)` lies inside the
    /// memory stack, as every accepted operation's must.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::DramOutOfBounds`] if it reaches past the capacity
    /// (or past the end of the address space).
    pub fn check_dram(&self, dram: u64, len: usize) -> Result<(), Trap> {
        Trap::check_dram_range(dram, len, self.dram_bytes)
    }

    /// Splits `[addr, addr+len)` at request-granule windows (a power of
    /// two: `MemConfig::request_granule` of a validated geometry). The
    /// range lies inside the capacity ([`check_dram`](Self::check_dram)),
    /// so its end does not overflow.
    fn split(&self, addr: u64, len: usize) -> impl ExactSizeIterator<Item = (u64, usize)> {
        let col = self.granule as u64;
        let end = addr + len as u64;
        let first = addr & !(col - 1);
        let windows = if len == 0 {
            0
        } else {
            ((end - first + col - 1) >> col.trailing_zeros()) as usize
        };
        (0..windows).map(move |i| {
            let window = first + i as u64 * col;
            let (at, to) = (window.max(addr), (window + col).min(end));
            (at, (to - at) as usize)
        })
    }

    /// Accepts an `ld.sram`: DRAM `[dram, dram+len)` into scratchpad
    /// `[sp, sp+len)`, guarded by ARC entry `arc_id`. The transfer is
    /// non-empty and passed [`check_dram`](Self::check_dram).
    pub fn push_load_sram(&mut self, dram: u64, sp: usize, len: usize, arc_id: ArcId) {
        debug_assert!(len > 0 && self.check_dram(dram, len).is_ok());
        let unsent = self
            .split(dram, len)
            .map(|(addr, len)| Chunk {
                dram_addr: addr,
                sp_addr: sp + (addr - dram) as usize,
                len,
                data: Vec::new(),
                kind: RequestKind::Read,
            })
            .collect();
        self.push_op(LsuOp {
            kind: OpKind::LoadSram { arc_id },
            unsent,
            outstanding: 0,
        });
    }

    /// Accepts an `st.sram` of the scratchpad bytes `data`, copied into
    /// its requests at issue. The transfer is non-empty and passed
    /// [`check_dram`](Self::check_dram).
    pub fn push_store_sram(&mut self, dram: u64, data: &[u8]) {
        debug_assert!(!data.is_empty() && self.check_dram(dram, data.len()).is_ok());
        let unsent = self
            .split(dram, data.len())
            .map(|(addr, len)| {
                let at = (addr - dram) as usize;
                Chunk {
                    dram_addr: addr,
                    sp_addr: 0,
                    len,
                    data: data[at..at + len].to_vec(),
                    kind: RequestKind::Write,
                }
            })
            .collect();
        self.push_op(LsuOp {
            kind: OpKind::Store,
            unsent,
            outstanding: 0,
        });
    }

    /// Accepts an `ld.reg` (or `ld.reg.fe`): the caller has already
    /// cleared `rd`'s valid bit.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::MisalignedRegAccess`] if `dram` is not 8-byte
    /// aligned, then [`Trap::DramOutOfBounds`] if the word lies past the
    /// capacity; the operation is not accepted.
    pub fn push_load_reg(&mut self, dram: u64, rd: Reg, full_empty: bool) -> Result<(), Trap> {
        Trap::check_reg_addr(dram)?;
        self.check_dram(dram, 8)?;
        let kind = if full_empty {
            RequestKind::FeLoad
        } else {
            RequestKind::Read
        };
        let chunk = Chunk {
            dram_addr: dram,
            sp_addr: 0,
            len: 8,
            data: Vec::new(),
            kind,
        };
        self.push_op(LsuOp {
            kind: OpKind::LoadReg { rd },
            unsent: VecDeque::from([chunk]),
            outstanding: 0,
        });
        Ok(())
    }

    /// Accepts an `st.reg` (or `st.reg.ff`).
    ///
    /// # Errors
    ///
    /// As [`push_load_reg`](Self::push_load_reg).
    pub fn push_store_reg(&mut self, dram: u64, value: u64, full_empty: bool) -> Result<(), Trap> {
        Trap::check_reg_addr(dram)?;
        self.check_dram(dram, 8)?;
        let kind = if full_empty {
            RequestKind::FeStore
        } else {
            RequestKind::Write
        };
        let chunk = Chunk {
            dram_addr: dram,
            sp_addr: 0,
            len: 8,
            data: value.to_le_bytes().to_vec(),
            kind,
        };
        self.push_op(LsuOp {
            kind: OpKind::Store,
            unsent: VecDeque::from([chunk]),
            outstanding: 0,
        });
        Ok(())
    }

    fn push_op(&mut self, op: LsuOp) {
        self.ops.push(self.next_op, op);
        self.next_op += 1;
        debug_assert!(self.holds(), "PE {}: stale LSU bookkeeping", self.pe_id);
    }

    /// Whether the windows hold, and `unsent_from` is what the ops say:
    /// the ops from it on, every one of them live, have chunks to send.
    fn holds(&self) -> bool {
        let unsent = self.ops.iter().filter(|(_, op)| !op.unsent.is_empty());
        self.ops.holds()
            && self.in_flight.holds()
            && unsent.map(|(id, _)| id).eq(self.unsent_from..self.next_op)
    }

    /// Emits the next request, if the outstanding limit allows and any
    /// chunk is waiting. Called at most once per cycle.
    pub fn next_request(&mut self) -> Option<MemRequest> {
        if !self.can_emit() {
            return None;
        }
        let op_id = self.unsent_from;
        let op = self.ops.get_mut(op_id).expect("queued op exists");
        let chunk = op.unsent.pop_front().expect("queued op has unsent chunks");
        if op.unsent.is_empty() {
            self.unsent_from += 1;
        }
        op.outstanding += 1;
        let id: ReqId = (self.pe_id << 32) | self.next_req;
        self.next_req = (self.next_req + 1) & REQ_SEQ;
        self.in_flight.push(
            id,
            InFlight {
                op: op_id,
                sp_addr: chunk.sp_addr,
                dram_addr: chunk.dram_addr,
                kind: chunk.kind,
            },
        );
        debug_assert!(self.holds(), "PE {}: stale LSU bookkeeping", self.pe_id);
        Some(match chunk.kind {
            RequestKind::Read => MemRequest::read(id, chunk.dram_addr, chunk.len),
            RequestKind::Write => MemRequest::write(id, chunk.dram_addr, chunk.data),
            RequestKind::FeLoad => MemRequest::fe_load(id, chunk.dram_addr),
            RequestKind::FeStore => MemRequest {
                id,
                kind: RequestKind::FeStore,
                addr: chunk.dram_addr,
                len: chunk.data.len(),
                data: chunk.data,
            },
        })
    }

    /// Applies a completion: fills scratchpad or register state and
    /// clears the ARC entry when a scratchpad load finishes. Returns
    /// whether it overwrote a valid register: one the host wrote while
    /// its fill was in flight.
    ///
    /// # Errors
    ///
    /// Returns [`LsuError::Orphan`] if the response matches no in-flight
    /// request (a routing bug in the system model, reported with the
    /// full outstanding set), or [`LsuError::Poisoned`] if the response
    /// carries data ECC flagged as uncorrectable — loads must not
    /// silently consume corrupt data.
    pub fn complete(
        &mut self,
        resp: &MemResponse,
        sp: &mut Scratchpad,
        regs: &mut ScalarRegs,
        arc: &mut ArcTable,
    ) -> Result<bool, LsuError> {
        let Some(inflight) = self.in_flight.remove(resp.id) else {
            return Err(LsuError::Orphan {
                id: resp.id,
                outstanding: self.in_flight.ascending().map(|(id, _)| id).collect(),
            });
        };
        let op = self.ops.get_mut(inflight.op).expect("op exists");
        op.outstanding -= 1;
        let overwrote = match op.kind {
            OpKind::LoadSram { .. } | OpKind::LoadReg { .. } if resp.poisoned => {
                return Err(LsuError::Poisoned {
                    addr: inflight.dram_addr,
                });
            }
            OpKind::LoadSram { .. } => {
                sp.write(inflight.sp_addr, &resp.data)
                    .expect("scratchpad range validated at issue");
                false
            }
            OpKind::LoadReg { rd } => {
                let value = u64::from_le_bytes(resp.data.as_slice().try_into().expect("8 bytes"));
                let overwrote = regs.is_valid(rd);
                regs.write(rd, value);
                overwrote
            }
            OpKind::Store => false,
        };
        if op.outstanding == 0 && op.unsent.is_empty() {
            let op = self.ops.remove(inflight.op).expect("op exists");
            if let OpKind::LoadSram { arc_id } = op.kind {
                arc.clear(arc_id);
            }
        }
        debug_assert!(self.holds(), "PE {}: stale LSU bookkeeping", self.pe_id);
        Ok(overwrote)
    }
}

// Hand-written: `Reg` is `vip-isa`'s type (which does not depend on
// `vip-snap`) and must be range-checked on the way back in.
impl Snapshot for OpKind {
    fn save(&self, w: &mut Writer) {
        match self {
            OpKind::LoadSram { arc_id } => {
                w.u8(0);
                w.u32(*arc_id);
            }
            OpKind::Store => w.u8(1),
            OpKind::LoadReg { rd } => {
                w.u8(2);
                w.u8(rd.index() as u8);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(OpKind::LoadSram { arc_id: r.u32()? }),
            1 => Ok(OpKind::Store),
            2 => Ok(OpKind::LoadReg {
                rd: Reg::try_new(r.u8()?).ok_or(SnapError::Corrupt("LSU register index"))?,
            }),
            _ => Err(SnapError::Corrupt("LSU op kind tag")),
        }
    }
}

snapshot_struct!(Chunk {
    dram_addr,
    sp_addr,
    len,
    data,
    kind
});
snapshot_struct!(LsuOp {
    kind,
    unsent,
    outstanding
});
snapshot_struct!(InFlight {
    op,
    sp_addr,
    dram_addr,
    kind
});

impl LoadStoreUnit {
    /// Serializes the LSU's mutable state. `pe_id`/`capacity`/`granule`
    /// are structural (rebuilt from config) and not written. Operations
    /// and requests are written as maps in ascending id order, the send
    /// order as the list of op ids with chunks left.
    pub fn save_state(&self, w: &mut Writer) {
        self.ops.save(w);
        w.usize((self.next_op - self.unsent_from) as usize);
        for op in self.unsent_from..self.next_op {
            w.u64(op);
        }
        self.in_flight.save(w);
        w.u64(self.next_op);
        w.u64(self.next_req);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto an
    /// LSU freshly built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure, ids out of order, or a
    /// send order that is not every op with chunks left, oldest first.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let ops = Vec::restore(r)?;
        let send_order = Vec::<u64>::restore(r)?;
        let in_flight = Vec::restore(r)?;
        self.next_op = r.u64()?;
        self.next_req = r.u64()?;
        if self.next_req > REQ_SEQ {
            return Err(SnapError::Corrupt("LSU request counter"));
        }
        self.unsent_from = send_order.first().copied().unwrap_or(self.next_op);
        self.ops = Window::restore(u64::MAX, ops, self.next_op)?;
        let next_id = (self.pe_id << 32) | self.next_req;
        self.in_flight = Window::restore(REQ_SEQ, in_flight, next_id)?;
        if !send_order.into_iter().eq(self.unsent_from..self.next_op) || !self.holds() {
            return Err(SnapError::Corrupt("LSU send order"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;
    use vip_mem::IdHasher;
    use vip_rng::for_each_seed;

    const DRAM_BYTES: u64 = 1 << 28;

    fn fixture() -> (LoadStoreUnit, Scratchpad, ScalarRegs, ArcTable) {
        (
            LoadStoreUnit::new(3, 64, 32, DRAM_BYTES),
            Scratchpad::new(4096),
            ScalarRegs::new(),
            ArcTable::new(20),
        )
    }

    #[test]
    fn id_hasher_spreads_a_window_of_request_ids() {
        // hashbrown takes the bucket from the low bits and the tag from
        // the top seven: 64 consecutive ids of one PE (a full LSQ) must
        // not pile up in either.
        let hash = |id: u64| {
            let mut h = IdHasher::default();
            h.write_u64(id);
            h.finish()
        };
        for pe in [0u64, 3, 127] {
            for base in [0u64, 1 << 20, 0xffff_ffc0] {
                let ids = (0..64).map(|n| (pe << 32) | (base + n));
                let (mut buckets, mut tags) = (0u128, 0u128);
                for h in ids.map(hash) {
                    buckets |= 1 << (h & 127);
                    tags |= 1 << (h >> 57);
                }
                assert!(buckets.count_ones() >= 40, "pe {pe} base {base:#x}");
                assert!(tags.count_ones() >= 32, "pe {pe} base {base:#x}");
            }
        }
    }

    #[test]
    fn split_respects_column_boundaries() {
        let lsu = LoadStoreUnit::new(0, 64, 32, DRAM_BYTES);
        let split = |addr, len| lsu.split(addr, len).collect::<Vec<_>>();
        assert_eq!(split(0, 64), vec![(0, 32), (32, 32)]);
        assert_eq!(split(16, 32), vec![(16, 16), (32, 16)]);
        assert_eq!(split(40, 8), vec![(40, 8)]);
        assert_eq!(split(30, 5), vec![(30, 2), (32, 3)]);
        assert_eq!(split(30, 0), vec![]);
    }

    /// The mask form of `split` against the division it replaced, for
    /// every preset's request granule under both mappings, around every
    /// power-of-two boundary and at seeded addresses.
    #[test]
    fn split_matches_its_division_form() {
        use vip_mem::{AddressMapping, MemConfig};
        let mut presets = MemConfig::figure5_sweep();
        presets.push(MemConfig::with_hmc_packets());
        let mut rng = vip_rng::SplitMix64::new(0x5b11_7000);
        let mut addrs = vec![0];
        for bit in 0..63 {
            addrs.extend([(1u64 << bit) - 1, 1 << bit, (1 << bit) + 1]);
        }
        addrs.extend((0..256).map(|_| rng.next_u64() >> 1));
        for preset in presets {
            for mapping in [
                AddressMapping::VaultRowBankCol,
                AddressMapping::LowInterleave,
            ] {
                let granule = MemConfig {
                    mapping,
                    ..preset.clone()
                }
                .request_granule();
                let lsu = LoadStoreUnit::new(0, 64, granule, u64::MAX);
                let col = granule as u64;
                for &addr in &addrs {
                    let len = rng.below(3 * col + 2) as usize;
                    let (mut expect, mut at) = (Vec::new(), addr);
                    while at < addr + len as u64 {
                        let chunk_end = (addr + len as u64).min((at / col + 1) * col);
                        expect.push((at, (chunk_end - at) as usize));
                        at = chunk_end;
                    }
                    assert_eq!(
                        lsu.split(addr, len).collect::<Vec<_>>(),
                        expect,
                        "granule {granule} at {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn load_sram_fills_scratchpad_and_clears_arc() {
        let (mut lsu, mut sp, mut regs, mut arc) = fixture();
        let arc_id = arc.insert(100, 48).unwrap();
        lsu.push_load_sram(0x20, 100, 48, arc_id);

        let mut reqs = Vec::new();
        while let Some(r) = lsu.next_request() {
            reqs.push(r);
        }
        assert_eq!(reqs.len(), 2); // 0x20..0x40, 0x40..0x50
        assert_eq!(lsu.outstanding(), 2);

        for (i, req) in reqs.iter().enumerate() {
            let resp = MemResponse {
                id: req.id,
                kind: RequestKind::Read,
                addr: req.addr,
                data: vec![i as u8 + 1; req.len],
                poisoned: false,
            };
            lsu.complete(&resp, &mut sp, &mut regs, &mut arc).unwrap();
        }
        assert!(lsu.is_empty());
        assert_eq!(arc.live(), 0, "ARC entry cleared on completion");
        assert_eq!(sp.read(100, 32).unwrap(), vec![1; 32]);
        assert_eq!(sp.read(132, 16).unwrap(), vec![2; 16]);
    }

    #[test]
    fn load_reg_sets_valid_bit() {
        let (mut lsu, mut sp, mut regs, mut arc) = fixture();
        let rd = Reg::new(9);
        regs.invalidate(rd);
        lsu.push_load_reg(0x40, rd, false).unwrap();
        let req = lsu.next_request().unwrap();
        assert_eq!(req.len, 8);
        let resp = MemResponse {
            id: req.id,
            kind: RequestKind::Read,
            addr: req.addr,
            data: 777u64.to_le_bytes().to_vec(),
            poisoned: false,
        };
        lsu.complete(&resp, &mut sp, &mut regs, &mut arc).unwrap();
        assert!(regs.is_valid(rd));
        assert_eq!(regs.read(rd), 777);
    }

    #[test]
    fn outstanding_limit_throttles() {
        let mut lsu = LoadStoreUnit::new(0, 2, 32, DRAM_BYTES);
        lsu.push_store_sram(0, &[0; 32 * 5]);
        assert!(lsu.next_request().is_some());
        assert!(lsu.next_request().is_some());
        assert!(lsu.next_request().is_none(), "capacity 2 reached");
    }

    #[test]
    fn requests_preserve_op_order() {
        let (mut lsu, ..) = fixture();
        lsu.push_store_reg(0, 1, false).unwrap();
        lsu.push_store_reg(8, 2, false).unwrap();
        let a = lsu.next_request().unwrap();
        let b = lsu.next_request().unwrap();
        assert_eq!(a.addr, 0);
        assert_eq!(b.addr, 8);
    }

    #[test]
    fn request_ids_encode_pe() {
        let (mut lsu, ..) = fixture();
        lsu.push_store_reg(0, 1, false).unwrap();
        let req = lsu.next_request().unwrap();
        assert_eq!(req.id >> 32, 3);
    }

    #[test]
    fn misaligned_reg_access_is_a_typed_trap() {
        let (mut lsu, ..) = fixture();
        assert_eq!(
            lsu.push_load_reg(0x41, Reg::new(1), false),
            Err(Trap::MisalignedRegAccess { addr: 0x41 })
        );
        assert_eq!(
            lsu.push_store_reg(0x43, 7, true),
            Err(Trap::MisalignedRegAccess { addr: 0x43 })
        );
        assert!(lsu.is_empty(), "rejected ops are not accepted");
    }

    #[test]
    fn orphan_response_names_the_outstanding_set() {
        let (mut lsu, mut sp, mut regs, mut arc) = fixture();
        lsu.push_store_reg(0, 1, false).unwrap();
        lsu.push_store_reg(8, 2, false).unwrap();
        let a = lsu.next_request().unwrap();
        let b = lsu.next_request().unwrap();
        let bogus = MemResponse {
            id: 0xdead,
            kind: RequestKind::Write,
            addr: 0,
            data: Vec::new(),
            poisoned: false,
        };
        let err = lsu.complete(&bogus, &mut sp, &mut regs, &mut arc);
        let mut expect = vec![a.id, b.id];
        expect.sort_unstable();
        assert_eq!(
            err,
            Err(LsuError::Orphan {
                id: 0xdead,
                outstanding: expect
            })
        );
        assert_eq!(lsu.outstanding(), 2, "real requests are untouched");
    }

    #[test]
    fn poisoned_load_is_a_typed_error() {
        let (mut lsu, mut sp, mut regs, mut arc) = fixture();
        regs.invalidate(Reg::new(5));
        lsu.push_load_reg(0x40, Reg::new(5), false).unwrap();
        let req = lsu.next_request().unwrap();
        let resp = MemResponse {
            id: req.id,
            kind: RequestKind::Read,
            addr: req.addr,
            data: vec![0; 8],
            poisoned: true,
        };
        assert_eq!(
            lsu.complete(&resp, &mut sp, &mut regs, &mut arc),
            Err(LsuError::Poisoned { addr: 0x40 })
        );
        assert!(!regs.is_valid(Reg::new(5)), "corrupt data never lands");
    }

    #[test]
    fn fe_outstanding_reports_waiting_words_sorted() {
        let (mut lsu, ..) = fixture();
        lsu.push_load_reg(0x80, Reg::new(1), true).unwrap();
        lsu.push_store_reg(0x40, 9, true).unwrap();
        lsu.push_load_reg(0x20, Reg::new(2), false).unwrap();
        assert!(lsu.fe_outstanding().is_empty(), "nothing sent yet");
        while lsu.next_request().is_some() {}
        assert_eq!(
            lsu.fe_outstanding(),
            vec![(0x40, false), (0x80, true)],
            "plain loads excluded, sorted by address"
        );
    }

    #[test]
    fn a_restored_register_index_is_range_checked() {
        // Tag 2 is `LoadReg { rd }`; 64 is one past the register file.
        assert!(matches!(
            OpKind::restore(&mut Reader::new(&[2, 63])),
            Ok(OpKind::LoadReg { rd }) if rd == Reg::new(63)
        ));
        assert!(matches!(
            OpKind::restore(&mut Reader::new(&[2, 64])),
            Err(SnapError::Corrupt("LSU register index"))
        ));
    }

    // ---- bookkeeping oracle -----------------------------------------
    //
    // The LSU's bookkeeping as it stood before the windows: operations
    // and requests in two id-keyed hash maps, a queue of op ids to send
    // from, the maps sorted by id when saved. It shares the op, chunk
    // and request types with the production LSU, and nothing that finds
    // or orders them.

    struct MapLsu {
        pe_id: u64,
        capacity: usize,
        granule: usize,
        ops: vip_mem::IdMap<LsuOp>,
        send_order: VecDeque<u64>,
        in_flight: vip_mem::IdMap<InFlight>,
        next_op: u64,
        next_req: u64,
    }

    impl MapLsu {
        fn new(pe_id: usize, capacity: usize, granule: usize) -> Self {
            MapLsu {
                pe_id: pe_id as u64,
                capacity,
                granule,
                ops: Default::default(),
                send_order: VecDeque::new(),
                in_flight: Default::default(),
                next_op: 0,
                next_req: 0,
            }
        }

        fn split(&self, addr: u64, len: usize) -> Vec<(u64, usize)> {
            let col = self.granule as u64;
            let (mut chunks, mut at, end) = (Vec::new(), addr, addr + len as u64);
            while at < end {
                let chunk_end = end.min((at | (col - 1)) + 1);
                chunks.push((at, (chunk_end - at) as usize));
                at = chunk_end;
            }
            chunks
        }

        fn push_load_sram(&mut self, dram: u64, sp: usize, len: usize, arc_id: ArcId) {
            let unsent = self
                .split(dram, len)
                .into_iter()
                .scan(sp, |sp_at, (addr, len)| {
                    let chunk = Chunk {
                        dram_addr: addr,
                        sp_addr: *sp_at,
                        len,
                        data: Vec::new(),
                        kind: RequestKind::Read,
                    };
                    *sp_at += len;
                    Some(chunk)
                })
                .collect();
            self.push_op(OpKind::LoadSram { arc_id }, unsent);
        }

        fn push_store_sram(&mut self, dram: u64, data: Vec<u8>) {
            let mut offset = 0;
            let unsent = self
                .split(dram, data.len())
                .into_iter()
                .map(|(addr, len)| {
                    offset += len;
                    Chunk {
                        dram_addr: addr,
                        sp_addr: 0,
                        len,
                        data: data[offset - len..offset].to_vec(),
                        kind: RequestKind::Write,
                    }
                })
                .collect();
            self.push_op(OpKind::Store, unsent);
        }

        fn push_reg(&mut self, kind: OpKind, dram: u64, data: Vec<u8>, req: RequestKind) {
            let chunk = Chunk {
                dram_addr: dram,
                sp_addr: 0,
                len: 8,
                data,
                kind: req,
            };
            self.push_op(kind, VecDeque::from([chunk]));
        }

        fn push_op(&mut self, kind: OpKind, unsent: VecDeque<Chunk>) {
            let op = LsuOp {
                kind,
                unsent,
                outstanding: 0,
            };
            self.ops.insert(self.next_op, op);
            self.send_order.push_back(self.next_op);
            self.next_op += 1;
        }

        fn next_request(&mut self) -> Option<MemRequest> {
            if self.in_flight.len() >= self.capacity {
                return None;
            }
            let &op_id = self.send_order.front()?;
            let op = self.ops.get_mut(&op_id).unwrap();
            let chunk = op.unsent.pop_front().unwrap();
            if op.unsent.is_empty() {
                self.send_order.pop_front();
            }
            op.outstanding += 1;
            let id = (self.pe_id << 32) | self.next_req;
            self.next_req = (self.next_req + 1) & 0xffff_ffff;
            let inflight = InFlight {
                op: op_id,
                sp_addr: chunk.sp_addr,
                dram_addr: chunk.dram_addr,
                kind: chunk.kind,
            };
            self.in_flight.insert(id, inflight);
            Some(match chunk.kind {
                RequestKind::Read => MemRequest::read(id, chunk.dram_addr, chunk.len),
                RequestKind::Write => MemRequest::write(id, chunk.dram_addr, chunk.data),
                RequestKind::FeLoad => MemRequest::fe_load(id, chunk.dram_addr),
                RequestKind::FeStore => MemRequest {
                    id,
                    kind: RequestKind::FeStore,
                    addr: chunk.dram_addr,
                    len: chunk.data.len(),
                    data: chunk.data,
                },
            })
        }

        fn complete(&mut self, resp: &MemResponse, pe: &mut PeState) -> Result<(), LsuError> {
            let Some(inflight) = self.in_flight.remove(&resp.id) else {
                let mut outstanding: Vec<ReqId> = self.in_flight.keys().copied().collect();
                outstanding.sort_unstable();
                return Err(LsuError::Orphan {
                    id: resp.id,
                    outstanding,
                });
            };
            let op = self.ops.get_mut(&inflight.op).unwrap();
            op.outstanding -= 1;
            match op.kind {
                OpKind::LoadSram { .. } | OpKind::LoadReg { .. } if resp.poisoned => {
                    return Err(LsuError::Poisoned {
                        addr: inflight.dram_addr,
                    });
                }
                OpKind::LoadSram { .. } => pe.sp.write(inflight.sp_addr, &resp.data).unwrap(),
                OpKind::LoadReg { rd } => {
                    let value = u64::from_le_bytes(resp.data.as_slice().try_into().unwrap());
                    pe.regs.write(rd, value);
                }
                OpKind::Store => {}
            }
            if op.outstanding == 0 && op.unsent.is_empty() {
                if let OpKind::LoadSram { arc_id } = self.ops.remove(&inflight.op).unwrap().kind {
                    pe.arc.clear(arc_id);
                }
            }
            Ok(())
        }

        fn fe_outstanding(&self) -> Vec<(u64, bool)> {
            let mut waits: Vec<(u64, bool)> = (self.in_flight.values())
                .filter_map(|f| match f.kind {
                    RequestKind::FeLoad => Some((f.dram_addr, true)),
                    RequestKind::FeStore => Some((f.dram_addr, false)),
                    RequestKind::Read | RequestKind::Write => None,
                })
                .collect();
            waits.sort_unstable();
            waits
        }

        fn saved(&self) -> Vec<u8> {
            let mut w = Writer::new();
            vip_snap::save_sorted(&mut w, &self.ops);
            self.send_order.save(&mut w);
            vip_snap::save_sorted(&mut w, &self.in_flight);
            w.u64(self.next_op);
            w.u64(self.next_req);
            w.into_bytes()
        }
    }

    /// What an LSU writes into: its PE's scratchpad, registers and ARC.
    struct PeState {
        sp: Scratchpad,
        regs: ScalarRegs,
        arc: ArcTable,
    }

    impl PeState {
        fn new() -> Self {
            PeState {
                sp: Scratchpad::new(4096),
                regs: ScalarRegs::new(),
                arc: ArcTable::new(20),
            }
        }

        fn saved(&self) -> Vec<u8> {
            let mut w = Writer::new();
            self.sp.save(&mut w);
            self.regs.save(&mut w);
            self.arc.save(&mut w);
            w.into_bytes()
        }
    }

    fn saved(lsu: &LoadStoreUnit) -> Vec<u8> {
        let mut w = Writer::new();
        lsu.save_state(&mut w);
        w.into_bytes()
    }

    /// A restore target that has run a stream of its own.
    fn used_lsu(pe: usize) -> LoadStoreUnit {
        let mut lsu = LoadStoreUnit::new(pe, 64, 32, DRAM_BYTES);
        lsu.push_store_sram(0x100, &[7; 200]);
        lsu.push_load_reg(0x40, Reg::new(3), true).unwrap();
        while lsu.next_request().is_some() {}
        lsu
    }

    /// Drives the windowed LSU and the map-based reference with one
    /// seeded stream, starting with `next_req` at `first_req`: issues of
    /// every operation kind, emissions, completions in any order —
    /// full-empty loads held back while more than 256 later requests come
    /// and go, now and then a poisoned one — orphan responses, and save /
    /// restore round trips onto a used LSU. Every step must emit the same
    /// request, complete or fail the same way (an orphan's sorted id list
    /// included), write the same PE state, and save the same bytes.
    fn lsu_differential(seed: u64, first_req: u64, steps: usize) {
        const PE: usize = 5;
        let mut rng = vip_rng::SplitMix64::new(seed);
        let mut old = MapLsu::new(PE, 64, 32);
        old.next_req = first_req;
        let mut new = used_lsu(PE);
        new.restore_state(&mut Reader::new(&old.saved())).unwrap();
        let (mut old_pe, mut new_pe) = (PeState::new(), PeState::new());
        // Sent and unanswered: the request and how many were sent before it.
        let mut pending: Vec<(MemRequest, u64)> = Vec::new();
        let (mut sent, mut answered, mut fe_held, mut parked) = (0u64, Vec::new(), 0, 0);
        let drain_from = steps * 9 / 10;
        for step in 0..steps {
            let draining = step >= drain_from;
            match rng.below(16) {
                0..=3 if !draining => {
                    let dram = rng.below(1 << 20);
                    match rng.below(4) {
                        0 if old_pe.arc.has_free_entry() => {
                            let len = 1 + rng.below(300) as usize;
                            let sp = rng.below((4096 - len) as u64) as usize;
                            let id = old_pe.arc.insert(sp, len).unwrap();
                            assert_eq!(new_pe.arc.insert(sp, len), Some(id));
                            old.push_load_sram(dram, sp, len, id);
                            new.push_load_sram(dram, sp, len, id);
                        }
                        1 => {
                            let len = 1 + rng.below(300) as usize;
                            let data = rng.bytes(len);
                            old.push_store_sram(dram, data.clone());
                            new.push_store_sram(dram, &data);
                        }
                        kind => {
                            let (addr, fe) = (dram & !7, rng.below(3) == 0);
                            if kind == 2 {
                                let rd = Reg::new(1 + rng.below(63) as u8);
                                if old_pe.regs.is_valid(rd) {
                                    old_pe.regs.invalidate(rd);
                                    new_pe.regs.invalidate(rd);
                                    let req =
                                        [RequestKind::Read, RequestKind::FeLoad][usize::from(fe)];
                                    old.push_reg(OpKind::LoadReg { rd }, addr, Vec::new(), req);
                                    new.push_load_reg(addr, rd, fe).unwrap();
                                }
                            } else {
                                let value = rng.next_u64();
                                let bytes = value.to_le_bytes().to_vec();
                                let req =
                                    [RequestKind::Write, RequestKind::FeStore][usize::from(fe)];
                                old.push_reg(OpKind::Store, addr, bytes, req);
                                new.push_store_reg(addr, value, fe).unwrap();
                            }
                        }
                    }
                }
                4..=8 => {
                    let req = old.next_request();
                    assert_eq!(new.next_request(), req, "seed {seed:#x} step {step}");
                    if let Some(req) = req {
                        pending.push((req, sent));
                        sent += 1;
                    }
                }
                9..=13 => {
                    // Full-empty loads wait until 256 later requests went out.
                    let ready: Vec<usize> = (0..pending.len())
                        .filter(|&i| {
                            let (req, at) = &pending[i];
                            req.kind != RequestKind::FeLoad || draining || sent - at > 256
                        })
                        .collect();
                    fe_held += usize::from(ready.len() < pending.len());
                    if ready.is_empty() {
                        continue;
                    }
                    let near = ready.len().min(4) as u64;
                    let far = rng.below(4) == 0;
                    let pick = rng.below(if far { ready.len() as u64 } else { near });
                    let (req, _) = pending.remove(ready[pick as usize]);
                    let data = match req.kind {
                        RequestKind::Read | RequestKind::FeLoad => {
                            (0..req.len).map(|j| (req.id as usize + j) as u8).collect()
                        }
                        RequestKind::Write | RequestKind::FeStore => Vec::new(),
                    };
                    let resp = MemResponse {
                        id: req.id,
                        kind: req.kind,
                        addr: req.addr,
                        data,
                        poisoned: rng.below(256) == 0,
                    };
                    let want = old.complete(&resp, &mut old_pe);
                    let got =
                        new.complete(&resp, &mut new_pe.sp, &mut new_pe.regs, &mut new_pe.arc);
                    assert_eq!(got.map(drop), want, "seed {seed:#x} step {step}");
                    answered.push(req.id);
                }
                14 => {
                    // An answered id, a never-sent one, another PE's.
                    let id = match rng.below(3) {
                        0 if !answered.is_empty() => {
                            answered[rng.below(answered.len() as u64) as usize]
                        }
                        1 => (PE as u64) << 32 | (old.next_req + 1 + rng.below(1000)) & 0xffff_ffff,
                        _ => (PE as u64 + 1) << 32 | rng.below(1 << 32),
                    };
                    let resp = MemResponse {
                        id,
                        kind: RequestKind::Write,
                        addr: 0,
                        data: Vec::new(),
                        poisoned: false,
                    };
                    let want = old.complete(&resp, &mut old_pe);
                    assert!(matches!(want, Err(LsuError::Orphan { .. })));
                    let got =
                        new.complete(&resp, &mut new_pe.sp, &mut new_pe.regs, &mut new_pe.arc);
                    assert_eq!(got.map(drop), want, "seed {seed:#x} step {step}");
                }
                15 => {
                    let bytes = saved(&new);
                    let mut copy = used_lsu(PE);
                    copy.restore_state(&mut Reader::new(&bytes)).unwrap();
                    assert_eq!(saved(&copy), bytes, "seed {seed:#x} step {step}");
                    new = copy;
                }
                _ => {}
            }
            assert_eq!(saved(&new), old.saved(), "seed {seed:#x} step {step}");
            assert_eq!(new_pe.saved(), old_pe.saved(), "seed {seed:#x} step {step}");
            assert_eq!(new.fe_outstanding(), old.fe_outstanding());
            assert_eq!(new.outstanding(), old.in_flight.len());
            assert_eq!(new.is_empty(), old.ops.is_empty());
            let old_can_emit = !old.send_order.is_empty() && old.in_flight.len() < 64;
            assert_eq!(new.can_emit(), old_can_emit);
            parked = parked.max(new.in_flight.parked.len());
        }
        assert!(
            fe_held > 0,
            "seed {seed:#x}: no full-empty load was ever held"
        );
        assert!(
            parked > 0,
            "seed {seed:#x}: no request fell behind the window"
        );
        assert!(sent > 300, "seed {seed:#x}: only {sent} requests");
    }

    #[test]
    fn lsu_windows_match_the_map_reference() {
        for_each_seed("lsu_windows_match_the_map_reference", 0x15a0, 24, |seed| {
            // Even seeds cross the request ids' 32-bit wrap early on.
            let first_req = if seed % 2 == 0 { 0xffff_fff0 } else { 0 };
            lsu_differential(seed, first_req, 4_000);
        });
    }

    #[test]
    fn lsu_windows_refuse_an_impossible_image() {
        // Op 0 has sent one of its three chunks, op 1 none of its one.
        let mut old = MapLsu::new(1, 64, 32);
        old.push_store_sram(0, vec![1; 96]);
        old.push_reg(OpKind::Store, 8, vec![0; 8], RequestKind::Write);
        let sent = old.next_request().unwrap();
        let restore = |old: &MapLsu| {
            let mut lsu = used_lsu(1);
            lsu.restore_state(&mut Reader::new(&old.saved()))
        };
        assert_eq!(restore(&old), Ok(()));
        // A send order that skips an op with chunks left, or names one
        // with none; a request id yet to be minted, or another PE's; a
        // request counter past 32 bits.
        let corrupt = Err(SnapError::Corrupt("LSU send order"));
        let mut bad = MapLsu::new(1, 64, 32);
        for (edit, want) in [
            (0, corrupt.clone()),
            (1, corrupt),
            (2, Err(SnapError::Corrupt("LSU ids out of order"))),
            (3, Err(SnapError::Corrupt("LSU ids out of order"))),
            (4, Err(SnapError::Corrupt("LSU request counter"))),
        ] {
            bad.ops = std::mem::take(&mut old.ops);
            (bad.send_order, bad.in_flight) = (old.send_order.clone(), old.in_flight.clone());
            (bad.next_op, bad.next_req) = (old.next_op, old.next_req);
            let inflight = old.in_flight[&sent.id];
            match edit {
                0 => drop(bad.send_order.pop_front()),
                1 => bad.send_order.push_front(7),
                2 => drop(bad.in_flight.insert(1 << 32 | bad.next_req, inflight)),
                3 => drop(bad.in_flight.insert(2 << 32, inflight)),
                _ => bad.next_req = 1 << 32,
            }
            assert_eq!(restore(&bad), want, "edit {edit}");
            old.ops = std::mem::take(&mut bad.ops);
        }
    }

    #[test]
    fn lsu_windows_save_ascending_ids_across_the_wrap() {
        // Four requests straddling the wrap, answered out of order: the
        // image lists them by id, post-wrap ones first, and restores.
        let mut old = MapLsu::new(2, 64, 32);
        old.next_req = 0xffff_fffe;
        let mut lsu = LoadStoreUnit::new(2, 64, 32, DRAM_BYTES);
        lsu.restore_state(&mut Reader::new(&old.saved())).unwrap();
        lsu.push_store_sram(0, &[1; 128]);
        let ids: Vec<u64> = std::iter::from_fn(|| lsu.next_request())
            .map(|r| r.id)
            .collect();
        let low: Vec<u64> = ids.iter().map(|id| id & 0xffff_ffff).collect();
        assert_eq!(low, [0xffff_fffe, 0xffff_ffff, 0, 1]);
        let (mut sp, mut regs, mut arc) =
            (Scratchpad::new(64), ScalarRegs::new(), ArcTable::new(2));
        let ack = |id| MemResponse {
            id,
            kind: RequestKind::Write,
            addr: 0,
            data: Vec::new(),
            poisoned: false,
        };
        lsu.complete(&ack(ids[2]), &mut sp, &mut regs, &mut arc)
            .unwrap();
        let mut sorted = vec![ids[3], ids[0], ids[1]];
        let orphan = lsu.complete(&ack(ids[2]), &mut sp, &mut regs, &mut arc);
        assert_eq!(
            orphan,
            Err(LsuError::Orphan {
                id: ids[2],
                outstanding: sorted.clone()
            })
        );
        let bytes = saved(&lsu);
        let mut copy = used_lsu(2);
        copy.restore_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(saved(&copy), bytes);
        // Answered oldest first from the copy, then the last one.
        sorted.rotate_left(1);
        for id in sorted {
            copy.complete(&ack(id), &mut sp, &mut regs, &mut arc)
                .unwrap();
        }
        assert!(copy.is_empty());
    }
}

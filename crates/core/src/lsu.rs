//! The load-store unit: splits scratchpad↔DRAM transfers into DRAM
//! columns and tracks up to 64 outstanding requests (§III-B).

use std::collections::VecDeque;

use vip_isa::{Reg, Trap};
use vip_mem::{IdMap, MemRequest, MemResponse, ReqId, RequestKind};
use vip_snap::{save_sorted, snapshot_struct, Reader, SnapError, Snapshot, Writer};

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
    ops: IdMap<LsuOp>,
    send_order: VecDeque<u64>,
    in_flight: IdMap<InFlight>,
    next_op: u64,
    next_req: u64,
}

impl LoadStoreUnit {
    /// Creates the LSU for PE `pe_id` with `capacity` outstanding
    /// requests, splitting transfers at `granule`-byte windows (the
    /// stack's request packet size — 128 B for the HMC, less if rows
    /// are narrower).
    #[must_use]
    pub fn new(pe_id: usize, capacity: usize, granule: usize) -> Self {
        LoadStoreUnit {
            pe_id: pe_id as u64,
            capacity,
            granule,
            ops: IdMap::default(),
            send_order: VecDeque::new(),
            in_flight: IdMap::default(),
            next_op: 0,
            next_req: 0,
        }
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
            .values()
            .filter_map(|f| match f.kind {
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
        !self.send_order.is_empty() && self.in_flight.len() < self.capacity
    }

    /// Splits `[addr, addr+len)` at request-granule windows (a power of
    /// two: `MemConfig::request_granule` of a validated geometry).
    fn split(&self, addr: u64, len: usize) -> Vec<(u64, usize)> {
        let col = self.granule as u64;
        let mut chunks = Vec::new();
        let mut at = addr;
        let end = addr + len as u64;
        while at < end {
            let next_boundary = (at | (col - 1)) + 1;
            let chunk_end = end.min(next_boundary);
            chunks.push((at, (chunk_end - at) as usize));
            at = chunk_end;
        }
        chunks
    }

    /// Accepts an `ld.sram`: DRAM `[dram, dram+len)` into scratchpad
    /// `[sp, sp+len)`, guarded by ARC entry `arc_id`.
    pub fn push_load_sram(&mut self, dram: u64, sp: usize, len: usize, arc_id: ArcId) {
        let unsent = self
            .split(dram, len)
            .into_iter()
            .scan(sp, |sp_at, (addr, clen)| {
                let chunk = Chunk {
                    dram_addr: addr,
                    sp_addr: *sp_at,
                    len: clen,
                    data: Vec::new(),
                    kind: RequestKind::Read,
                };
                *sp_at += clen;
                Some(chunk)
            })
            .collect();
        self.push_op(LsuOp {
            kind: OpKind::LoadSram { arc_id },
            unsent,
            outstanding: 0,
        });
    }

    /// Accepts an `st.sram` with the scratchpad bytes snapshotted at
    /// issue.
    pub fn push_store_sram(&mut self, dram: u64, data: Vec<u8>) {
        let mut offset = 0;
        let unsent = self
            .split(dram, data.len())
            .into_iter()
            .map(|(addr, clen)| {
                let chunk = Chunk {
                    dram_addr: addr,
                    sp_addr: 0,
                    len: clen,
                    data: data[offset..offset + clen].to_vec(),
                    kind: RequestKind::Write,
                };
                offset += clen;
                chunk
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
    /// aligned; the operation is not accepted.
    pub fn push_load_reg(&mut self, dram: u64, rd: Reg, full_empty: bool) -> Result<(), Trap> {
        Trap::check_reg_addr(dram)?;
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
    /// Returns [`Trap::MisalignedRegAccess`] if `dram` is not 8-byte
    /// aligned; the operation is not accepted.
    pub fn push_store_reg(&mut self, dram: u64, value: u64, full_empty: bool) -> Result<(), Trap> {
        Trap::check_reg_addr(dram)?;
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
        let id = self.next_op;
        self.next_op += 1;
        self.ops.insert(id, op);
        self.send_order.push_back(id);
    }

    /// Emits the next request, if the outstanding limit allows and any
    /// chunk is waiting. Called at most once per cycle.
    pub fn next_request(&mut self) -> Option<MemRequest> {
        if self.in_flight.len() >= self.capacity {
            return None;
        }
        let &op_id = self.send_order.front()?;
        let op = self.ops.get_mut(&op_id).expect("queued op exists");
        let chunk = op.unsent.pop_front().expect("queued op has unsent chunks");
        if op.unsent.is_empty() {
            self.send_order.pop_front();
        }
        op.outstanding += 1;
        let id: ReqId = (self.pe_id << 32) | self.next_req;
        self.next_req = (self.next_req + 1) & 0xffff_ffff;
        self.in_flight.insert(
            id,
            InFlight {
                op: op_id,
                sp_addr: chunk.sp_addr,
                dram_addr: chunk.dram_addr,
                kind: chunk.kind,
            },
        );
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
    /// clears the ARC entry when a scratchpad load finishes.
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
    ) -> Result<(), LsuError> {
        let Some(inflight) = self.in_flight.remove(&resp.id) else {
            let mut outstanding: Vec<ReqId> = self.in_flight.keys().copied().collect();
            outstanding.sort_unstable();
            return Err(LsuError::Orphan {
                id: resp.id,
                outstanding,
            });
        };
        let op = self.ops.get_mut(&inflight.op).expect("op exists");
        op.outstanding -= 1;
        match op.kind {
            OpKind::LoadSram { .. } | OpKind::LoadReg { .. } if resp.poisoned => {
                return Err(LsuError::Poisoned {
                    addr: inflight.dram_addr,
                });
            }
            OpKind::LoadSram { .. } => {
                sp.write(inflight.sp_addr, &resp.data)
                    .expect("scratchpad range validated at issue");
            }
            OpKind::LoadReg { rd } => {
                let value = u64::from_le_bytes(resp.data.as_slice().try_into().expect("8 bytes"));
                regs.write(rd, value);
            }
            OpKind::Store => {}
        }
        if op.outstanding == 0 && op.unsent.is_empty() {
            let op = self.ops.remove(&inflight.op).expect("op exists");
            if let OpKind::LoadSram { arc_id } = op.kind {
                arc.clear(arc_id);
            }
        }
        Ok(())
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
    /// are structural (rebuilt from config) and not written. The two hash
    /// maps are emitted in sorted key order for canonical bytes; the
    /// maps' iteration order never feeds simulation behaviour, so sorted
    /// reload is exact.
    pub fn save_state(&self, w: &mut Writer) {
        save_sorted(w, &self.ops);
        self.send_order.save(w);
        save_sorted(w, &self.in_flight);
        w.u64(self.next_op);
        w.u64(self.next_req);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto an
    /// LSU freshly built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.ops = Vec::restore(r)?.into_iter().collect();
        self.send_order = VecDeque::restore(r)?;
        self.in_flight = Vec::restore(r)?.into_iter().collect();
        self.next_op = r.u64()?;
        self.next_req = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;
    use vip_mem::IdHasher;

    fn fixture() -> (LoadStoreUnit, Scratchpad, ScalarRegs, ArcTable) {
        (
            LoadStoreUnit::new(3, 64, 32),
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
        let lsu = LoadStoreUnit::new(0, 64, 32);
        assert_eq!(lsu.split(0, 64), vec![(0, 32), (32, 32)]);
        assert_eq!(lsu.split(16, 32), vec![(16, 16), (32, 16)]);
        assert_eq!(lsu.split(40, 8), vec![(40, 8)]);
        assert_eq!(lsu.split(30, 5), vec![(30, 2), (32, 3)]);
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
                let lsu = LoadStoreUnit::new(0, 64, granule);
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
                        lsu.split(addr, len),
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
        let mut lsu = LoadStoreUnit::new(0, 2, 32);
        lsu.push_store_sram(0, vec![0; 32 * 5]);
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
}

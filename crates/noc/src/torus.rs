//! The flit-level torus network model.

use std::collections::VecDeque;
use std::fmt;

use crate::routing::{hop_count, next_hop};
use crate::stats::NocStats;
use crate::Cycle;
use vip_faults::{crc::crc32, fault_roll, fault_value, FaultDomain, NocFaultConfig};
use vip_snap::{snapshot_struct, Reader, SnapError, Snapshot, Writer};

/// Torus geometry and link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TorusConfig {
    /// Routers in X. VIP: 8.
    pub width: usize,
    /// Routers in Y. VIP: 4.
    pub height: usize,
    /// Cycles per router+link hop (§V-A: 3).
    pub hop_latency: Cycle,
    /// Bytes per flit (64-bit links: 8).
    pub flit_bytes: usize,
    /// Header flits prepended to every packet.
    pub header_flits: u64,
    /// Link fault injection and the CRC/retransmission protocol bounds
    /// (`None`: no injector wired, links are perfect).
    pub faults: Option<NocFaultConfig>,
}

impl TorusConfig {
    /// The paper's configuration: an 8×4 torus of 64-bit links with
    /// 3-cycle hops.
    #[must_use]
    pub fn vip() -> Self {
        TorusConfig {
            width: 8,
            height: 4,
            hop_latency: 3,
            flit_bytes: 8,
            header_flits: 1,
            faults: None,
        }
    }

    /// Number of router nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Number of directed inter-router links (4 per node).
    #[must_use]
    pub fn links(&self) -> usize {
        self.nodes() * 4
    }

    /// Flits occupied by a packet with `payload_bytes` of payload.
    #[must_use]
    pub fn flits(&self, payload_bytes: usize) -> u64 {
        self.header_flits + payload_bytes.div_ceil(self.flit_bytes) as u64
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.width, node / self.width)
    }
}

/// A packet in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<T> {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload size in bytes (determines flit count).
    pub payload_bytes: usize,
    /// The carried value.
    pub payload: T,
    /// Cycle at which [`Torus::inject`] accepted the packet.
    pub injected_at: Cycle,
}

snapshot_struct!(Packet<T> {
    src,
    dst,
    payload_bytes,
    payload,
    injected_at
});

/// Error returned when a router's injection port is busy serializing a
/// previous packet; retry next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectError {
    /// The node whose injection port was busy.
    pub node: usize,
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injection port at node {} is busy", self.node)
    }
}

impl std::error::Error for InjectError {}

#[derive(Debug)]
struct Flight<T> {
    packet: Packet<T>,
    at: (usize, usize),
    ready_at: Cycle,
    flits: u64,
    /// Stable packet identity (the injection-order ordinal): the fault
    /// coordinate, so a packet's fate is independent of what else is in
    /// flight or which stepping engine runs the network.
    uid: u64,
    /// Retransmissions performed so far.
    attempt: u32,
    /// Links traversed in the current attempt (second fault
    /// coordinate).
    hops_done: u64,
    /// CRC-32 over the packet header, carried in the tail flit. The
    /// injector corrupts data flits, never this field, so a mismatch at
    /// the check is a detected corruption.
    crc: u32,
}

snapshot_struct!(Flight<T> {
    packet,
    at,
    ready_at,
    flits,
    uid,
    attempt,
    hops_done,
    crc
});

/// The outcome of a faulted link traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkFault {
    /// A data flit had bits flipped on the wire (caught by CRC).
    Corrupt,
    /// A flit vanished (caught by timeout).
    Drop,
}

/// A cycle-driven 2D-torus network with virtual cut-through switching.
///
/// Packets serialize onto their source router's injection port, traverse
/// links under X-then-Y dimension-order routing with shortest-way
/// wrap-around (each hop: [`TorusConfig::hop_latency`] cycles of pipeline
/// latency, with the link occupied for the packet's flit count), contend
/// for the destination's ejection port, and appear in the delivered
/// queue. See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Torus<T> {
    cfg: TorusConfig,
    now: Cycle,
    link_busy: Vec<Cycle>,
    inject_busy: Vec<Cycle>,
    eject_busy: Vec<Cycle>,
    flights: Vec<Flight<T>>,
    /// The next hop (link out, router it leads to; `None` at the
    /// destination) of the flight in the same slot of `flights`, routed
    /// once per router reached. Derived: rebuilt by `restore_state`.
    routes: Vec<Option<(usize, (usize, usize))>>,
    delivered: VecDeque<(usize, Packet<T>)>,
    failed: VecDeque<Packet<T>>,
    stats: NocStats,
}

impl<T> Torus<T> {
    /// Creates an idle network.
    #[must_use]
    pub fn new(cfg: TorusConfig) -> Self {
        Torus {
            cfg,
            now: 0,
            link_busy: vec![0; cfg.links()],
            inject_busy: vec![0; cfg.nodes()],
            eject_busy: vec![0; cfg.nodes()],
            flights: Vec::new(),
            routes: Vec::new(),
            delivered: VecDeque::new(),
            failed: VecDeque::new(),
            stats: NocStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &TorusConfig {
        &self.cfg
    }

    /// The current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether `node`'s injection port is free this cycle (a successful
    /// [`inject`](Self::inject) is guaranteed while this returns `true`).
    #[must_use]
    pub fn can_inject(&self, node: usize) -> bool {
        self.inject_busy[node] <= self.now
    }

    /// Injects a packet at `src` bound for `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if `src`'s injection port is still
    /// serializing an earlier packet; the caller retries next cycle.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn inject(
        &mut self,
        src: usize,
        dst: usize,
        payload_bytes: usize,
        payload: T,
    ) -> Result<(), InjectError> {
        assert!(src < self.cfg.nodes(), "src {src} out of range");
        assert!(dst < self.cfg.nodes(), "dst {dst} out of range");
        if self.inject_busy[src] > self.now {
            return Err(InjectError { node: src });
        }
        let flits = self.cfg.flits(payload_bytes);
        self.inject_busy[src] = self.now + flits;
        let uid = self.stats.packets;
        self.stats.packets += 1;
        self.stats.flits += flits;
        self.routes.push(self.route(self.cfg.coords(src), dst));
        self.flights.push(Flight {
            packet: Packet {
                src,
                dst,
                payload_bytes,
                payload,
                injected_at: self.now,
            },
            at: self.cfg.coords(src),
            ready_at: self.now + flits,
            flits,
            uid,
            attempt: 0,
            hops_done: 0,
            crc: crc32(&Self::header_bytes(src, dst, payload_bytes, uid)),
        });
        Ok(())
    }

    /// The serialized packet header the tail-flit CRC covers.
    fn header_bytes(src: usize, dst: usize, payload_bytes: usize, uid: u64) -> [u8; 32] {
        let mut h = [0u8; 32];
        h[0..8].copy_from_slice(&(src as u64).to_le_bytes());
        h[8..16].copy_from_slice(&(dst as u64).to_le_bytes());
        h[16..24].copy_from_slice(&(payload_bytes as u64).to_le_bytes());
        h[24..32].copy_from_slice(&uid.to_le_bytes());
        h
    }

    /// The next hop from router `at` toward node `dst`: the link out and
    /// the router it leads to, or `None` when `at` is `dst`.
    fn route(&self, at: (usize, usize), dst: usize) -> Option<(usize, (usize, usize))> {
        let (dir, next) = next_hop(at, self.cfg.coords(dst), (self.cfg.width, self.cfg.height))?;
        Some(((at.1 * self.cfg.width + at.0) * 4 + dir.index(), next))
    }

    /// Advances the network one cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        self.stats.elapsed_cycles = self.now;
        let mut i = 0;
        while i < self.flights.len() {
            if self.flights[i].ready_at > self.now {
                i += 1;
                continue;
            }
            match self.routes[i] {
                None => {
                    // Arrived: contend for the ejection port.
                    let node = self.flights[i].packet.dst;
                    if self.eject_busy[node] <= self.now {
                        self.eject_busy[node] = self.now + self.flights[i].flits;
                        self.routes.swap_remove(i);
                        let flight = self.flights.swap_remove(i);
                        self.stats.delivered += 1;
                        self.stats.total_latency_cycles += self.now - flight.packet.injected_at;
                        self.delivered.push_back((node, flight.packet));
                        continue; // do not advance i: swap_remove
                    }
                    i += 1;
                }
                Some((link, next)) => {
                    if self.link_busy[link] <= self.now {
                        let flits = self.flights[i].flits;
                        self.link_busy[link] = self.now + flits;
                        self.stats.link_busy_cycles += flits;
                        self.stats.hops += 1;
                        match self.link_fault(&self.flights[i]) {
                            None => {
                                let flight = &mut self.flights[i];
                                flight.hops_done += 1;
                                flight.at = next;
                                flight.ready_at = self.now + self.cfg.hop_latency;
                                let dst = flight.packet.dst;
                                self.routes[i] = self.route(next, dst);
                            }
                            Some(kind) => {
                                if self.retransmit_or_fail(i, kind) {
                                    continue; // flight failed: swap_remove
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        debug_assert!(
            (self.flights.iter().zip(&self.routes))
                .all(|(f, &r)| r == self.route(f.at, f.packet.dst)),
            "a cached route disagrees with its flight's position"
        );
    }

    /// Draws the fault outcome for the link traversal the flight just
    /// performed. One roll over `(uid, attempt ‖ hops_done)` is
    /// partitioned into corruption and drop bands, so outcomes are
    /// mutually exclusive, exactly calibrated, and independent of
    /// network load or tick ordering.
    fn link_fault(&self, flight: &Flight<T>) -> Option<LinkFault> {
        let f = self.cfg.faults?;
        let (corrupt, drop) = (u64::from(f.corrupt_ppm), u64::from(f.drop_ppm));
        if corrupt + drop == 0 {
            return None;
        }
        let key = (u64::from(flight.attempt) << 32) | flight.hops_done;
        let roll = fault_roll(f.seed, FaultDomain::NocFlit, flight.uid, key);
        if roll < corrupt {
            Some(LinkFault::Corrupt)
        } else if roll < corrupt + drop {
            Some(LinkFault::Drop)
        } else {
            None
        }
    }

    /// Handles a faulted link traversal for `flights[i]`: verifies the
    /// CRC actually catches a corruption, then either schedules a
    /// retransmission from the source (with exponential backoff) or —
    /// once the retry budget is spent — moves the packet to the failed
    /// queue. Returns `true` if the flight was removed (the caller must
    /// not advance its index).
    fn retransmit_or_fail(&mut self, i: usize, kind: LinkFault) -> bool {
        let f = self.cfg.faults.expect("fault cannot fire without a config");
        let flight = &self.flights[i];
        let key = (u64::from(flight.attempt) << 32) | flight.hops_done;
        match kind {
            LinkFault::Corrupt => {
                // Flip one bit of the header the tail-flit CRC covers;
                // the receiver recomputes and compares. A single-bit
                // error never aliases under CRC-32, so this always
                // detects — but the check is the model, not an axiom.
                let p = &flight.packet;
                let mut received = Self::header_bytes(p.src, p.dst, p.payload_bytes, flight.uid);
                let v = fault_value(f.seed, FaultDomain::NocFlit, flight.uid, key);
                received[(v as usize) % 32] ^= 1 << ((v >> 8) % 8);
                if crc32(&received) == flight.crc {
                    // Undetected corruption (unreachable for single-bit
                    // errors): the packet sails on, silently damaged.
                    self.flights[i].hops_done += 1;
                    return false;
                }
                self.stats.crc_detected += 1;
            }
            LinkFault::Drop => self.stats.dropped += 1,
        }
        if flight.attempt >= f.max_retries {
            self.stats.delivery_failures += 1;
            self.routes.swap_remove(i);
            let flight = self.flights.swap_remove(i);
            self.failed.push_back(flight.packet);
            return true;
        }
        self.stats.retries += 1;
        let backoff = f.backoff << flight.attempt.min(6);
        let flight = &mut self.flights[i];
        flight.attempt += 1;
        flight.hops_done = 0;
        flight.at = self.cfg.coords(flight.packet.src);
        // The backoff window models NAK/timeout detection plus the
        // go-back-to-source turnaround.
        flight.ready_at = self.now + self.cfg.hop_latency + backoff;
        let (at, dst) = (flight.at, flight.packet.dst);
        self.routes[i] = self.route(at, dst);
        false
    }

    /// First cycle at which `node`'s injection port frees up (equals a
    /// past cycle when it is already free).
    #[must_use]
    pub fn inject_ready_at(&self, node: usize) -> Cycle {
        self.inject_busy[node]
    }

    /// A sound lower bound on the next cycle any in-flight packet can
    /// make progress: its pipeline latency matures, or the link/ejection
    /// port it is blocked on frees up. `None` when nothing is in flight.
    ///
    /// Called after [`tick`](Self::tick); a flight processed this cycle
    /// is either waiting (`ready_at > now`) or was blocked by a busy
    /// resource whose free-time is strictly in the future.
    #[must_use]
    pub fn next_event(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        for (flight, route) in self.flights.iter().zip(&self.routes) {
            let c = if flight.ready_at > self.now {
                flight.ready_at
            } else {
                match route {
                    None => self.eject_busy[flight.packet.dst],
                    Some((link, _)) => self.link_busy[*link],
                }
            };
            let c = c.max(self.now + 1);
            next = Some(next.map_or(c, |n| n.min(c)));
        }
        next
    }

    /// Jumps the network clock to `to`. Callers must have established
    /// (via [`next_event`](Self::next_event)) that no flight can move on
    /// any skipped cycle; blocked movement attempts mutate nothing, so
    /// only the clock and its statistics mirror need updating.
    pub fn skip_to(&mut self, to: Cycle) {
        debug_assert!(to >= self.now);
        self.now = to;
        self.stats.elapsed_cycles = to;
    }

    /// Pops the oldest delivered packet, with the node it arrived at.
    pub fn pop_delivered(&mut self) -> Option<(usize, Packet<T>)> {
        self.delivered.pop_front()
    }

    /// Pops the oldest packet that exhausted its retransmission budget.
    /// The system surfaces these as typed delivery-failure errors.
    pub fn pop_failed(&mut self) -> Option<Packet<T>> {
        self.failed.pop_front()
    }

    /// Number of packets currently in flight (injected, neither
    /// delivered nor failed) — the hang watchdog reports this.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Wires (or removes) link-fault injection at runtime.
    pub fn set_faults(&mut self, faults: Option<NocFaultConfig>) {
        self.cfg.faults = faults;
    }

    /// Whether no packets are in flight (delivered-but-unpopped packets
    /// do not count).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.flights.is_empty()
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Hop distance between two nodes under this geometry.
    #[must_use]
    pub fn hops_between(&self, a: usize, b: usize) -> usize {
        hop_count(
            self.cfg.coords(a),
            self.cfg.coords(b),
            (self.cfg.width, self.cfg.height),
        )
    }
}

impl<T: Snapshot> Torus<T> {
    /// Serializes the network's mutable state: the clock, port/link busy
    /// times, every in-flight packet with its retransmission state, the
    /// delivered and failed queues, statistics, and the fault
    /// configuration.
    ///
    /// Flights are written in exact `Vec` order (retirement uses
    /// `swap_remove`, so the order is load-bearing for bit-identical
    /// replay).
    pub fn save_state(&self, w: &mut Writer) {
        w.u64(self.now);
        self.link_busy.save(w);
        self.inject_busy.save(w);
        self.eject_busy.save(w);
        self.flights.save(w);
        self.delivered.save(w);
        self.failed.save(w);
        self.stats.save(w);
        self.cfg.faults.save(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto a
    /// network freshly built with the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure or a geometry mismatch
    /// (busy-vector lengths disagreeing with this network's config).
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.now = r.u64()?;
        let link_busy: Vec<Cycle> = Vec::restore(r)?;
        let inject_busy: Vec<Cycle> = Vec::restore(r)?;
        let eject_busy: Vec<Cycle> = Vec::restore(r)?;
        if link_busy.len() != self.cfg.links()
            || inject_busy.len() != self.cfg.nodes()
            || eject_busy.len() != self.cfg.nodes()
        {
            return Err(SnapError::Corrupt("torus geometry mismatch"));
        }
        self.link_busy = link_busy;
        self.inject_busy = inject_busy;
        self.eject_busy = eject_busy;
        self.flights = Vec::restore(r)?;
        let (w, h, nodes) = (self.cfg.width, self.cfg.height, self.cfg.nodes());
        let off =
            |f: &Flight<T>| f.packet.src.max(f.packet.dst) >= nodes || f.at.0 >= w || f.at.1 >= h;
        if self.flights.iter().any(off) {
            return Err(SnapError::Corrupt("flight off the torus"));
        }
        self.routes = (self.flights.iter())
            .map(|f| self.route(f.at, f.packet.dst))
            .collect();
        self.delivered = VecDeque::restore(r)?;
        self.failed = VecDeque::restore(r)?;
        self.stats = NocStats::restore(r)?;
        self.cfg.faults = Option::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut Torus<u32>, limit: u64) -> Vec<(usize, Packet<u32>)> {
        let mut out = Vec::new();
        for _ in 0..limit {
            net.tick();
            while let Some(d) = net.pop_delivered() {
                out.push(d);
            }
            if net.is_idle() {
                break;
            }
        }
        assert!(net.is_idle(), "network did not drain in {limit} cycles");
        out
    }

    #[test]
    fn single_packet_latency_matches_hops() {
        let cfg = TorusConfig::vip();
        let mut net: Torus<u32> = Torus::new(cfg);
        // 0 -> 3 is 3 hops in +X.
        net.inject(0, 3, 32, 7).unwrap();
        let out = drain(&mut net, 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 3);
        let s = net.stats();
        assert_eq!(s.hops, 3);
        // serialization (1 header + 4 payload flits = 5) + 3 hops x 3 cycles.
        assert_eq!(s.total_latency_cycles, 5 + 9);
    }

    #[test]
    fn local_packet_skips_links() {
        let mut net: Torus<u32> = Torus::new(TorusConfig::vip());
        net.inject(5, 5, 8, 1).unwrap();
        let out = drain(&mut net, 50);
        assert_eq!(out[0].0, 5);
        assert_eq!(net.stats().hops, 0);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let cfg = TorusConfig::vip();
        // Two big packets from 0 and 1 both crossing link 1->2.
        let mut net: Torus<u32> = Torus::new(cfg);
        net.inject(0, 2, 64, 0).unwrap();
        net.inject(1, 2, 64, 1).unwrap();
        drain(&mut net, 200);
        let s = net.stats();
        assert_eq!(s.delivered, 2);
        // With contention, combined latency exceeds two isolated
        // transfers' latencies summed minus overlap: just check the link
        // busy accounting saw both packets on the shared segment.
        assert!(s.link_busy_cycles >= 2 * cfg.flits(64));
    }

    #[test]
    fn injection_port_backpressure() {
        let mut net: Torus<u32> = Torus::new(TorusConfig::vip());
        net.inject(0, 1, 256, 0).unwrap();
        assert!(net.inject(0, 2, 8, 1).is_err());
        // After the serialization window the port frees up.
        for _ in 0..40 {
            net.tick();
        }
        assert!(net.inject(0, 2, 8, 1).is_ok());
    }

    #[test]
    fn all_pairs_deliver() {
        let cfg = TorusConfig::vip();
        let mut net: Torus<u32> = Torus::new(cfg);
        let mut expected = 0;
        for src in 0..cfg.nodes() {
            for dst in 0..cfg.nodes() {
                // Stagger injections so ports are free.
                loop {
                    if net.inject(src, dst, 16, (src * 100 + dst) as u32).is_ok() {
                        break;
                    }
                    net.tick();
                }
                expected += 1;
            }
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), expected);
        for (node, pkt) in out {
            assert_eq!(node, pkt.dst);
            assert_eq!(pkt.payload, (pkt.src * 100 + pkt.dst) as u32);
        }
    }

    #[test]
    fn bandwidth_is_bounded_by_link_rate() {
        // Saturate one link: 0 -> 1, many packets. Each 32 B packet is 5
        // flits, so throughput <= 1 packet / 5 cycles.
        let mut net: Torus<u32> = Torus::new(TorusConfig::vip());
        let mut sent = 0;
        let mut received = 0;
        for _ in 0..1000 {
            if net.inject(0, 1, 32, sent).is_ok() {
                sent += 1;
            }
            net.tick();
            while net.pop_delivered().is_some() {
                received += 1;
            }
        }
        assert!(received > 100, "saturated link moved {received} packets");
        assert!(
            received <= 1000 / 5 + 1,
            "received {received} exceeds link capacity"
        );
    }

    fn faulty(corrupt_ppm: u32, drop_ppm: u32, max_retries: u32) -> TorusConfig {
        TorusConfig {
            faults: Some(vip_faults::NocFaultConfig {
                seed: 0x0c5e_ed11,
                corrupt_ppm,
                drop_ppm,
                max_retries,
                backoff: 4,
            }),
            ..TorusConfig::vip()
        }
    }

    #[test]
    fn corrupted_packets_retry_and_still_deliver() {
        // 20% per-traversal corruption with a generous retry budget:
        // every packet must still arrive, with retries on the books.
        let mut net: Torus<u32> = Torus::new(faulty(200_000, 0, 64));
        let mut sent = 0u32;
        for src in 0..net.config().nodes() {
            loop {
                if net.inject(src, (src + 9) % 32, 16, sent).is_ok() {
                    break;
                }
                net.tick();
            }
            sent += 1;
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), sent as usize);
        let s = net.stats();
        assert!(s.crc_detected > 0, "no corruption at 20%?");
        assert_eq!(s.retries, s.crc_detected);
        assert_eq!(s.delivery_failures, 0);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn dropped_flits_also_retry() {
        let mut net: Torus<u32> = Torus::new(faulty(0, 200_000, 64));
        for src in 0..8 {
            net.inject(src, src + 16, 16, src as u32).unwrap();
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), 8);
        let s = net.stats();
        assert!(s.dropped > 0);
        assert_eq!(s.retries, s.dropped);
        assert_eq!(s.crc_detected, 0);
    }

    #[test]
    fn exhausted_retry_budget_fails_delivery() {
        // Certain corruption on every traversal with a 2-retry budget:
        // any multi-hop packet is abandoned after 3 attempts.
        let mut net: Torus<u32> = Torus::new(faulty(1_000_000, 0, 2));
        net.inject(0, 5, 16, 42).unwrap();
        for _ in 0..500 {
            net.tick();
        }
        assert!(net.is_idle());
        assert!(net.pop_delivered().is_none());
        let failed = net.pop_failed().expect("packet abandoned");
        assert_eq!((failed.src, failed.dst, failed.payload), (0, 5, 42));
        let s = net.stats();
        assert_eq!(s.delivery_failures, 1);
        assert_eq!(s.retries, 2);
        assert_eq!(s.crc_detected, 3, "initial attempt + 2 retries");
    }

    #[test]
    fn local_delivery_never_faults() {
        // src == dst traverses no link, so even certain corruption
        // cannot touch it.
        let mut net: Torus<u32> = Torus::new(faulty(1_000_000, 0, 0));
        net.inject(9, 9, 8, 7).unwrap();
        let out = drain(&mut net, 50);
        assert_eq!(out[0].1.payload, 7);
        assert_eq!(net.stats().delivery_failures, 0);
    }

    #[test]
    fn zero_rate_wired_is_bit_identical_to_unwired() {
        let run = |cfg: TorusConfig| {
            let mut net: Torus<u32> = Torus::new(cfg);
            for src in 0..cfg.nodes() {
                loop {
                    if net.inject(src, (src * 7 + 3) % 32, 24, src as u32).is_ok() {
                        break;
                    }
                    net.tick();
                }
            }
            let out = drain(&mut net, 100_000);
            (out, net.stats())
        };
        assert_eq!(run(TorusConfig::vip()), run(faulty(0, 0, 4)));
    }

    #[test]
    fn retransmissions_are_deterministic() {
        let run = || {
            let mut net: Torus<u32> = Torus::new(faulty(150_000, 50_000, 32));
            for src in 0..16 {
                net.inject(src, 31 - src, 16, src as u32).unwrap();
            }
            let out = drain(&mut net, 100_000);
            (
                out.iter().map(|(n, p)| (*n, p.payload)).collect::<Vec<_>>(),
                net.stats(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_roundtrip_mid_flight_replays_bit_identically() {
        // Run a faulted network halfway, snapshot with packets in flight
        // (including mid-retry state), restore onto a fresh network, and
        // check the two finish with identical deliveries and stats.
        let cfg = faulty(150_000, 50_000, 32);
        let mut net: Torus<u32> = Torus::new(cfg);
        for src in 0..16 {
            net.inject(src, 31 - src, 16, src as u32).unwrap();
        }
        for _ in 0..20 {
            net.tick();
        }
        assert!(!net.is_idle(), "want in-flight packets at the snapshot");

        let mut w = Writer::new();
        net.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut twin: Torus<u32> = Torus::new(cfg);
        let mut r = Reader::new(&bytes);
        twin.restore_state(&mut r).unwrap();
        r.finish().unwrap();

        let finish = |net: &mut Torus<u32>| {
            let out = drain(net, 100_000);
            (
                out.iter().map(|(n, p)| (*n, p.payload)).collect::<Vec<_>>(),
                net.stats(),
            )
        };
        assert_eq!(finish(&mut net), finish(&mut twin));
    }

    /// The walk before routes were cached: every ready flight is routed
    /// from scratch, every cycle it is looked at. (`routes` is only kept
    /// as long as `flights`: `retransmit_or_fail` writes it.)
    fn reference_tick<T>(net: &mut Torus<T>) {
        net.now += 1;
        net.stats.elapsed_cycles = net.now;
        let dims = (net.cfg.width, net.cfg.height);
        let mut i = 0;
        while i < net.flights.len() {
            if net.flights[i].ready_at > net.now {
                i += 1;
                continue;
            }
            let at = net.flights[i].at;
            let dst = net.cfg.coords(net.flights[i].packet.dst);
            match next_hop(at, dst, dims) {
                None => {
                    let node = net.flights[i].packet.dst;
                    if net.eject_busy[node] <= net.now {
                        net.eject_busy[node] = net.now + net.flights[i].flits;
                        net.routes.swap_remove(i);
                        let flight = net.flights.swap_remove(i);
                        net.stats.delivered += 1;
                        net.stats.total_latency_cycles += net.now - flight.packet.injected_at;
                        net.delivered.push_back((node, flight.packet));
                        continue;
                    }
                    i += 1;
                }
                Some((dir, next)) => {
                    let link = (at.1 * net.cfg.width + at.0) * 4 + dir.index();
                    if net.link_busy[link] <= net.now {
                        let flits = net.flights[i].flits;
                        net.link_busy[link] = net.now + flits;
                        net.stats.link_busy_cycles += flits;
                        net.stats.hops += 1;
                        match net.link_fault(&net.flights[i]) {
                            None => {
                                net.flights[i].hops_done += 1;
                                net.flights[i].at = next;
                                net.flights[i].ready_at = net.now + net.cfg.hop_latency;
                            }
                            Some(kind) => {
                                if net.retransmit_or_fail(i, kind) {
                                    continue;
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
    }

    /// `next_event` as it was before routes were cached.
    fn reference_next_event<T>(net: &Torus<T>) -> Option<Cycle> {
        let dims = (net.cfg.width, net.cfg.height);
        let bound = |flight: &Flight<T>| {
            let c = if flight.ready_at > net.now {
                flight.ready_at
            } else {
                match next_hop(flight.at, net.cfg.coords(flight.packet.dst), dims) {
                    None => net.eject_busy[flight.packet.dst],
                    Some((dir, _)) => {
                        let node = flight.at.1 * net.cfg.width + flight.at.0;
                        net.link_busy[node * 4 + dir.index()]
                    }
                }
            };
            c.max(net.now + 1)
        };
        net.flights.iter().map(bound).min()
    }

    #[test]
    fn cached_routes_walk_like_routing_every_cycle() {
        // Seeded bursts between random nodes with link faults on (every
        // retransmission re-routes from the source), random clock skips
        // to one short of the next event, and a mid-run restore of the
        // routed network onto a used one: the deliveries, failures, next
        // event and state bytes must match the reference walk every cycle.
        let label = "cached_routes_walk_like_routing_every_cycle";
        vip_rng::for_each_seed(label, 0x70_05, 6, |seed| {
            let mut rng = vip_rng::SplitMix64::new(seed);
            let cfg = faulty(60_000, 40_000, 1 + rng.below(4) as u32);
            let (mut routed, mut reference) = (Torus::<u64>::new(cfg), Torus::<u64>::new(cfg));
            let bytes = |net: &Torus<u64>| {
                let mut w = Writer::new();
                net.save_state(&mut w);
                w.into_bytes()
            };
            for cycle in 0..4_000u64 {
                for _ in 0..rng.below(6) {
                    let (src, dst) = (rng.usize_in(0..32), rng.usize_in(0..32));
                    let len = rng.usize_in(0..80);
                    let want = reference.inject(src, dst, len, cycle).is_ok();
                    assert_eq!(routed.inject(src, dst, len, cycle).is_ok(), want);
                }
                if cycle == 1_500 {
                    // Onto a network holding a flight (and route) of its own.
                    let mut used = Torus::new(cfg);
                    used.inject(0, 20, 64, 0).unwrap();
                    used.tick();
                    let image = bytes(&routed);
                    used.restore_state(&mut Reader::new(&image)).unwrap();
                    routed = used;
                }
                routed.tick();
                reference_tick(&mut reference);
                let next = reference_next_event(&reference);
                assert_eq!(routed.next_event(), next, "cycle {cycle}");
                if let Some(next) = next.filter(|_| rng.below(8) == 0) {
                    routed.skip_to(next - 1);
                    reference.skip_to(next - 1);
                }
                while let Some(want) = reference.pop_delivered() {
                    assert_eq!(routed.pop_delivered(), Some(want), "cycle {cycle}");
                }
                while let Some(want) = reference.pop_failed() {
                    assert_eq!(routed.pop_failed(), Some(want), "cycle {cycle}");
                }
                assert!(bytes(&routed) == bytes(&reference), "cycle {cycle}: bytes");
            }
            let stats = routed.stats();
            assert!(stats.delivered > 1_000 && stats.retries > 0 && stats.delivery_failures > 0);
        });
    }

    #[test]
    fn restore_rejects_a_flight_off_the_torus() {
        // Routes are rebuilt at restore, so a flight whose destination or
        // position lies outside the geometry is refused there, typed.
        let corruptions: [fn(&mut Flight<u32>); 2] = [|f| f.packet.dst = 32, |f| f.at = (8, 0)];
        for corrupt in corruptions {
            let mut net: Torus<u32> = Torus::new(TorusConfig::vip());
            net.inject(0, 5, 16, 1).unwrap();
            corrupt(&mut net.flights[0]);
            let mut w = Writer::new();
            net.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut fresh: Torus<u32> = Torus::new(TorusConfig::vip());
            assert_eq!(
                fresh.restore_state(&mut Reader::new(&bytes)),
                Err(SnapError::Corrupt("flight off the torus"))
            );
        }
    }

    #[test]
    fn neighbor_traffic_is_one_hop() {
        let net: Torus<u32> = Torus::new(TorusConfig::vip());
        assert_eq!(net.hops_between(0, 1), 1);
        assert_eq!(net.hops_between(0, 8), 1);
        assert_eq!(net.hops_between(0, 7), 1); // wrap in X
        assert_eq!(net.hops_between(0, 24), 1); // wrap in Y
        assert_eq!(net.hops_between(0, 12), 5); // (4,1): 4 hops in X + 1 in Y
        assert_eq!(net.hops_between(0, 20), 6); // (4,2): the farthest node
    }
}

//! Seeded request workloads: what arrives, when, and how eagerly.
//!
//! A [`Workload`] is a weighted mix of [`TileClass`]es plus a load
//! mode. Everything downstream of the seed is deterministic — class
//! draws, inter-arrival gaps, and think times all come from dedicated
//! [`SplitMix64`] streams, so the same seed always produces the same
//! request trace regardless of fleet size or host thread count.

use vip_rng::SplitMix64;

use vip_kernels::tile::TileClass;

/// One entry in the request mix.
#[derive(Debug, Clone, Copy)]
pub struct MixEntry {
    /// The tile class this entry issues.
    pub class: TileClass,
    /// Relative draw weight.
    pub weight: u32,
    /// Priority class: 0 = interactive (may preempt), 1 = batch.
    pub priority: u8,
}

/// How load is offered to the fleet.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Open loop: arrivals on an independent clock, uniform gaps with
    /// the given mean (cycles). Rejected requests are lost.
    Open {
        /// Mean inter-arrival gap in device cycles.
        mean_gap: u64,
    },
    /// Closed loop: `clients` concurrent clients, each thinking a
    /// uniform `0..=2*think` cycles between completion and its next
    /// request. Rejected requests back off and retry.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Mean think time in device cycles.
        think: u64,
    },
}

/// A complete seeded workload description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Seed for every stream the workload derives.
    pub seed: u64,
    /// Total requests to issue before the trace ends.
    pub requests: usize,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Weighted class mix (must be non-empty).
    pub mix: Vec<MixEntry>,
}

impl Workload {
    /// The standard serving mix: interactive fc and conv tiles
    /// dominating, with occasional long BP batch jobs to exercise
    /// preemption.
    #[must_use]
    pub fn standard_mix() -> Vec<MixEntry> {
        vec![
            MixEntry {
                class: TileClass::Mlp {
                    inputs: 2048,
                    outputs: 64,
                },
                weight: 6,
                priority: 0,
            },
            MixEntry {
                class: TileClass::Cnn {
                    in_channels: 4,
                    out_channels: 8,
                    filters_per_group: 8,
                },
                weight: 3,
                priority: 0,
            },
            MixEntry {
                class: TileClass::Bp {
                    width: 64,
                    height: 32,
                    labels: 16,
                    iters: 1,
                },
                weight: 1,
                priority: 1,
            },
        ]
    }

    /// A smaller mix for tests and `--quick` runs (BP at the minimum
    /// 32×32 grid the 4-PE strip alignment allows).
    #[must_use]
    pub fn small_mix() -> Vec<MixEntry> {
        vec![
            MixEntry {
                class: TileClass::Mlp {
                    inputs: 512,
                    outputs: 32,
                },
                weight: 6,
                priority: 0,
            },
            MixEntry {
                class: TileClass::Cnn {
                    in_channels: 4,
                    out_channels: 8,
                    filters_per_group: 8,
                },
                weight: 3,
                priority: 0,
            },
            MixEntry {
                class: TileClass::Bp {
                    width: 32,
                    height: 32,
                    labels: 16,
                    iters: 1,
                },
                weight: 1,
                priority: 1,
            },
        ]
    }

    /// Draws the class and priority of request number `id` — a pure
    /// function of the seed and `id`, so open and closed loops (and
    /// retries) agree on what each request is.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or entirely zero-weighted.
    #[must_use]
    pub fn draw(&self, id: u64) -> MixEntry {
        assert!(!self.mix.is_empty(), "workload mix is empty");
        let total: u32 = self.mix.iter().map(|e| e.weight).sum();
        assert!(total > 0, "workload mix has zero total weight");
        let mut rng =
            SplitMix64::new(self.seed ^ 0x006d_6978 ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut pick = rng.below(u64::from(total)) as u32;
        for entry in &self.mix {
            if pick < entry.weight {
                return *entry;
            }
            pick -= entry.weight;
        }
        unreachable!("weighted draw out of range")
    }

    /// The arrival RNG stream (open loop), seeded independently of the
    /// class-draw streams.
    #[must_use]
    pub fn arrival_rng(&self) -> SplitMix64 {
        SplitMix64::new(self.seed ^ 0x6172_7269_7665)
    }

    /// Client `c`'s think-time RNG stream (closed loop).
    #[must_use]
    pub fn think_rng(&self, client: usize) -> SplitMix64 {
        SplitMix64::new(self.seed ^ 0x0074_6869_6e6b ^ ((client as u64) << 40))
    }
}

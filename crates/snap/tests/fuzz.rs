//! Decoder fuzzing: no input — truncated, bit-flipped, spliced, or
//! extended — may ever panic the codec or provoke an unbounded
//! allocation. Every failure is a typed [`SnapError`]; journal scans
//! additionally degrade to a clean torn-tail truncation.
//!
//! The corpus is seeded and structured: realistic fleet-checkpoint-like
//! values (nested containers, strings, optional blobs) and multi-frame
//! journal segments, mutated deterministically so a failing seed
//! reproduces with `VIP_TEST_SEED`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use vip_rng::{for_each_seed, seed_override, SplitMix64};
use vip_snap::{
    frame, journal_header, read_header, read_journal_header, scan_frames, snapshot_enum,
    snapshot_struct, write_header, Reader, SnapError, Snapshot, Writer, FRAME_OVERHEAD,
    JOURNAL_HEADER_LEN,
};

/// Counts every mutated input the suite pushes through a decoder, so the
/// "≥ 1000 mutated inputs, zero panics" contract is asserted rather than
/// assumed.
static MUTATIONS: AtomicU64 = AtomicU64::new(0);

/// How a job's last slice ended — every variant shape the enum macro
/// takes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum End {
    Done,
    Failed(u8, bool),
    Rejected { depth: usize, waited: u64 },
}

snapshot_enum!(End, "slice end tag" {
    0 => Done,
    1 => Failed(class, induced),
    2 => Rejected { depth, waited },
});

/// A checkpoint-shaped value exercising every codec construct: nested
/// containers, strings, optional byte blobs, tuples, fixed arrays, and
/// both declaration macros.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Job {
    id: u64,
    key: String,
    attempts: u8,
    snapshot: Option<Vec<u8>>,
    trail: Vec<u16>,
    end: End,
}

snapshot_struct!(Job {
    id,
    key,
    attempts,
    snapshot,
    trail,
    end
});

#[derive(Debug, Clone, PartialEq, Eq)]
struct FleetImage {
    seq: u64,
    queues: [VecDeque<u64>; 2],
    jobs: Vec<Job>,
    flags: Vec<bool>,
    blob: Vec<u8>,
    pairs: Vec<(u64, bool)>,
}

snapshot_struct!(FleetImage {
    seq,
    queues,
    jobs,
    flags,
    blob,
    pairs
});

fn random_image(rng: &mut SplitMix64) -> FleetImage {
    let job = |rng: &mut SplitMix64| Job {
        id: rng.next_u64(),
        key: format!("mlp-{}x{}", rng.below(4096), rng.below(512)),
        attempts: rng.next_u64() as u8,
        snapshot: if rng.bool() {
            let n = rng.usize_in(0..64);
            Some(rng.bytes(n))
        } else {
            None
        },
        trail: (0..rng.usize_in(0..6))
            .map(|_| rng.next_u64() as u16)
            .collect(),
        end: match rng.below(3) {
            0 => End::Done,
            1 => End::Failed(rng.next_u64() as u8, rng.bool()),
            _ => End::Rejected {
                depth: rng.usize_in(0..64),
                waited: rng.next_u64(),
            },
        },
    };
    FleetImage {
        seq: rng.next_u64(),
        queues: [
            (0..rng.usize_in(0..8)).map(|_| rng.next_u64()).collect(),
            (0..rng.usize_in(0..8)).map(|_| rng.next_u64()).collect(),
        ],
        jobs: (0..rng.usize_in(1..8)).map(|_| job(rng)).collect(),
        flags: (0..rng.usize_in(0..16)).map(|_| rng.bool()).collect(),
        blob: {
            let n = rng.usize_in(0..128);
            rng.bytes(n)
        },
        pairs: (0..rng.usize_in(0..5))
            .map(|_| (rng.next_u64(), rng.bool()))
            .collect(),
    }
}

fn encode(image: &FleetImage, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, fingerprint);
    image.save(&mut w);
    w.into_bytes()
}

/// Full decode path for a checkpoint buffer, including the final
/// whole-buffer-consumed check — the decoder the mutations attack.
fn decode(buf: &[u8], fingerprint: u64) -> Result<FleetImage, SnapError> {
    let mut r = Reader::new(buf);
    read_header(&mut r, fingerprint)?;
    let image = FleetImage::restore(&mut r)?;
    r.finish()?;
    Ok(image)
}

/// Decodes a mutated buffer and demands totality: a typed error or a
/// structurally valid value, never a panic (a panic fails the test and
/// `for_each_seed` prints the reproducing seed).
fn assert_total(buf: &[u8], fingerprint: u64) {
    MUTATIONS.fetch_add(1, Ordering::Relaxed);
    match decode(buf, fingerprint) {
        Ok(_) | Err(_) => {}
    }
}

fn flip_bits(rng: &mut SplitMix64, buf: &mut [u8], flips: usize) {
    for _ in 0..flips {
        let bit = rng.usize_in(0..buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn mutated_checkpoints_never_panic_the_decoder() {
    for_each_seed("snap-fuzz-ckpt", 0x5eed, 40, |seed| {
        let mut rng = SplitMix64::new(seed);
        let fingerprint = rng.next_u64();
        let image = random_image(&mut rng);
        let buf = encode(&image, fingerprint);
        assert_eq!(decode(&buf, fingerprint).as_ref(), Ok(&image));

        // Truncations at random offsets, plus the empty buffer.
        assert_total(&[], fingerprint);
        for _ in 0..10 {
            let cut = rng.usize_in(0..buf.len());
            let r = decode(&buf[..cut], fingerprint);
            assert_ne!(r, Ok(image.clone()), "truncation decoded to the original");
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
        }

        // Bit flips, 1..=4 at a time.
        for round in 0..12 {
            let mut m = buf.clone();
            flip_bits(&mut rng, &mut m, 1 + round % 4);
            assert_total(&m, fingerprint);
        }

        // Splices: a random region overwritten with random bytes — the
        // classic way a length prefix becomes absurd. The guarded
        // decoder must reject it with a typed error before reserving.
        for _ in 0..5 {
            let mut m = buf.clone();
            let at = rng.usize_in(0..m.len());
            let n = rng.usize_in(1..9).min(m.len() - at);
            let junk = rng.bytes(n);
            m[at..at + n].copy_from_slice(&junk);
            assert_total(&m, fingerprint);
        }

        // Extensions: appended garbage must surface as TrailingBytes
        // (or an earlier typed error if the tail got consumed).
        for _ in 0..3 {
            let mut m = buf.clone();
            let n = rng.usize_in(1..16);
            m.extend_from_slice(&rng.bytes(n));
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
            assert!(decode(&m, fingerprint).is_err(), "trailing bytes accepted");
        }
    });
}

#[test]
fn absurd_length_prefixes_fail_before_any_reservation() {
    // Hand-build buffers whose only defect is a huge element count and
    // make sure the typed rejection arrives immediately — the decoder
    // must never trust a length prefix further than the bytes on hand.
    for_each_seed("snap-fuzz-len", 0x1e9, 16, |seed| {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            let mut w = Writer::new();
            w.u64(rng.next_u64() | (1 << 40)); // length ≥ 2^40
            let pad = rng.usize_in(0..32);
            w.raw(&rng.bytes(pad));
            let buf = w.into_bytes();
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
            let mut r = Reader::new(&buf);
            assert!(matches!(
                Vec::<u8>::restore(&mut r),
                Err(SnapError::Truncated { .. })
            ));
            let mut r = Reader::new(&buf);
            assert!(matches!(
                VecDeque::<u64>::restore(&mut r),
                Err(SnapError::Truncated { .. })
            ));
            let mut r = Reader::new(&buf);
            assert!(matches!(
                String::restore(&mut r),
                Err(SnapError::Truncated { .. })
            ));
            // The shapes that used to clamp their reservation instead
            // of checking the count: a list of declared structs (torus
            // flights, parked jobs), the delivered queue's pairs, a
            // sorted map's entries (LSU ops, the fleet's client map),
            // and the bare count a hand-written loop starts from (the
            // fleet's event heap, a PE's program).
            let mut r = Reader::new(&buf);
            assert!(matches!(
                Vec::<Job>::restore(&mut r),
                Err(SnapError::Truncated { .. })
            ));
            let mut r = Reader::new(&buf);
            assert!(matches!(
                VecDeque::<(usize, Job)>::restore(&mut r),
                Err(SnapError::Truncated { .. })
            ));
            let mut r = Reader::new(&buf);
            assert!(matches!(
                Vec::<(u64, End)>::restore(&mut r),
                Err(SnapError::Truncated { .. })
            ));
            let mut r = Reader::new(&buf);
            assert!(matches!(r.count(), Err(SnapError::Truncated { .. })));
        }
    });
}

#[test]
fn mutated_journals_scan_to_a_clean_prefix() {
    for_each_seed("snap-fuzz-journal", 0x10e, 24, |seed| {
        let mut rng = SplitMix64::new(seed);
        let fingerprint = rng.next_u64();
        let payloads: Vec<Vec<u8>> = (0..rng.usize_in(1..10))
            .map(|_| {
                let n = rng.usize_in(0..48);
                rng.bytes(n)
            })
            .collect();
        let mut seg = journal_header(fingerprint);
        for p in &payloads {
            seg.extend_from_slice(&frame(p));
        }
        let body = read_journal_header(&seg, fingerprint).unwrap();
        {
            let scan = scan_frames(&seg[body..]);
            assert!(!scan.torn);
            assert_eq!(
                scan.frames,
                payloads.iter().map(Vec::as_slice).collect::<Vec<_>>()
            );
        }

        // Truncation anywhere: the scan keeps whole frames only, the
        // valid prefix re-scans identically, and nothing panics.
        for _ in 0..12 {
            let cut = rng.usize_in(body..seg.len() + 1);
            let scan = scan_frames(&seg[body..cut]);
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
            assert!(scan.frames.len() <= payloads.len());
            for (got, want) in scan.frames.iter().zip(&payloads) {
                assert_eq!(*got, want.as_slice(), "scan returned a corrupt frame");
            }
            // Torn-tail rule: truncating to the valid prefix yields the
            // same frames with no tear.
            let again = scan_frames(&seg[body..body + scan.valid_len]);
            assert!(!again.torn);
            assert_eq!(again.frames, scan.frames);
        }

        // Bit flips: every intact frame returned is a byte-exact prefix
        // of the original list — a flipped frame can only tear the
        // journal, never smuggle altered bytes past the CRC.
        for round in 0..12 {
            let mut m = seg[body..].to_vec();
            flip_bits(&mut rng, &mut m, 1 + round % 3);
            let scan = scan_frames(&m);
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
            for (i, got) in scan.frames.iter().enumerate() {
                if m[..scan.valid_len] == seg[body..body + scan.valid_len] {
                    assert_eq!(*got, payloads[i].as_slice());
                }
            }
        }

        // Header mutations are typed errors, never panics.
        for _ in 0..6 {
            let mut m = seg.clone();
            flip_bits(&mut rng, &mut m[..JOURNAL_HEADER_LEN], 1);
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
            assert!(read_journal_header(&m, fingerprint).is_err());
        }

        // A frame length prefix spliced to an absurd value cannot make
        // the scanner read past the buffer.
        if let Some(first) = payloads.first() {
            let mut m = seg[body..].to_vec();
            m[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
            let scan = scan_frames(&m);
            MUTATIONS.fetch_add(1, Ordering::Relaxed);
            assert!(scan.frames.is_empty());
            assert!(scan.torn);
            assert_eq!(scan.valid_len, 0);
            let _ = (first, FRAME_OVERHEAD);
        }
    });
}

#[test]
fn fuzz_volume_meets_the_contract() {
    // The acceptance bar is ≥ 1000 mutated inputs with zero panics.
    // This test observes the counter after the other tests in this
    // binary ran; under a VIP_TEST_SEED override the range narrows by
    // design, so the floor only applies to full runs.
    if seed_override().is_some() {
        return;
    }
    // Run the suites in-process (tests may execute in any order across
    // threads, so recount deterministically here instead of relying on
    // sibling tests having finished).
    mutated_checkpoints_never_panic_the_decoder();
    absurd_length_prefixes_fail_before_any_reservation();
    mutated_journals_scan_to_a_clean_prefix();
    let total = MUTATIONS.load(Ordering::Relaxed);
    assert!(total >= 1000, "only {total} mutated inputs were exercised");
}

//! Peak heap of the durable serving path: a whole-fleet checkpoint is
//! held once — encoded in place into one buffer, written as its frame
//! head and then that buffer, and freed on resume once the fleet is
//! restored from it.
//!
//! A counting global allocator measures the live heap. The session is
//! the benchmark's durable chaos session (four devices, 5 000-cycle
//! slices, 16 closed-loop clients, chaos at its default rates, a fleet
//! checkpoint every 32 settled events), crashed every 16 events and
//! resumed. Each resumed segment restores the checkpoint the last one
//! left and, every other segment, writes the next. No segment may hold
//! two checkpoint-sized buffers at once, and the live heap it adds must
//! stay within the fleet's live state (the same session served in
//! memory, at its largest) plus one checkpoint, plus 25 %. A second
//! copy of a checkpoint anywhere on that path breaks one or the other.
//!
//! This file is its own test binary with one test, so nothing else
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use vip_serve::{
    run_dir, serve, serve_durable, serve_durable_interrupted, ChaosConfig, Engine, LoadMode,
    PointStore, ServeConfig, Workload,
};

/// Blocks of this size or more are checkpoint-sized: every fleet
/// checkpoint of the session is (asserted below), and the rest of the
/// fleet's state lives in smaller blocks (pages, queues, one device
/// image at a time).
const CHECKPOINT_SIZED: usize = 1 << 20;

/// Live bytes and live checkpoint-sized blocks, the highest of each
/// since the last [`peak_during`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static BIG: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static PEAK_BIG: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    if bytes >= CHECKPOINT_SIZED {
        let big = BIG.fetch_add(1, Relaxed) + 1;
        PEAK_BIG.fetch_max(big, Relaxed);
    }
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    if bytes >= CHECKPOINT_SIZED {
        BIG.fetch_sub(1, Relaxed);
    }
    LIVE.fetch_sub(bytes, Relaxed);
}

/// Forwards every call to the system allocator and counts live bytes.
struct Counting;

// The one `unsafe`: `GlobalAlloc` is an unsafe trait; every method only
// forwards to `System` with the caller's own arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a call added to the live heap at its highest, and the most
/// checkpoint-sized blocks it held at once.
#[derive(Debug, Clone, Copy)]
struct Peak {
    live: usize,
    big: usize,
}

/// Runs `f` and returns its result with the peak it added above the
/// live heap when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, Peak) {
    let (base, base_big) = (LIVE.load(Relaxed), BIG.load(Relaxed));
    PEAK.store(base, Relaxed);
    PEAK_BIG.store(base_big, Relaxed);
    let out = f();
    let live = PEAK.load(Relaxed) - base;
    let big = PEAK_BIG.load(Relaxed) - base_big;
    (out, Peak { live, big })
}

/// Settled events between two checkpoints, and between two crashes.
const CHECKPOINT_EVERY: u64 = 32;
const CRASH_EVERY: u64 = 16;
const FP: u64 = 0x6865_6170_0000_0001;

fn session() -> (ServeConfig, Workload) {
    let cfg = ServeConfig {
        devices: 4,
        quantum: 5_000,
        engine: Engine::Fast,
        schedule_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schedules"),
        chaos: Some(ChaosConfig::default_rates(7)),
        ..ServeConfig::default()
    };
    let workload = Workload {
        seed: 7,
        requests: 32,
        mode: LoadMode::Closed {
            clients: 16,
            think: 20_000,
        },
        mix: Workload::standard_mix(),
    };
    (cfg, workload)
}

/// The payload length of the checkpoint on disk, if there is one.
fn checkpoint_len(root: &Path) -> Option<usize> {
    let files = std::fs::read_dir(run_dir(root, FP)).ok()?;
    files
        .flatten()
        .find(|f| f.path().extension().is_some_and(|ext| ext == "ckpt"))
        .and_then(|f| f.metadata().ok())
        .map(|meta| meta.len() as usize - vip_snap::FRAME_OVERHEAD)
}

fn finished(root: &Path) -> bool {
    let dir = run_dir(root, FP);
    std::fs::read_dir(dir).is_ok_and(|files| {
        files
            .flatten()
            .any(|f| f.path().extension().is_some_and(|ext| ext == "done"))
    })
}

#[test]
fn a_durable_segment_holds_one_checkpoint_at_a_time() {
    let (cfg, workload) = session();
    // The fleet's live state at its largest: the same session served in
    // memory, nothing persisted.
    let (want, state) = peak_during(|| serve(&cfg, &workload));
    assert_eq!(state.big, 0, "the in-memory session holds no checkpoint");
    let state = state.live;

    let root: PathBuf =
        std::env::temp_dir().join(format!("vip-ckpt-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut segments = Vec::new();
    let mut stop = 0;
    while !finished(&root) {
        stop += CRASH_EVERY;
        let loaded = checkpoint_len(&root).unwrap_or(0);
        let mut store = PointStore::open(&root, 0, FP).expect("open point store");
        let (ran, peak) = peak_during(|| {
            serve_durable_interrupted(&cfg, &workload, &mut store, CHECKPOINT_EVERY, stop)
        });
        ran.expect("durable segment");
        drop(store);
        let written = checkpoint_len(&root).unwrap_or(0);
        segments.push((stop, peak, loaded.max(written)));
    }
    let mut store = PointStore::open(&root, 0, FP).expect("open point store");
    let got = serve_durable(&cfg, &workload, &mut store, CHECKPOINT_EVERY).expect("done-record");
    assert!(
        got == want,
        "the resumed session served a different outcome"
    );
    let _ = std::fs::remove_dir_all(&root);

    let checkpoints: Vec<usize> = segments.iter().map(|s| s.2).filter(|&c| c > 0).collect();
    assert!(
        checkpoints.len() >= 4 && checkpoints.iter().all(|&c| c >= CHECKPOINT_SIZED),
        "expected checkpoint-sized checkpoints in most segments: {segments:?}"
    );
    for &(stop, peak, ckpt) in &segments {
        assert!(
            peak.big <= 1,
            "the segment ending at event {stop} held {} checkpoint-sized buffers at once",
            peak.big
        );
        let bound = (state + ckpt) * 5 / 4;
        assert!(
            peak.live <= bound,
            "the segment ending at event {stop} peaked at {} B of live heap: over {bound} B, \
             the fleet's {state} B of live state plus one {ckpt} B checkpoint plus 25 %",
            peak.live
        );
    }
}

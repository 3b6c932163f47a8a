//! The one timing tile (`vip_kernels::tile`): what its program cache
//! may share, what `stage` promises a restored fleet, and how it treats
//! a schedule artifact — a file from outside the program, which may be
//! rejected but must never panic a stager. Tier-1 runs this in debug;
//! CI also runs it in `--release`, where unchecked arithmetic wraps
//! instead of trapping and a hostile value reaches different code.

use std::path::{Path, PathBuf};

use vip_core::{Engine, SystemConfig};
use vip_kernels::bp::VectorMachineStyle;
use vip_kernels::cache::ProgramCache;
use vip_kernels::schedule::{
    BpSchedule, BpSearchSpace, ConvSchedule, ConvSearchSpace, FcSchedule, FcSearchSpace, Schedule,
    ScheduleError, SearchSpace,
};
use vip_kernels::schedule_store as store;
use vip_kernels::tile::{StagedJob, TileClass};
use vip_rng::SplitMix64;

const MLP: TileClass = TileClass::Mlp {
    inputs: 2048,
    outputs: 64,
};
const MLP_SMALL: TileClass = TileClass::Mlp {
    inputs: 512,
    outputs: 32,
};
const MLP_LARGE: TileClass = TileClass::Mlp {
    inputs: 2048,
    outputs: 256,
};
const CNN: TileClass = TileClass::Cnn {
    in_channels: 4,
    out_channels: 8,
    filters_per_group: 8,
};
const BP: TileClass = TileClass::Bp {
    width: 64,
    height: 32,
    labels: 16,
    iters: 1,
};
const BP_SMALL: TileClass = bp_small(1);

const fn bp_small(iters: usize) -> TileClass {
    TileClass::Bp {
        width: 32,
        height: 32,
        labels: 16,
        iters,
    }
}

/// The classes of `vip_serve::Workload::{standard_mix, small_mix}`
/// (which this crate cannot name: `vip-serve` depends on it).
const MIX_CLASSES: [TileClass; 5] = [MLP, CNN, BP, MLP_SMALL, BP_SMALL];

fn vault() -> SystemConfig {
    SystemConfig::small_test()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-tile-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The checked-in artifacts (one of them, BP 64×32×16, is not the
/// default schedule).
fn checked_in() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schedules")
}

/// Loads and runs a staged tile; returns its cycle count and what its
/// reader reads back.
fn finish(job: &mut StagedJob) -> (u64, Vec<Vec<u8>>) {
    job.load_programs();
    let cycles = Engine::Fast
        .run(&mut job.sys, job.limit)
        .expect("tile quiesces");
    (cycles, job.reader.read(job.sys.hmc()))
}

/// (a) Two BP classes that differ only in iteration count must not
/// share cached programs.
#[test]
fn iteration_count_is_part_of_the_program_cache_key() {
    let (cfg, dir) = (vault(), scratch("iters"));
    let shared = ProgramCache::new();
    let mut cycles = Vec::new();
    for iters in [1, 2] {
        let class = bp_small(iters);
        let through_shared = finish(&mut class.stage(&cfg, 1, &dir, &shared));
        let fresh = finish(&mut class.stage(&cfg, 1, &dir, &ProgramCache::new()));
        assert_eq!(through_shared, fresh, "iters {iters}");
        cycles.push(fresh.0);
    }
    assert_eq!((shared.hits(), shared.misses()), (0, 2));
    assert!(cycles[1] > cycles[0] * 3 / 2, "{cycles:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) `stage` is `stage_scheduled` under the resolved schedule, and
/// the reader a fleet-checkpoint restore rebuilds reads what the staged
/// job's own reader reads.
#[test]
fn stage_is_stage_scheduled_under_the_resolved_schedule() {
    let (cfg, dir) = (vault(), checked_in());
    for class in MIX_CLASSES {
        let mut batches = vec![1, class.batch_limit()];
        batches.dedup();
        for batch in batches {
            let what = format!("{} x{batch}", class.key());
            let cache = ProgramCache::new();
            let mut job = class.stage(&cfg, batch, &dir, &cache);
            let explicit = class.stage_scheduled(&cfg, batch, &class.schedule(&cfg, &dir), &cache);
            assert_eq!(job.programs, explicit.programs, "{what}");
            assert_eq!(
                job.sys.save_snapshot(),
                explicit.sys.save_snapshot(),
                "{what}"
            );
            assert_eq!(job.limit, explicit.limit, "{what}");
            assert_eq!((cache.hits(), cache.misses()), (1, 1), "{what}");

            let (_, results) = finish(&mut job);
            assert_eq!(results.len(), batch, "{what}");
            assert!(results.iter().all(|r| r.iter().any(|&b| b != 0)), "{what}");
            let rebuilt = class.reader_for(&cfg, batch, &dir);
            assert_eq!(results, rebuilt.read(job.sys.hmc()), "{what}");
        }
    }
}

/// (c) The resolver's rules, one case each: only an artifact for this
/// key and fingerprint that passes `validate` is used; everything else
/// is the default schedule, and the tile still stages and runs.
#[test]
fn rejected_artifacts_fall_back_to_the_default_schedule() {
    let cfg = vault();
    let fp = cfg.snapshot_fingerprint();
    let dir = scratch("resolver");
    let cache = ProgramCache::new();
    let write = |class: &TileClass, fingerprint: u64, text: &str| {
        let path = dir.join(store::artifact_name(&class.key(), fingerprint));
        std::fs::write(path, text).expect("artifact written");
    };
    let remove = |class: &TileClass, fingerprint: u64| {
        std::fs::remove_file(dir.join(store::artifact_name(&class.key(), fingerprint)))
            .expect("artifact removed");
    };
    let runs = |class: &TileClass| finish(&mut class.stage(&cfg, 1, &dir, &cache)).0;

    // A valid tuned artifact is what the tile runs under.
    let tuned = Schedule::Bp(BpSchedule {
        row_pad: 128,
        pes: 2,
        group_bufs: 3,
        ..BpSchedule::default()
    });
    let default_cycles = runs(&BP_SMALL);
    write(&BP_SMALL, fp, &tuned.to_json());
    assert_eq!(BP_SMALL.schedule(&cfg, &dir), tuned);
    assert_ne!(runs(&BP_SMALL), default_cycles);
    remove(&BP_SMALL, fp);

    let fc = |kc: usize, pes: usize| {
        Schedule::Fc(FcSchedule {
            kc,
            pes,
            ..FcSchedule::default()
        })
        .to_json()
    };
    let conv_8pe = Schedule::Conv(ConvSchedule {
        pes: 8,
        ..ConvSchedule::default_for(&vip_kernels::tile::conv_layer(4, 8), 8)
    })
    .to_json();
    let bp_pad = |row_pad: u64| {
        format!(
            "{{\"kernel\": \"bp\", \"style\": \"SP+R\", \"row_pad\": {row_pad}, \"pes\": 4, \
             \"group_bufs\": 2}}\n"
        )
    };
    assert_eq!(
        Schedule::from_json(&bp_pad(256)),
        Ok(BP_SMALL.default_schedule()),
        "the hand-written artifact text is the real format"
    );
    let bp = |style: &str, group_bufs: usize| {
        bp_pad(256)
            .replace("SP+R", style)
            .replace("\"pes\": 4", "\"pes\": 1")
            .replace(
                "\"group_bufs\": 2",
                &format!("\"group_bufs\": {group_bufs}"),
            )
    };
    let fc_rb128 = Schedule::Fc(FcSchedule {
        mr: 1,
        rc_block: 128,
        pes: 1,
        ..FcSchedule::default()
    })
    .to_json();
    let rejected: [(&str, TileClass, u64, String); 12] = [
        ("another machine's artifact", BP_SMALL, fp ^ 1, bp_pad(0)),
        ("another family under this key", BP_SMALL, fp, fc(256, 4)),
        ("kc does not divide the inputs", MLP, fp, fc(96, 4)),
        ("more PEs than the vault has (fc)", MLP, fp, fc(256, 8)),
        ("more PEs than the vault has (conv)", CNN, fp, conv_8pe),
        (
            "row pad past the 24-bit addi",
            BP_SMALL,
            fp,
            bp_pad(1 << 20),
        ),
        ("row pad past the i32 stride", BP_SMALL, fp, bp_pad(1 << 32)),
        ("row pad whose stride wraps", BP_SMALL, fp, bp_pad(1 << 62)),
        (
            "a style whose program is too long",
            BP_SMALL,
            fp,
            bp("SP-R", 2),
        ),
        ("more buffers than rotate", BP_SMALL, fp, bp("SP+R", 5)),
        ("an unroll past the buffer", MLP_LARGE, fp, fc_rb128),
        (
            "malformed JSON",
            CNN,
            fp,
            "{\"kernel\": \"conv\", ".to_owned(),
        ),
    ];
    for (what, class, fingerprint, text) in rejected {
        write(&class, fingerprint, &text);
        if fingerprint == fp {
            if let Ok(parsed) = Schedule::from_json(&text) {
                assert!(class.validate(&cfg, &parsed).is_err(), "{what}");
            }
        }
        assert_eq!(
            class.schedule(&cfg, &dir),
            class.default_schedule(),
            "{what}"
        );
        assert!(runs(&class) > 0, "{what}");
        remove(&class, fingerprint);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stage_scheduled` takes the caller's word for the schedule and says
/// so when it is wrong, instead of indexing past the vault's PEs three
/// calls later.
#[test]
#[should_panic(expected = "cannot stage fc-2048x64 under `fc:kc256:mr4:rb1:pe8`")]
fn stage_scheduled_names_the_schedule_it_rejects() {
    let sched = Schedule::Fc(FcSchedule {
        pes: 8,
        ..FcSchedule::default()
    });
    let _ = MLP.stage_scheduled(&vault(), 1, &sched, &ProgramCache::new());
}

/// One seeded mutation of an artifact's bytes.
fn mutate(rng: &mut SplitMix64, text: &str) -> Vec<u8> {
    const EXTREMES: [&str; 6] = [
        "0",
        "2147483648",
        "9223372036854775807",
        "18446744073709551616",
        "-1",
        "-9223372036854775808",
    ];
    let body = text
        .trim_end()
        .trim_start_matches('{')
        .trim_end_matches('}');
    let mut fields: Vec<String> = body.split(", ").map(str::to_owned).collect();
    let pick = rng.usize_in(0..fields.len());
    let key = |field: &str| field.split(": ").next().expect("a key").to_owned();
    match rng.below(9) {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.usize_in(0..bytes.len());
            bytes[at] ^= 1 << rng.below(8);
            return bytes;
        }
        1 => return text.as_bytes()[..rng.usize_in(0..text.len())].to_vec(),
        2 => fields.insert(rng.usize_in(0..fields.len()), fields[pick].clone()),
        3 => {
            let other = rng.usize_in(0..fields.len());
            fields.swap(pick, other);
        }
        4 => drop(fields.remove(pick)),
        5 => {
            for field in &mut fields {
                if field.starts_with("\"style\"") {
                    let styles = VectorMachineStyle::all();
                    let style = styles[rng.usize_in(0..styles.len())].label();
                    *field = format!("\"style\": \"{style}\"");
                }
            }
        }
        // An integer field at an extreme, or (two draws of three) at a
        // small value or power of two — where the legal schedules are.
        draw => {
            let numeric: Vec<usize> = (0..fields.len())
                .filter(|&i| fields[i].ends_with(|c: char| c.is_ascii_digit()))
                .collect();
            let at = numeric[rng.usize_in(0..numeric.len())];
            let value = match draw {
                6 => EXTREMES[rng.usize_in(0..EXTREMES.len())].to_owned(),
                7 => rng.below(10).to_string(),
                _ => (1u64 << rng.below(21)).to_string(),
            };
            fields[at] = format!("{}: {value}", key(&fields[at]));
        }
    }
    format!("{{{}}}\n", fields.join(", ")).into_bytes()
}

/// (d) The loader under fuzz: `from_json` answers every mutation with a
/// schedule or a typed error, and whatever the resolver then accepts
/// stages and loads onto the machine. Mutations compound — an accepted
/// artifact is the next one's starting point — so the walk reaches
/// schedules several knobs away from where it started.
#[test]
fn mutated_artifacts_never_panic_the_loader_or_the_stager() {
    let cfg = vault();
    let dir = scratch("fuzz");
    let cache = ProgramCache::new();
    let (mut parsed, mut accepted) = (0, 0);
    for (i, class) in [MLP_LARGE, CNN, BP].into_iter().enumerate() {
        let path = dir.join(store::artifact_name(
            &class.key(),
            cfg.snapshot_fingerprint(),
        ));
        let mut rng = SplitMix64::new(0x7113 + i as u64);
        let mut text = class.default_schedule().to_json();
        for step in 0..500 {
            if step % 50 == 0 {
                text = class.default_schedule().to_json();
            }
            let bytes = mutate(&mut rng, &text);
            if let Ok(mutated) = std::str::from_utf8(&bytes) {
                let outcome: Result<Schedule, ScheduleError> = Schedule::from_json(mutated);
                parsed += usize::from(outcome.is_ok());
            }
            std::fs::write(&path, &bytes).expect("artifact written");
            let resolved = class.schedule(&cfg, &dir);
            assert_eq!(class.validate(&cfg, &resolved), Ok(()));
            if resolved != class.default_schedule() {
                accepted += 1;
                text = resolved.to_json();
                class
                    .stage_scheduled(&cfg, 1, &resolved, &cache)
                    .load_programs();
            }
        }
    }
    // The mutations are not all noise: most still parse, and many of
    // those are legal schedules other than the default.
    assert!(
        parsed > 750 && accepted > 150,
        "{parsed} parsed, {accepted} accepted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d), exhaustively where that is cheap: every schedule over a dense
/// grid of small knob values that `validate` accepts for a class in use
/// stages and loads — `validate` is a complete mirror of what the
/// generators and the machine require, not a sample of it.
#[test]
fn whatever_validate_accepts_stages_and_loads() {
    let cfg = vault();
    let values = [
        1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048,
    ];
    let mut grid = Vec::new();
    for pes in 1..=4 {
        for a in values {
            for b in values {
                for c in values {
                    grid.push(Schedule::Fc(FcSchedule {
                        kc: a,
                        mr: b,
                        rc_block: c,
                        pes,
                    }));
                }
                for interleave_rows in [false, true] {
                    grid.push(Schedule::Conv(ConvSchedule {
                        filters_per_group: a,
                        ring: b,
                        interleave_rows,
                        pes,
                    }));
                }
            }
        }
        for style in VectorMachineStyle::all() {
            for row_pad in [0, 32, 64, 96, 128, 256, 512, 4096, 1 << 16, 1 << 19] {
                for group_bufs in 2..9 {
                    grid.push(Schedule::Bp(BpSchedule {
                        style,
                        row_pad,
                        pes,
                        group_bufs,
                    }));
                }
            }
        }
    }
    let cnn = |in_channels, out_channels, filters_per_group| TileClass::Cnn {
        in_channels,
        out_channels,
        filters_per_group,
    };
    let classes = [
        MLP,
        MLP_SMALL,
        MLP_LARGE,
        CNN,
        cnn(64, 8, 2),
        cnn(64, 64, 2),
        BP,
        BP_SMALL,
    ];
    let mut staged = 0;
    for class in classes {
        for sched in &grid {
            if class.validate(&cfg, sched).is_ok() {
                staged += 1;
                class
                    .stage_scheduled(&cfg, 1, sched, &ProgramCache::new())
                    .load_programs();
            }
        }
    }
    assert!(staged > 2000, "{staged} staged");
}

/// (e) A grid only yields points for a class of its own family, and
/// every point it yields is one `TileClass::validate` accepts.
#[test]
fn search_spaces_enumerate_only_what_the_class_validates() {
    let cfg = vault();
    let spaces = [
        (SearchSpace::Fc(FcSearchSpace::stock()), MLP),
        (SearchSpace::Conv(ConvSearchSpace::stock()), CNN),
        (SearchSpace::Bp(BpSearchSpace::stock()), BP),
    ];
    for (space, own) in &spaces {
        for class in [MLP, CNN, BP] {
            let points = space.enumerate(&class, &cfg);
            assert_eq!(points.is_empty(), class != *own, "{}", class.key());
            for point in points {
                assert_eq!(class.validate(&cfg, &point), Ok(()), "{}", point.encoding());
            }
        }
        assert!(space.enumerate(own, &cfg).contains(&own.default_schedule()));
    }
}

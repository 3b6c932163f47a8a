//! Real workloads (BP, CNN, MLP) run with the fault injector wired at
//! zero rate must be bit-identical — same outputs, same cycle count,
//! same statistics — to runs with no injector wired at all. The random
//! program fuzzer covers the same contract breadth-first; these tests
//! cover it on the paper's actual kernels, whose load-store and NoC
//! traffic patterns are nothing like the fuzzer's.

use std::fmt::Debug;

use vip_core::{Engine, FuncConfig, System, SystemConfig, SystemStats};
use vip_faults::FaultConfig;
use vip_isa::Program;
use vip_kernels::bp::{
    self, strip_program, BpLayout, Messages, Mrf, MrfParams, StripParams, Sweep, VectorMachineStyle,
};
use vip_kernels::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, ConvMode, FcLayer};
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::FcSchedule;

/// Runs `programs` on a system built by `setup` and returns the full
/// statistics record plus whatever output `read` extracts. With
/// `func: Some(cfg)` the run uses the two-tier functional engine.
fn run_case<R>(
    faults: &FaultConfig,
    setup: impl Fn(&mut System),
    programs: &[Program],
    max: u64,
    read: impl Fn(&System) -> R,
    func: Option<FuncConfig>,
) -> (SystemStats, R) {
    let mut sys = System::new(SystemConfig::small_test().with_faults(faults));
    setup(&mut sys);
    for (pe, p) in programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    match func {
        Some(cfg) => {
            sys.set_func_config(cfg);
            Engine::Functional
                .run(&mut sys, max)
                .expect("kernel completes");
        }
        None => {
            sys.run(max).expect("kernel completes");
        }
    }
    let out = read(&sys);
    (sys.stats(), out)
}

/// Asserts the disabled-injector and zero-rate-injector runs of one
/// case are bit-identical.
fn assert_inert<R: PartialEq + Debug>(
    name: &str,
    setup: impl Fn(&mut System),
    programs: &[Program],
    max: u64,
    read: impl Fn(&System) -> R,
) {
    let (plain_stats, plain_out) =
        run_case(&FaultConfig::disabled(), &setup, programs, max, &read, None);
    let (wired_stats, wired_out) = run_case(
        &FaultConfig::zero_rate(0xd15a_b1ed),
        &setup,
        programs,
        max,
        &read,
        None,
    );
    assert_eq!(plain_out, wired_out, "{name}: output");
    assert_eq!(plain_stats, wired_stats, "{name}: cycles and statistics");
    assert_eq!(wired_stats.mem.ecc_corrected, 0, "{name}");
    assert_eq!(wired_stats.noc.retries, 0, "{name}");
    assert_eq!(wired_stats.pe.writeback_flips, 0, "{name}");

    // Same contract on the functional tier. A zero-rate injector can
    // never fire, so it must not force the run off the functional
    // path either: both runs take functional stretches (short windows
    // so these small kernels cross the tier boundary repeatedly), and
    // must be bit-identical to each other and — in architectural
    // output — to the cycle-accurate runs. Timing statistics are
    // estimates on this engine, so only the outputs are compared
    // across engines.
    let cfg = FuncConfig {
        warmup_cycles: 64,
        sample_cycles: 256,
        stretch_work: 2_000,
        quantum: 64,
        drain_cycles: 5_000,
    };
    let (func_plain_stats, func_plain_out) = run_case(
        &FaultConfig::disabled(),
        &setup,
        programs,
        max,
        &read,
        Some(cfg),
    );
    let (func_wired_stats, func_wired_out) = run_case(
        &FaultConfig::zero_rate(0xd15a_b1ed),
        &setup,
        programs,
        max,
        &read,
        Some(cfg),
    );
    assert!(
        func_plain_stats.func.functional_instructions > 0,
        "{name}: functional tier never engaged"
    );
    assert_eq!(func_plain_out, plain_out, "{name}: functional output");
    assert_eq!(
        func_plain_out, func_wired_out,
        "{name}: functional output with zero-rate injector"
    );
    assert_eq!(
        func_plain_stats, func_wired_stats,
        "{name}: functional runs diverge under a zero-rate injector"
    );
    assert_eq!(func_wired_stats.mem.ecc_corrected, 0, "{name}");
    assert_eq!(func_wired_stats.noc.retries, 0, "{name}");
    assert_eq!(func_wired_stats.pe.writeback_flips, 0, "{name}");
}

#[test]
fn bp_sweep_is_identical_with_zero_rate_injector() {
    let (w, h, l) = (16, 8, 16);
    let costs = bp::stereo_data_costs(w, h, l, 11);
    let mrf = Mrf::new(MrfParams::truncated_linear(w, h, l, 2, 12), costs);
    let layout = BpLayout::new(0, w, h, l);
    let init = Messages::new_unnormalized(&mrf.params);
    let strip = StripParams {
        layout,
        sweep: Sweep::Down,
        ortho_range: (0, w),
        normalize: false,
        style: VectorMachineStyle::SpReduce,
        group_bufs: 2,
    };
    let program = strip_program(&strip);
    assert_inert(
        "bp down sweep",
        |sys| strip.layout.load_into(sys.hmc_mut(), &mrf, &init),
        std::slice::from_ref(&program),
        2_000_000,
        |sys| layout.read_messages(sys.hmc(), false),
    );
}

#[test]
fn conv_tile_is_identical_with_zero_rate_injector() {
    let layer = ConvLayer {
        name: "t",
        in_channels: 8,
        out_channels: 4,
        width: 8,
        height: 8,
        kernel: 3,
        pad: 1,
    };
    let input = cnn::pad_input(8, 8, 8, 1, &pattern(8 * 8 * 8, 1, 5));
    let weights = pattern(layer.weights(), 1, 3);
    let bias = pattern(4, 2, 3);
    let layout = ConvLayout {
        layer,
        input_base: 0,
        weights_base: 0x10000,
        bias_base: 0x20000,
        output_base: 0x30000,
        filters_per_group: 2,
        mode: ConvMode::Full,
    };
    let programs = conv_tile_programs(&layout, &layout.default_schedule());
    assert_inert(
        "conv tile",
        |sys| layout.load_into(sys.hmc_mut(), &input, &weights, &bias),
        &programs,
        5_000_000,
        |sys| layout.read_output(sys.hmc()),
    );
}

#[test]
fn fc_tile_is_identical_with_zero_rate_injector() {
    let layer = FcLayer {
        name: "fc",
        inputs: 512,
        outputs: 16,
    };
    let input = pattern(512, 1, 5);
    let weights = pattern(512 * 16, 1, 5);
    let bias = pattern(16, 3, 10);
    let layout = FcLayout {
        layer,
        input_base: 0,
        weights_base: 0x10000,
        bias_base: 0x40000,
        output_base: 0x50000,
        relu: true,
    };
    let programs = mlp::fc_tile_programs(&layout, &FcSchedule::default());
    assert_inert(
        "fc tile",
        |sys| layout.load_into(sys.hmc_mut(), &input, &weights, &bias),
        &programs,
        3_000_000,
        |sys| layout.read_output(sys.hmc()),
    );
}

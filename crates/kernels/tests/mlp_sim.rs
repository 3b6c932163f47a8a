//! End-to-end MLP inference on the cycle-level simulator vs. the golden
//! software reference: two fully-connected layers chained through DRAM
//! (layer 1's output region is layer 2's input region), tiled across
//! all four PEs of the small test system.

use vip_core::{Engine, System, SystemConfig};
use vip_isa::Program;
use vip_kernels::cnn::FcLayer;
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::FcSchedule;
use vip_kernels::sync::bytes_to_i16s;
use vip_rng::SplitMix64;

fn run_on(engine: Engine, sys: &mut System, programs: &[Program], max: u64) {
    for (pe, p) in programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    engine.run(sys, max).expect("tile completes");
}

/// A 256→256 ReLU hidden layer followed by a 256→16 linear output
/// layer. The hidden activations never leave simulated DRAM: layer 2
/// reads them from where layer 1's store stream put them, so the test
/// also covers store→load visibility between kernel launches.
#[test]
fn two_layer_mlp_matches_golden() {
    let hidden = FcLayer {
        name: "hidden",
        inputs: 256,
        outputs: 256,
    };
    let output = FcLayer {
        name: "output",
        inputs: 256,
        outputs: 16,
    };
    let input = pattern(256, 2, 9);
    let w1 = pattern(256 * 256, 1, 5);
    let b1 = pattern(256, 3, 40);
    let w2 = pattern(256 * 16, 1, 6);
    let b2 = pattern(16, 5, 25);

    let layout1 = FcLayout {
        layer: hidden,
        input_base: 0,
        weights_base: 0x10000,
        bias_base: 0x40000,
        output_base: 0x50000,
        relu: true,
    };
    let layout2 = FcLayout {
        layer: output,
        input_base: layout1.output_base, // chained through DRAM
        weights_base: 0x60000,
        bias_base: 0x70000,
        output_base: 0x80000,
        relu: false,
    };

    let sched = FcSchedule::default();
    let mut sys = System::new(SystemConfig::small_test());
    layout1.load_into(sys.hmc_mut(), &input, &w1, &b1);
    // Stage layer 2's parameters up front; its input arrives via
    // layer 1's stores.
    layout2.load_into(sys.hmc_mut(), &[], &w2, &b2);

    run_on(
        Engine::Fast,
        &mut sys,
        &mlp::fc_tile_programs(&layout1, &sched),
        30_000_000,
    );
    run_on(
        Engine::Fast,
        &mut sys,
        &mlp::fc_tile_programs(&layout2, &sched),
        40_000_000,
    );

    let hidden_golden = mlp::fc_forward(&hidden, &input, &w1, &b1, true);
    let out_golden = mlp::fc_forward(&output, &hidden_golden, &w2, &b2, false);

    let hidden_sim = bytes_to_i16s(&sys.hmc().host_read(layout1.output_base, 256 * 2));
    assert_eq!(hidden_sim, hidden_golden, "hidden layer");
    let out_sim = bytes_to_i16s(&sys.hmc().host_read(layout2.output_base, 16 * 2));
    assert_eq!(out_sim, out_golden, "output layer");
    assert!(
        hidden_golden.contains(&0) && hidden_golden.iter().any(|&v| v > 0),
        "ReLU boundary actually exercised"
    );
}

/// A layer whose operands span the whole 16-bit range, so nearly every
/// product and most partial sums saturate — the regime in which `m.v`'s
/// horizontal sum is order-dependent. Rows are built to end on either
/// rail, to swing from one to the other mid-chunk (a chunk total near
/// zero over a prefix far out of range), and at random; every engine
/// must reproduce the scalar `sat_add16(sat_mul16(..))` fold of
/// `mlp::fc_forward` bit for bit.
#[test]
fn full_range_fc_layer_matches_golden_on_every_engine() {
    let layer = FcLayer {
        name: "full-range",
        inputs: 512,
        outputs: 16,
    };
    let mut rng = SplitMix64::new(0xfc16);
    let mut full = |n: usize| -> Vec<i16> { (0..n).map(|_| rng.next_u64() as i16).collect() };
    let (input, bias, random) = (full(512), full(16), full(512 * 16));
    let weights: Vec<i16> = (0..16 * 512)
        .map(|i| {
            let (row, col) = (i / 512, i % 512);
            // A weight whose product with this column's input is large
            // and positive.
            let up = if input[col] < 0 { -30_000 } else { 30_000 };
            match row % 4 {
                0 => up,
                1 => -up,
                2 if col % 64 < 32 => up,
                2 => -up,
                _ => random[i],
            }
        })
        .collect();
    let golden = mlp::fc_forward(&layer, &input, &weights, &bias, false);
    assert!(
        golden.contains(&i16::MAX)
            && golden.contains(&i16::MIN)
            && golden.iter().any(|&v| i16::MIN < v && v < i16::MAX),
        "both rails and the range between them: {golden:?}"
    );

    let layout = FcLayout {
        layer,
        input_base: 0,
        weights_base: 0x10000,
        bias_base: 0x40000,
        output_base: 0x50000,
        relu: false,
    };
    let programs = mlp::fc_tile_programs(&layout, &FcSchedule::default());
    for engine in Engine::ALL {
        let mut sys = System::new(SystemConfig::small_test());
        layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
        run_on(engine, &mut sys, &programs, 30_000_000);
        let sim = bytes_to_i16s(&sys.hmc().host_read(layout.output_base, 16 * 2));
        assert_eq!(sim, golden, "{engine} engine");
    }
}

//! End-to-end MLP inference on the cycle-level simulator vs. the golden
//! software reference: two fully-connected layers chained through DRAM
//! (layer 1's output region is layer 2's input region), tiled across
//! all four PEs of the small test system.

use vip_core::{System, SystemConfig};
use vip_isa::Program;
use vip_kernels::cnn::FcLayer;
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::FcSchedule;
use vip_kernels::sync::bytes_to_i16s;

fn run_on(sys: &mut System, programs: &[Program], max: u64) {
    for (pe, p) in programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    sys.run(max).expect("tile completes");
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
        &mut sys,
        &mlp::fc_tile_programs(&layout1, &sched),
        30_000_000,
    );
    run_on(
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

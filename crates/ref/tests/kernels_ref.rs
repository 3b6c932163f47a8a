//! Closes the golden-reference ↔ architectural-interpreter loop: the
//! generated kernel programs that `crates/kernels/tests` verifies
//! against the cycle-level simulator must also produce golden-exact
//! results on the untimed interpreter. With the differential fuzzer
//! tying the interpreter to the cycle-level engines, all three levels
//! of the test pyramid are pinned to each other.

use vip_kernels::cnn::FcLayer;
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::FcSchedule;
use vip_kernels::sync::{bytes_to_i16s, i16s_to_bytes};
use vip_ref::RefSystem;

/// The interpreter-side equivalent of [`FcLayout::load_into`].
fn stage(sys: &mut RefSystem, layout: &FcLayout, input: &[i16], weights: &[i16], bias: &[i16]) {
    let mem = sys.mem_mut();
    mem.write(layout.input_base, &i16s_to_bytes(input));
    mem.write(
        layout.weights_base,
        &i16s_to_bytes(&mlp::pack_weights(&layout.layer, weights)),
    );
    mem.write(layout.bias_base, &i16s_to_bytes(bias));
}

fn run_fc_on_ref(layout: &FcLayout, input: &[i16], weights: &[i16], bias: &[i16]) -> Vec<i16> {
    let pes = 4;
    let dram_bytes = vip_core::SystemConfig::small_test().mem.total_bytes();
    let mut sys = RefSystem::new(pes, 4096, dram_bytes);
    stage(&mut sys, layout, input, weights, bias);
    for (pe, p) in mlp::fc_tile_programs(
        layout,
        &FcSchedule {
            pes,
            ..FcSchedule::default()
        },
    )
    .iter()
    .enumerate()
    {
        sys.load_program(pe, p);
    }
    sys.run(10_000_000).expect("fc tile completes");
    bytes_to_i16s(
        &sys.mem()
            .read_vec(layout.output_base, layout.layer.outputs * 2),
    )
}

#[test]
fn fc_tile_on_interpreter_matches_golden() {
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
    let got = run_fc_on_ref(&layout, &input, &weights, &bias);
    let expect = mlp::fc_forward(&layer, &input, &weights, &bias, true);
    assert_eq!(got, expect);
}

#[test]
fn fc_tile_without_relu_on_interpreter_matches_golden() {
    let layer = FcLayer {
        name: "fc8",
        inputs: 256,
        outputs: 16,
    };
    let input = pattern(256, 1, 5);
    let weights = pattern(256 * 16, 1, 6);
    let bias = vec![-100i16; 16];
    let layout = FcLayout {
        layer,
        input_base: 0,
        weights_base: 0x10000,
        bias_base: 0x40000,
        output_base: 0x50000,
        relu: false,
    };
    let got = run_fc_on_ref(&layout, &input, &weights, &bias);
    let expect = mlp::fc_forward(&layer, &input, &weights, &bias, false);
    assert_eq!(got, expect);
    assert!(expect.iter().any(|&v| v < 0), "exercises negatives");
}

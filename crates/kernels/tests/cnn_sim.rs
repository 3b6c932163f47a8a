//! Execution-driven verification of the generated CNN and MLP programs
//! against the golden references (§V-A's methodology).

use vip_core::{System, SystemConfig};
use vip_kernels::cnn::{
    self, accumulate_program, conv_tile_programs, pool_tile_programs, AccumulateLayout, ConvLayer,
    ConvLayout, ConvMode, FcLayer, PoolLayer, PoolLayout,
};
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::FcSchedule;
use vip_kernels::sync::i16s_to_bytes;

fn run_on(sys: &mut System, programs: &[vip_isa::Program], max: u64) {
    for (pe, p) in programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    sys.run(max).expect("tile completes");
}

#[test]
fn conv_tile_matches_golden() {
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
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
    run_on(
        &mut sys,
        &conv_tile_programs(&layout, &layout.default_schedule()),
        5_000_000,
    );

    let expect = cnn::conv_forward(&layer, &input, &weights, &bias, true);
    let got = layout.read_output(sys.hmc());
    assert_eq!(
        cnn::unpad_output(8, 8, 4, 1, &got),
        cnn::unpad_output(8, 8, 4, 1, &expect),
        "convolution interior"
    );
}

#[test]
fn conv_all_filters_resident_like_c1_1() {
    // The first VGG layer's regime: 3 input channels, every filter fits
    // in one scratchpad (F = out_channels).
    let layer = ConvLayer {
        name: "c1_1-like",
        in_channels: 4,
        out_channels: 8,
        width: 8,
        height: 4,
        kernel: 3,
        pad: 1,
    };
    let input = cnn::pad_input(8, 4, 4, 1, &pattern(8 * 4 * 4, 1, 4));
    let weights = pattern(layer.weights(), 1, 3);
    let bias = pattern(8, 1, 2);
    let layout = ConvLayout {
        layer,
        input_base: 0,
        weights_base: 0x10000,
        bias_base: 0x20000,
        output_base: 0x30000,
        filters_per_group: ConvLayout::max_filters_per_group(&layer).min(8),
        mode: ConvMode::Full,
    };
    assert_eq!(layout.filters_per_group, 8, "all filters resident");
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
    run_on(
        &mut sys,
        &conv_tile_programs(&layout, &layout.default_schedule()),
        5_000_000,
    );
    let expect = cnn::conv_forward(&layer, &input, &weights, &bias, true);
    assert_eq!(
        cnn::unpad_output(8, 4, 8, 1, &layout.read_output(sys.hmc())),
        cnn::unpad_output(8, 4, 8, 1, &expect)
    );
}

#[test]
fn sharded_conv_with_accumulate_pass_matches_golden() {
    // A deep layer sharded over 2 channel groups (the §IV-B pattern for
    // z > 64), with the partial-sum accumulation pass.
    let full = ConvLayer {
        name: "deep",
        in_channels: 8,
        out_channels: 4,
        width: 8,
        height: 4,
        kernel: 3,
        pad: 1,
    };
    let shard = ConvLayer {
        in_channels: 4,
        ..full
    };
    let input_full = pattern(8 * 4 * 8, 1, 5);
    let weights_full = pattern(full.weights(), 1, 3);
    let bias = pattern(4, 2, 4);

    // Split channels [0..4) and [4..8).
    let split = |lo: usize, per_px: &[i16], stride: usize| -> Vec<i16> {
        per_px
            .chunks(stride)
            .flat_map(|px| px[lo..lo + 4].to_vec())
            .collect()
    };
    let in_shards = [split(0, &input_full, 8), split(4, &input_full, 8)];
    let w_shards = [split(0, &weights_full, 8), split(4, &weights_full, 8)];

    let mut sys = System::new(SystemConfig::small_test());
    let mut partial_bases = Vec::new();
    // Phase 1: each shard's partial convolution (run serially on the
    // same 4 PEs; on the full machine these run on different vaults).
    for (s, (inp, w)) in in_shards.iter().zip(&w_shards).enumerate() {
        let layout = ConvLayout {
            layer: shard,
            input_base: (s as u64) * 0x40000,
            weights_base: 0x100_000 + (s as u64) * 0x10000,
            bias_base: 0x120_000,
            output_base: 0x130_000 + (s as u64) * 0x10000,
            filters_per_group: 2,
            mode: ConvMode::Partial,
        };
        partial_bases.push(layout.output_base);
        let padded = cnn::pad_input(8, 4, 4, 1, inp);
        layout.load_into(sys.hmc_mut(), &padded, w, &[0; 4]);
        run_on(
            &mut sys,
            &conv_tile_programs(&layout, &layout.default_schedule()),
            5_000_000,
        );
    }
    // Phase 2: accumulate + bias + ReLU.
    let acc = AccumulateLayout {
        layer: full,
        partial_bases,
        bias_row_base: 0x200_000,
        output_base: 0x210_000,
    };
    sys.hmc_mut().host_write(
        acc.bias_row_base,
        &i16s_to_bytes(&cnn::replicate_bias(&full, &bias)),
    );
    run_on(&mut sys, &accumulate_program(&acc, 4), 5_000_000);

    // Golden: full convolution via its sharded path.
    let p0 = cnn::conv_partial(
        &shard,
        &cnn::pad_input(8, 4, 4, 1, &in_shards[0]),
        &w_shards[0],
    );
    let p1 = cnn::conv_partial(
        &shard,
        &cnn::pad_input(8, 4, 4, 1, &in_shards[1]),
        &w_shards[1],
    );
    let expect = cnn::relu_bias_sum(&full, &[&p0, &p1], &bias, true);

    let n = cnn::padded_len(8, 4, 4, 1) * 2;
    let got = vip_kernels::sync::bytes_to_i16s(&sys.hmc().host_read(acc.output_base, n));
    assert_eq!(
        cnn::unpad_output(8, 4, 4, 1, &got),
        cnn::unpad_output(8, 4, 4, 1, &expect)
    );
}

#[test]
fn pool_tile_matches_golden() {
    let layer = PoolLayer {
        name: "p",
        channels: 8,
        width: 8,
        height: 8,
    };
    let data = pattern(8 * 8 * 8, 3, 40);
    let input = cnn::pad_input(8, 8, 8, 1, &data);
    let layout = PoolLayout {
        layer,
        input_base: 0,
        output_base: 0x10000,
    };
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input);
    run_on(&mut sys, &pool_tile_programs(&layout, 4), 3_000_000);

    let expect = cnn::max_pool(&layer, &input);
    assert_eq!(
        cnn::unpad_output(4, 4, 8, 1, &layout.read_output(sys.hmc())),
        cnn::unpad_output(4, 4, 8, 1, &expect)
    );
}

#[test]
fn fc_tile_matches_golden() {
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
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
    run_on(
        &mut sys,
        &mlp::fc_tile_programs(&layout, &FcSchedule::default()),
        3_000_000,
    );

    let expect = mlp::fc_forward(&layer, &input, &weights, &bias, true);
    assert_eq!(layout.read_output(sys.hmc()), expect);
}

#[test]
fn fc_without_relu_keeps_negatives() {
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
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
    run_on(
        &mut sys,
        &mlp::fc_tile_programs(&layout, &FcSchedule::default()),
        3_000_000,
    );
    let expect = mlp::fc_forward(&layer, &input, &weights, &bias, false);
    assert_eq!(layout.read_output(sys.hmc()), expect);
    assert!(
        expect.iter().any(|&v| v < 0),
        "test should exercise negatives"
    );
}

#[test]
fn batched_fc_tile_matches_golden() {
    let layer = FcLayer {
        name: "fc-b",
        inputs: 256,
        outputs: 16,
    };
    let batch = 4;
    let kc = 64;
    let inputs = pattern(layer.inputs * batch, 1, 5);
    let weights = pattern(layer.inputs * layer.outputs, 1, 5);
    let bias = pattern(layer.outputs, 3, 10);
    let layout = mlp::FcBatchLayout {
        layer,
        batch,
        kc,
        input_base: 0,
        weights_base: 0x10_0100,
        bias_base: 0x40_0200,
        output_base: 0x50_0300,
        relu: true,
    };
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &inputs, &weights, &bias);
    run_on(
        &mut sys,
        &mlp::fc_batch_tile_programs(&layout, 4),
        10_000_000,
    );

    let expect = mlp::fc_forward_batch(&layer, &inputs, &weights, &bias, true, batch, kc);
    assert_eq!(layout.read_output(sys.hmc()), expect);
}

#[test]
fn batched_fc_with_batch_16_matches_golden() {
    let layer = FcLayer {
        name: "fc-b16",
        inputs: 128,
        outputs: 16,
    };
    let (batch, kc) = (16, 64);
    let inputs = pattern(layer.inputs * batch, 1, 4);
    let weights = pattern(layer.inputs * layer.outputs, 1, 6);
    let bias = pattern(layer.outputs, 1, 3);
    let layout = mlp::FcBatchLayout {
        layer,
        batch,
        kc,
        input_base: 0,
        weights_base: 0x10_0100,
        bias_base: 0x40_0200,
        output_base: 0x50_0300,
        relu: false,
    };
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &inputs, &weights, &bias);
    run_on(
        &mut sys,
        &mlp::fc_batch_tile_programs(&layout, 4),
        20_000_000,
    );
    let expect = mlp::fc_forward_batch(&layer, &inputs, &weights, &bias, false, batch, kc);
    assert_eq!(layout.read_output(sys.hmc()), expect);
}

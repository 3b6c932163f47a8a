//! End-to-end layer pipeline: conv → pool → fully-connected, chained
//! through DRAM exactly as a network runs, verified against the golden
//! chain.

use vip_core::{System, SystemConfig};
use vip_kernels::cnn::{
    self, conv_tile_programs, pool_tile_programs, ConvLayer, ConvLayout, ConvMode, FcLayer,
    PoolLayer, PoolLayout,
};
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::FcSchedule;

#[test]
fn conv_pool_fc_pipeline_matches_golden() {
    // A miniature network: 8x8x8 -> conv(8 filters) -> pool -> 4x4x8
    // flattened (128) padded to 256 inputs -> fc(16 outputs).
    let conv_layer = ConvLayer {
        name: "conv",
        in_channels: 8,
        out_channels: 8,
        width: 8,
        height: 8,
        kernel: 3,
        pad: 1,
    };
    let pool_layer = PoolLayer {
        name: "pool",
        channels: 8,
        width: 8,
        height: 8,
    };
    let fc_layer = FcLayer {
        name: "fc",
        inputs: 256,
        outputs: 16,
    };

    let image = pattern(8 * 8 * 8, 1, 5);
    let conv_w = pattern(conv_layer.weights(), 1, 3);
    let conv_b = pattern(8, 1, 2);
    let fc_w = pattern(fc_layer.inputs * fc_layer.outputs, 1, 6);
    let fc_b = pattern(fc_layer.outputs, 2, 8);

    // --- Golden chain ------------------------------------------------
    let padded = cnn::pad_input(8, 8, 8, 1, &image);
    let conv_out = cnn::conv_forward(&conv_layer, &padded, &conv_w, &conv_b, true);
    let pool_out = cnn::max_pool(&pool_layer, &conv_out);
    let pooled_inner = cnn::unpad_output(4, 4, 8, 1, &pool_out);
    let mut fc_in = pooled_inner.clone();
    fc_in.resize(fc_layer.inputs, 0);
    let expect = mlp::fc_forward(&fc_layer, &fc_in, &fc_w, &fc_b, true);

    // --- Simulated chain ---------------------------------------------
    let mut sys = System::new(SystemConfig::small_test());
    let conv_layout = ConvLayout {
        layer: conv_layer,
        input_base: 0,
        weights_base: 0x10_0100,
        bias_base: 0x20_0200,
        output_base: 0x30_0300,
        filters_per_group: 2,
        mode: ConvMode::Full,
    };
    conv_layout.load_into(sys.hmc_mut(), &padded, &conv_w, &conv_b);
    for (pe, p) in conv_tile_programs(&conv_layout, &conv_layout.default_schedule())
        .iter()
        .enumerate()
    {
        sys.load_program(pe, p);
    }
    sys.run(20_000_000).expect("conv completes");

    // Pool reads the conv output in place.
    let pool_layout = PoolLayout {
        layer: pool_layer,
        input_base: conv_layout.output_base,
        output_base: 0x40_0100,
    };
    for (pe, p) in pool_tile_programs(&pool_layout, 4).iter().enumerate() {
        sys.load_program(pe, p);
    }
    sys.run(40_000_000).expect("pool completes");
    assert_eq!(pool_layout.read_output(sys.hmc()), pool_out, "pool output");

    // The host flattens and zero-pads the pooled activations into the
    // fc input vector (layer-boundary restaging; on the full machine
    // this is the §IV-C redistribution of data among vaults).
    let fc_layout = FcLayout {
        layer: fc_layer,
        input_base: 0x50_0200,
        weights_base: 0x60_0300,
        bias_base: 0x70_0100,
        output_base: 0x80_0200,
        relu: true,
    };
    fc_layout.load_into(sys.hmc_mut(), &fc_in, &fc_w, &fc_b);
    for (pe, p) in mlp::fc_tile_programs(&fc_layout, &FcSchedule::default())
        .iter()
        .enumerate()
    {
        sys.load_program(pe, p);
    }
    sys.run(60_000_000).expect("fc completes");

    assert_eq!(fc_layout.read_output(sys.hmc()), expect, "network output");
}

//! A VGG-16 convolution layer tile on VIP (§IV-B's template).
//!
//! Runs an independent tile of a 64-channel convolution layer on a 4-PE
//! vault: filters stream through the scratchpad in resident groups, a
//! ring of input columns is prefetched while `m.v.mul.add` applies the
//! filters (Equations 5a-5d), and bias+ReLU are fused into the store
//! path. The output is verified against the golden reference and the
//! tile is extrapolated to the full layer per the paper's §V-A
//! methodology.
//!
//! ```sh
//! cargo run --release -p vip-examples --example vgg_layer
//! ```

use vip_core::{cycles_to_ms, System, SystemConfig};
use vip_kernels::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, ConvMode};
use vip_kernels::pattern;

fn main() {
    // An independent tile of a c2_x-like layer: 64 input channels, 8
    // resident output channels, 16x8 pixels.
    let layer = ConvLayer {
        name: "c2-tile",
        in_channels: 64,
        out_channels: 8,
        width: 16,
        height: 8,
        kernel: 3,
        pad: 1,
    };
    println!(
        "convolution tile: {}x{} x {} -> {} channels, {} MACs",
        layer.width,
        layer.height,
        layer.in_channels,
        layer.out_channels,
        layer.macs()
    );

    let input_raw = pattern(layer.width * layer.height * layer.in_channels, 1, 5);
    let input = cnn::pad_input(
        layer.width,
        layer.height,
        layer.in_channels,
        layer.pad,
        &input_raw,
    );
    let weights = pattern(layer.weights(), 1, 3);
    let bias = pattern(layer.out_channels, 1, 2);

    let layout = ConvLayout {
        layer,
        input_base: 0,
        weights_base: 0x40_0000,
        bias_base: 0x80_0000,
        output_base: 0xc0_0000,
        filters_per_group: 2,
        mode: ConvMode::Full,
    };
    println!(
        "scratchpad plan: {} filters resident per pass ({} passes)",
        layout.filters_per_group,
        layer.out_channels / layout.filters_per_group
    );

    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
    let programs = conv_tile_programs(&layout, &layout.default_schedule());
    for (pe, p) in programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    let cycles = sys.run(100_000_000).expect("conv tile completes");

    // Verify bit-for-bit against the golden reference.
    let expect = cnn::conv_forward(&layer, &input, &weights, &bias, true);
    let got = layout.read_output(sys.hmc());
    assert_eq!(
        cnn::unpad_output(
            layer.width,
            layer.height,
            layer.out_channels,
            layer.pad,
            &got
        ),
        cnn::unpad_output(
            layer.width,
            layer.height,
            layer.out_channels,
            layer.pad,
            &expect
        ),
    );
    println!("output verified against the golden convolution");

    let stats = sys.stats();
    let point = stats.roofline();
    println!("\ntile: {cycles} cycles ({:.3} ms)", cycles_to_ms(cycles));
    println!(
        "arithmetic intensity: {:.2} Op/B",
        point.arithmetic_intensity()
    );
    println!("achieved: {:.1} GOp/s on one vault", point.gops());

    // Extrapolate to the full c2_1 layer on 32 vaults (§V-A).
    let c2_1 = ConvLayer {
        name: "c2_1",
        in_channels: 64,
        out_channels: 128,
        width: 112,
        height: 112,
        kernel: 3,
        pad: 1,
    };
    let scale = c2_1.macs() as f64 / layer.macs() as f64 / 32.0;
    println!(
        "extrapolated c2_1 ({} MMACs) on 32 vaults: {:.2} ms",
        c2_1.macs() / 1_000_000,
        cycles_to_ms((cycles as f64 * scale) as u64)
    );
}

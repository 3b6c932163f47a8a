//! A fully-connected (MLP) layer on VIP (§II-C, §IV-C).
//!
//! Runs a tiled GEMV on a 4-PE vault: `m.v.mul.add` multiplies resident
//! weight chunks against the input segment (the f₆ operation), partials
//! accumulate on top of the bias, and ReLU is applied before the store.
//! The result is verified against the golden reference and compared
//! with a naive i32 dot product to show where 16-bit saturation
//! matters.
//!
//! ```sh
//! cargo run --release -p vip-examples --example mlp_inference
//! ```

use vip_core::{cycles_to_ms, System, SystemConfig};
use vip_kernels::cnn::FcLayer;
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::schedule::FcSchedule;

fn main() {
    let layer = FcLayer {
        name: "fc-demo",
        inputs: 1024,
        outputs: 64,
    };
    println!(
        "fully-connected layer: {} -> {} ({} MACs)",
        layer.inputs,
        layer.outputs,
        layer.macs()
    );

    // Pseudo-random weights stand in for trained parameters (DESIGN.md
    // substitution #5): inference cost is weight-value-independent.
    let input: Vec<i16> = (0..layer.inputs)
        .map(|i| ((i * 5 + 1) % 9) as i16 - 4)
        .collect();
    let weights: Vec<i16> = (0..layer.inputs * layer.outputs)
        .map(|i| ((i * 11 + 7) % 13) as i16 - 6)
        .collect();
    let bias: Vec<i16> = (0..layer.outputs).map(|i| (i as i16 % 17) - 8).collect();

    let layout = FcLayout::timing_tile(layer);
    let mut sys = System::new(SystemConfig::small_test());
    layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
    for (pe, p) in mlp::fc_tile_programs(&layout, &FcSchedule::default())
        .iter()
        .enumerate()
    {
        sys.load_program(pe, p);
    }
    let cycles = sys.run(50_000_000).expect("fc layer completes");

    let got = layout.read_output(sys.hmc());
    let expect = mlp::fc_forward(&layer, &input, &weights, &bias, true);
    assert_eq!(got, expect, "simulated output matches the golden reference");

    println!(
        "completed in {cycles} cycles ({:.3} ms)",
        cycles_to_ms(cycles)
    );
    println!("first outputs: {:?}", &got[..8]);

    let stats = sys.stats();
    let p = stats.roofline();
    println!(
        "arithmetic intensity: {:.2} Op/B (weight-streaming bound)",
        p.arithmetic_intensity()
    );
    println!("achieved {:.1} GOp/s on one vault", p.gops());

    // Where does 16-bit dynamic fixed point deviate from wide math?
    let wide: Vec<i32> = (0..layer.outputs)
        .map(|m| {
            let dot: i32 = (0..layer.inputs)
                .map(|j| i32::from(weights[m * layer.inputs + j]) * i32::from(input[j]))
                .sum();
            (dot + i32::from(bias[m])).max(0)
        })
        .collect();
    let saturated = got
        .iter()
        .zip(&wide)
        .filter(|(&g, &w)| i32::from(g) != w)
        .count();
    println!(
        "{saturated}/{} outputs differ from i32 math (16-bit saturation), as the golden model predicts",
        layer.outputs
    );
}

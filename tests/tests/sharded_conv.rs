//! Cross-vault channel-sharded convolution (§IV-B): each vault convolves
//! its channel shard against locally-resident activations, then an
//! accumulation pass on one vault pulls the partial sums across the
//! torus, adds biases, and applies ReLU.

use vip_core::{System, SystemConfig};
use vip_kernels::cnn::{
    self, accumulate_program, conv_tile_programs, AccumulateLayout, ConvLayer, ConvLayout, ConvMode,
};
use vip_kernels::pattern;
use vip_kernels::sync::{bytes_to_i16s, i16s_to_bytes};

#[test]
fn shards_on_two_vaults_accumulate_remotely() {
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

    let split = |lo: usize, per_px: &[i16], stride: usize| -> Vec<i16> {
        per_px
            .chunks(stride)
            .flat_map(|px| px[lo..lo + 4].to_vec())
            .collect()
    };
    let in_shards = [split(0, &input_full, 8), split(4, &input_full, 8)];
    let w_shards = [split(0, &weights_full, 8), split(4, &weights_full, 8)];

    let cfg = SystemConfig::test_vaults(2);
    let vault1 = cfg.mem.vault_base(1);
    let mut sys = System::new(cfg);

    // Shard s lives entirely in vault s; both run concurrently, each on
    // its own vault's 4 PEs.
    let mut partial_bases = Vec::new();
    let mut layouts = Vec::new();
    for (s, (inp, w)) in in_shards.iter().zip(&w_shards).enumerate() {
        let base = (s as u64) * vault1;
        let layout = ConvLayout {
            layer: shard,
            input_base: base,
            weights_base: base + 0x10_0100,
            bias_base: base + 0x20_0200,
            output_base: base + 0x30_0300,
            filters_per_group: 2,
            mode: ConvMode::Partial,
        };
        partial_bases.push(layout.output_base);
        let padded = cnn::pad_input(8, 4, 4, 1, inp);
        layout.load_into(sys.hmc_mut(), &padded, w, &[0; 4]);
        for (i, p) in conv_tile_programs(&layout, &layout.default_schedule())
            .iter()
            .enumerate()
        {
            sys.load_program(s * 4 + i, p);
        }
        layouts.push(layout);
    }
    sys.run(30_000_000)
        .expect("both shards complete in parallel");

    // Accumulation on vault 0's PEs: one partial is remote.
    let acc = AccumulateLayout {
        layer: full,
        partial_bases,
        bias_row_base: 0x40_0100,
        output_base: 0x50_0200,
    };
    sys.hmc_mut().host_write(
        acc.bias_row_base,
        &i16s_to_bytes(&cnn::replicate_bias(&full, &bias)),
    );
    for (i, p) in accumulate_program(&acc, 4).iter().enumerate() {
        sys.load_program(i, p);
    }
    let noc_before = sys.stats().noc.packets;
    sys.run(60_000_000).expect("accumulation completes");
    assert!(
        sys.stats().noc.packets > noc_before,
        "the accumulate pass pulled vault 1's partials over the torus"
    );

    // Golden sharded pipeline.
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
    let got = bytes_to_i16s(&sys.hmc().host_read(acc.output_base, n));
    assert_eq!(
        cnn::unpad_output(8, 4, 4, 1, &got),
        cnn::unpad_output(8, 4, 4, 1, &expect),
        "remote-accumulated output"
    );
}

//! Non-default schedules must still compute bit-identical results: the
//! autotuner trusts `Schedule::validate` to fence off every illegal
//! point, so every valid point it can visit has to be correct.

use vip_core::{System, SystemConfig};
use vip_kernels::bp::{
    self, bp_iteration_programs, BpLayout, Messages, Mrf, MrfParams, VectorMachineStyle,
};
use vip_kernels::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, ConvMode, FcLayer};
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::{BpSchedule, ConvSchedule, FcSchedule};

fn run_on(sys: &mut System, programs: &[vip_isa::Program], max: u64) {
    for (pe, p) in programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    sys.run(max).expect("tile completes");
}

#[test]
fn fc_tile_is_schedule_invariant() {
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
    let expect = mlp::fc_forward(&layer, &input, &weights, &bias, true);

    let schedules = [
        FcSchedule {
            kc: 128,
            mr: 2,
            rc_block: 2,
            pes: 4,
        },
        FcSchedule {
            kc: 64,
            mr: 8,
            rc_block: 1,
            pes: 2,
        },
        FcSchedule {
            kc: 512,
            mr: 2,
            rc_block: 4,
            pes: 2,
        },
    ];
    for sched in &schedules {
        sched.validate(&layer).expect("variant schedule is valid");
        let mut sys = System::new(SystemConfig::small_test());
        layout.load_into_scheduled(sys.hmc_mut(), sched, &input, &weights, &bias);
        run_on(&mut sys, &mlp::fc_tile_programs(&layout, sched), 5_000_000);
        assert_eq!(
            layout.read_output(sys.hmc()),
            expect,
            "schedule {}",
            vip_kernels::schedule::Schedule::Fc(*sched).encoding()
        );
    }
}

#[test]
fn conv_tile_is_schedule_invariant() {
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
    let expect = cnn::conv_forward(&layer, &input, &weights, &bias, true);

    let schedules = [
        ConvSchedule {
            filters_per_group: 2,
            ring: 8,
            interleave_rows: false,
            pes: 4,
        },
        ConvSchedule {
            filters_per_group: 2,
            ring: 4,
            interleave_rows: true,
            pes: 4,
        },
        ConvSchedule {
            filters_per_group: 4,
            ring: 8,
            interleave_rows: true,
            pes: 2,
        },
    ];
    for sched in &schedules {
        sched.validate(&layer).expect("variant schedule is valid");
        let layout = ConvLayout {
            layer,
            input_base: 0,
            weights_base: 0x10000,
            bias_base: 0x20000,
            output_base: 0x30000,
            filters_per_group: sched.filters_per_group,
            mode: ConvMode::Full,
        };
        let mut sys = System::new(SystemConfig::small_test());
        layout.load_into(sys.hmc_mut(), &input, &weights, &bias);
        run_on(&mut sys, &conv_tile_programs(&layout, sched), 5_000_000);
        assert_eq!(
            cnn::unpad_output(8, 8, 4, 1, &layout.read_output(sys.hmc())),
            cnn::unpad_output(8, 8, 4, 1, &expect),
            "schedule {}",
            vip_kernels::schedule::Schedule::Conv(*sched).encoding()
        );
    }
}

#[test]
fn bp_tile_is_schedule_invariant() {
    let (w, h, l) = (32, 32, 16);
    let costs = bp::stereo_data_costs(w, h, l, 11);
    let mrf = Mrf::new(MrfParams::truncated_linear(w, h, l, 2, 12), costs);
    let init = Messages::new(&mrf.params);
    let mut expect = init.clone();
    bp::iteration(&mrf, &mut expect);

    let schedules = [
        BpSchedule {
            style: VectorMachineStyle::SpReduce,
            row_pad: 0,
            pes: 4,
            group_bufs: 2,
        },
        BpSchedule {
            style: VectorMachineStyle::SpReduce,
            row_pad: 64,
            pes: 2,
            group_bufs: 2,
        },
        BpSchedule {
            style: VectorMachineStyle::SpReduce,
            row_pad: 512,
            pes: 4,
            group_bufs: 2,
        },
        // Flat cross-row prefetch pipeline (3 and 4 rotating buffers):
        // must produce bit-identical messages to the ping-pong emitter.
        BpSchedule {
            style: VectorMachineStyle::SpReduce,
            row_pad: 0,
            pes: 2,
            group_bufs: 3,
        },
        BpSchedule {
            style: VectorMachineStyle::SpReduce,
            row_pad: 256,
            pes: 2,
            group_bufs: 4,
        },
    ];
    for sched in &schedules {
        sched.validate(w, h, l).expect("variant schedule is valid");
        let layout = BpLayout::with_row_pad(0, w, h, l, sched.row_pad);
        let mut sys = System::new(SystemConfig::small_test());
        layout.load_into(sys.hmc_mut(), &mrf, &init);
        for (pe, p) in bp_iteration_programs(&layout, sched, 1, true)
            .iter()
            .enumerate()
        {
            sys.load_program(pe, p);
        }
        sys.run(40_000_000).expect("BP tile completes");
        let got = layout.read_messages(sys.hmc(), true);
        let enc = vip_kernels::schedule::Schedule::Bp(*sched).encoding();
        assert_eq!(got.from_above, expect.from_above, "{enc}");
        assert_eq!(got.from_below, expect.from_below, "{enc}");
        assert_eq!(got.from_left, expect.from_left, "{enc}");
        assert_eq!(got.from_right, expect.from_right, "{enc}");
    }
}

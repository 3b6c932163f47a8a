//! Diagnostic: per-sweep cycle and stall breakdown of the BP tile.
use vip_core::{StallReason, System, SystemConfig};
use vip_kernels::bp::{
    self, bp_iteration_programs, strip_program, BpLayout, Messages, Mrf, MrfParams, StripParams,
    Sweep, VectorMachineStyle,
};
use vip_kernels::schedule::BpSchedule;
use vip_mem::MemConfig;

/// Runs to quiescence or prints the structured diagnosis (the hang
/// watchdog's per-PE report for a stuck run) and exits nonzero.
fn run_or_exit(sys: &mut System, limit: u64) -> u64 {
    sys.run(limit).unwrap_or_else(|e| {
        eprintln!("diag_bp: simulation failed: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let (w, h, l) = (64, 32, 16);
    let costs = bp::stereo_data_costs(w, h, l, 7);
    let mrf = Mrf::new(MrfParams::truncated_linear(w, h, l, 2, 12), costs);
    let layout = BpLayout::new(0, w, h, l);

    for norm in [false, true] {
        for sweep in [Sweep::Down, Sweep::Right] {
            let mut sys = System::new(SystemConfig::single_vault(MemConfig::baseline()));
            let msgs = Messages::new(&mrf.params);
            layout.load_into(sys.hmc_mut(), &mrf, &msgs);
            let n = if sweep == Sweep::Down { w } else { h };
            for pe in 0..4 {
                let p = strip_program(&StripParams {
                    layout,
                    sweep,
                    ortho_range: (pe * n / 4, (pe + 1) * n / 4),
                    normalize: norm,
                    style: VectorMachineStyle::SpReduce,
                    group_bufs: 2,
                });
                sys.load_program(pe, &p);
            }
            let cycles = run_or_exit(&mut sys, 80_000_000);
            let st = sys.stats();
            let updates = if sweep == Sweep::Down {
                w * (h - 1)
            } else {
                h * (w - 1)
            };
            println!(
                "norm={norm} {sweep:?}: {cycles} cyc, {:.0} cyc/update/pe, bw {:.1} GB/s",
                cycles as f64 / (updates as f64 / 4.0),
                st.bandwidth_gbs()
            );
            let pe0 = sys.pe(0).stats();
            for r in StallReason::all() {
                if pe0.stalls_for(r) > 0 {
                    println!("   stall {:?}: {}", r, pe0.stalls_for(r));
                }
            }
        }
    }
    // full iteration with barriers
    let mut sys = System::new(SystemConfig::single_vault(MemConfig::baseline()));
    layout.load_into(
        sys.hmc_mut(),
        &mrf,
        &Messages::new_unnormalized(&mrf.params),
    );
    for (pe, p) in bp_iteration_programs(&layout, &BpSchedule::default(), 1, false)
        .iter()
        .enumerate()
    {
        sys.load_program(pe, p);
    }
    let cycles = run_or_exit(&mut sys, 80_000_000);
    println!(
        "full iteration (no norm): {cycles} cyc  -> {:.0} cyc/update/pe",
        cycles as f64 / (4.0 * 64.0 * 31.0 / 4.0)
    );
}

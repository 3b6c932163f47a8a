//! Paper-shaped text reports for each table and figure.

use std::fmt::Write as _;

use vip_baselines::published::{self, vip_paper};
use vip_baselines::{eyeriss, gpu};
use vip_kernels::bp::BpCosts;
use vip_mem::MemConfig;

use crate::experiments::{self, Fig5Point, RooflineEntry, Table4};

/// Table I: the qualitative platform landscape (static, as in the
/// paper).
#[must_use]
pub fn table1() -> String {
    let rows = [
        ("CPU", "Med/High", "Low", "Low", "Very High", "Very High"),
        ("GPU", "High", "Med/High", "High*", "Very High", "Very High"),
        ("FPGA", "Med", "Med", "Med*", "Med", "Med"),
        (
            "Tile-BP", "Very Low", "Med/High", "N/A", "Very Low", "Very Low",
        ),
        ("Eyeriss", "Very Low", "N/A", "Low", "Very Low", "Very Low"),
        ("TPU", "Med", "N/A", "Very High*", "Low", "Low"),
        ("VIP", "Low/Med", "Very High*", "Med*", "High", "High"),
    ];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table I: qualitative overview (lighter is better; * = 24+ fps)"
    );
    let _ = writeln!(
        s,
        "{:<10} {:<10} {:<12} {:<12} {:<12} {:<12}",
        "Platform", "Power", "Tput(PGM)", "Tput(CNN)", "Prog(PGM)", "Prog(CNN)"
    );
    for (p, pw, tp, tc, pp, pc) in rows {
        let _ = writeln!(s, "{p:<10} {pw:<10} {tp:<12} {tc:<12} {pp:<12} {pc:<12}");
    }
    s
}

/// Table II: the instruction set, printed from the implementation (plus
/// the assembled Figure 2 fragment as a living example).
#[must_use]
pub fn table2() -> String {
    use vip_isa::{BranchCond, HorizontalOp, ScalarAluOp, VerticalOp};
    let mut s = String::new();
    let _ = writeln!(s, "Table II: the VIP instruction set\n");
    let vops: Vec<_> = VerticalOp::all().iter().map(|o| o.mnemonic()).collect();
    let hops: Vec<_> = HorizontalOp::all().iter().map(|o| o.mnemonic()).collect();
    let sops: Vec<_> = ScalarAluOp::all().iter().map(|o| o.mnemonic()).collect();
    let bops: Vec<_> = BranchCond::all().iter().map(|o| o.mnemonic()).collect();
    let _ = writeln!(s, "Vector:     set.{{vl,mr}}, v.drain");
    let _ = writeln!(
        s,
        "            m.v.{{{}}}.{{{}}}",
        vops.join(","),
        hops.join(",")
    );
    let _ = writeln!(s, "            v.v.{{{}}}", vops[..5].join(","));
    let _ = writeln!(s, "            v.s.{{{}}}", vops[..5].join(","));
    let _ = writeln!(s, "Scalar:     {{{}}} (reg-reg / reg-imm)", sops.join(","));
    let _ = writeln!(s, "            mov, mov.imm; {{{}}}, jmp", bops.join(","));
    let _ = writeln!(
        s,
        "Load-store: {{ld,st}}.sram, {{ld,st}}.reg, ld.reg.fe, st.reg.ff, memfence\n"
    );
    let _ = writeln!(s, "Figure 2 fragment, assembled and disassembled:");
    s.push_str(&experiments::figure2_listing());
    s
}

/// Table III: the memory-simulation parameters, printed from the live
/// default configuration.
#[must_use]
pub fn table3() -> String {
    let c = MemConfig::baseline();
    let t = c.timing;
    let mut s = String::new();
    let _ = writeln!(s, "Table III: memory simulation parameters");
    let _ = writeln!(s, "HMC vaults            {}", c.vaults);
    let _ = writeln!(s, "Banks per vault       {}", c.banks_per_vault);
    let _ = writeln!(s, "Rows per bank         {}", c.rows_per_bank);
    let _ = writeln!(s, "Row size              {} B", c.row_bytes);
    let _ = writeln!(
        s,
        "Vault data width      32 bit ({} B per {}-cycle burst)",
        c.col_bytes, c.burst_cycles
    );
    let _ = writeln!(s, "Row buffer policy     {}", c.policy);
    let _ = writeln!(
        s,
        "Address mapping       vault-row-bank-col (vault in high bits)"
    );
    let _ = writeln!(s, "Trans queue depth     {}", c.trans_queue_depth);
    let _ = writeln!(s, "tCK   0.80 ns");
    let _ = writeln!(
        s,
        "tCL   {:5.2} ns   tRCD  {:5.2} ns",
        t.t_cl_ps as f64 / 1e3,
        t.t_rcd_ps as f64 / 1e3
    );
    let _ = writeln!(
        s,
        "tRP   {:5.2} ns   tRAS  {:5.2} ns",
        t.t_rp_ps as f64 / 1e3,
        t.t_ras_ps as f64 / 1e3
    );
    let _ = writeln!(
        s,
        "tWR   {:5.2} ns   tCCD  {:5.2} ns",
        t.t_wr_ps as f64 / 1e3,
        t.t_ccd_ps as f64 / 1e3
    );
    let _ = writeln!(
        s,
        "tRFC  {:5.2} ns   tREFI {:5.2} us",
        t.t_rfc_ps as f64 / 1e3,
        t.t_refi_ps as f64 / 1e6
    );
    s
}

/// Table IV: the end-to-end summary with VIP's simulated numbers next
/// to the paper's reported numbers and the published baselines.
#[must_use]
pub fn table4(t: &Table4) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table IV: end-to-end performance (ours vs. paper)\n");
    let _ = writeln!(s, "-- Markov random fields (full HD, 16 labels) --");
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12} {:>10}",
        "System", "Iters", "Time (ms)", "Power (W)"
    );
    for b in published::mrf_baselines() {
        let _ = writeln!(
            s,
            "{:<28} {:>10} {:>12.1} {:>10.3}",
            b.system,
            b.iterations.unwrap_or("-"),
            b.time_ms,
            b.power_w
        );
    }
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1} {:>10.2}   (paper: {:.1} ms, {:.1} W)",
        "VIP (baseline BP-M, ours)",
        "8",
        t.bp.baseline_ms,
        t.bp_power_w,
        vip_paper::BP_BASELINE_MS,
        vip_paper::BP_POWER_W,
    );
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1} {:>10.2}   (paper: {:.1} ms)",
        "VIP (hierarchical BP-M)",
        "5",
        t.bp.hierarchical_ms,
        t.bp_power_w,
        vip_paper::BP_HIER_MS,
    );
    let gpu_model = gpu::GpuModel::titan_x_pascal();
    let _ = writeln!(
        s,
        "  [GPU model: {:.1} ms/iter vs. the paper's measured 11.5 ms]",
        gpu_model.run_ms(&BpCosts::full_hd(), 1)
    );

    let _ = writeln!(s, "\n-- VGG-16 convolution layers only --");
    let eyeriss_scaled = eyeriss::ScalingAnalysis::eyeriss_vs_vip();
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1}   (reported, 65 nm / 200 MHz)",
        "Eyeriss", "batch 3", 4309.0
    );
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1}   (area x tech x clock normalized)",
        "Eyeriss-scaled",
        "batch 3",
        eyeriss_scaled.scaled_ms()
    );
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1}   (paper: {:.1} ms)",
        "VIP (ours)",
        "batch 3",
        t.vgg16_conv_b3_ms,
        vip_paper::VGG16_CONV_B3_MS
    );

    let _ = writeln!(s, "\n-- Full networks --");
    for b in published::cnn_baselines() {
        if b.system == "Eyeriss" {
            continue;
        }
        let _ = writeln!(
            s,
            "{:<28} {:>10} {:>12.1}   ({})",
            b.system,
            format!("batch {}", b.batch.unwrap_or(1)),
            b.time_ms,
            b.workload
        );
    }
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1}   (paper: {:.1} ms)",
        "VIP VGG-16 (ours)",
        "batch 1",
        t.vgg16_full_b1_ms,
        vip_paper::VGG16_FULL_B1_MS
    );
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1}   (paper: {:.1} ms)",
        "VIP VGG-16 (ours)",
        "batch 16",
        t.vgg16_full_b16_ms,
        vip_paper::VGG16_FULL_B16_MS
    );
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.1}   (paper: {:.1} ms)",
        "VIP VGG-19 (ours)",
        "batch 1",
        t.vgg19_full_b1_ms,
        vip_paper::VGG19_FULL_B1_MS
    );
    let _ = writeln!(
        s,
        "{:<28} {:>10} {:>12.2}   (paper: {:.1} ms)",
        "VIP fc layers (ours)",
        "batch 1",
        t.fc_b1_ms,
        vip_paper::FC_B1_MS
    );
    let _ = writeln!(
        s,
        "\nVIP power (modeled): BP {:.2} W, CNN {:.2} W  (paper: {:.1}-{:.1} W)",
        t.bp_power_w,
        t.cnn_power_w,
        vip_paper::BP_POWER_W,
        vip_paper::CNN_POWER_W
    );
    s
}

/// A roofline table (Figure 3 panels).
#[must_use]
pub fn roofline_table(title: &str, entries: &[RooflineEntry]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "(peak 1280 GOp/s at 16 bit; bandwidth 320 GB/s; knee at 4 Op/B)"
    );
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>14}",
        "kernel", "AI (Op/B)", "GOp/s", "roofline bound"
    );
    for e in entries {
        let bound = 1280.0f64.min(e.ai * 320.0);
        let _ = writeln!(
            s,
            "{:<8} {:>12.2} {:>12.1} {:>14.1}",
            e.name, e.ai, e.gops, bound
        );
    }
    s
}

/// Figure 4's bar data.
#[must_use]
pub fn figure4_table(rows: &[(vip_kernels::bp::VectorMachineStyle, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 4: vertical BP-M updates on a 64x32 tile");
    let _ = writeln!(s, "{:<6} {:>12}", "config", "runtime (ms)");
    for (style, ms) in rows {
        let bar = "#".repeat((ms * 400.0) as usize);
        let _ = writeln!(s, "{:<6} {:>12.4}  {bar}", style.label(), ms);
    }
    s
}

/// Figure 5's bar data.
#[must_use]
pub fn figure5_table(title: &str, rows: &[Fig5Point]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<14} {:>16} {:>12}",
        "config", "bandwidth (GB/s)", "time (ms)"
    );
    for p in rows {
        let _ = match &p.measured {
            Ok(m) => writeln!(
                s,
                "{:<14} {:>16.1} {:>12.2}  {}",
                p.config,
                m.bandwidth_gbs,
                m.time_ms,
                "#".repeat((m.bandwidth_gbs / 5.0) as usize)
            ),
            Err(why) => writeln!(s, "{:<14} not run: {why}", p.config),
        };
    }
    s
}

/// The §VII RTL report.
#[must_use]
pub fn rtl_table(r: &experiments::RtlReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Section VII: area and power (calibrated analytical model)"
    );
    let _ = writeln!(
        s,
        "PE area:        {:>8.3} mm^2   (paper: 0.141 mm^2)",
        r.pe_area_mm2
    );
    let _ = writeln!(
        s,
        "128-PE area:    {:>8.1} mm^2   (paper: 18 mm^2)",
        r.chip_area_mm2
    );
    let _ = writeln!(
        s,
        "BP power / PE:  {:>8.1} mW     (paper: 27 mW)",
        r.bp_pe_mw
    );
    let _ = writeln!(
        s,
        "CNN power / PE: {:>8.1} mW     (paper: 38 mW)",
        r.cnn_pe_mw
    );
    let _ = writeln!(
        s,
        "128-PE power:   {:>5.2} W (BP) to {:.2} W (CNN)   (paper: 3.5-4.8 W)",
        r.bp_pe_mw * 128.0 / 1e3,
        r.cnn_pe_mw * 128.0 / 1e3
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Fig5Measure, Fig5Point, RooflineEntry, RtlReport};

    #[test]
    fn table1_lists_every_platform() {
        let t = table1();
        for p in ["CPU", "GPU", "FPGA", "Tile-BP", "Eyeriss", "TPU", "VIP"] {
            assert!(t.contains(p), "missing {p}");
        }
    }

    #[test]
    fn table2_prints_the_full_isa_and_figure2() {
        let t = table2();
        for fragment in [
            "set.{vl,mr}",
            "m.v.{mul,add,sub,min,max,nop}.{add,min,max}",
            "ld.reg.fe",
            "m.v.add.min.i16 r10, r15, r11",
        ] {
            assert!(t.contains(fragment), "missing `{fragment}`");
        }
    }

    #[test]
    fn table3_matches_the_live_configuration() {
        let t = table3();
        assert!(t.contains("HMC vaults            32"));
        assert!(t.contains("open-page"));
        assert!(t.contains("tRFC  81.50 ns"));
        assert!(t.contains("tREFI  1.95 us"));
    }

    #[test]
    fn roofline_table_formats_bounds() {
        let entries = vec![RooflineEntry {
            name: "x".into(),
            ai: 2.0,
            gops: 100.0,
        }];
        let t = roofline_table("T", &entries);
        assert!(
            t.contains("640.0"),
            "bandwidth-bound side: 2 Op/B x 320 GB/s"
        );
    }

    #[test]
    fn figure5_table_scales_bars() {
        let rows = vec![
            Fig5Point {
                config: "open page",
                measured: Ok(Fig5Measure {
                    bandwidth_gbs: 250.0,
                    time_ms: 5.0,
                }),
            },
            Fig5Point {
                config: "tiny",
                measured: Err("8-PE split on a 4-PE machine".into()),
            },
        ];
        let t = figure5_table("T", &rows);
        assert!(t.contains("open page"));
        assert!(t.contains("250.0"));
        assert!(t.contains(&"#".repeat(50)));
        assert!(t.contains("tiny           not run: 8-PE split on a 4-PE machine"));
    }

    #[test]
    fn rtl_table_includes_paper_targets() {
        let r = RtlReport {
            pe_area_mm2: 0.141,
            chip_area_mm2: 18.0,
            bp_pe_mw: 21.0,
            cnn_pe_mw: 30.0,
        };
        let t = rtl_table(&r);
        assert!(t.contains("0.141"));
        assert!(t.contains("paper: 27 mW"));
        assert!(t.contains("3.5-4.8 W"));
    }
}

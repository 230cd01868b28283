//! Criterion bench: template-based generation runtime — the paper's "each
//! DCIM design can be generated within one hour" step (netlist templates,
//! Verilog emission, floorplanning). Without the commercial P&R in the
//! loop, generation is milliseconds.
//!
//! Besides the 8K Fig. 6 designs, the generate / validate / emit arms run
//! at real `compile` sizes: the knee designs `compile` selects for INT8 at
//! 128K, BF16 at 32K and FP32 at 32K weights (2.0 MB, 0.6 MB and 6.2 MB
//! of Verilog; the last is the largest compile-gen knee design, 49,152
//! columns).

use criterion::{criterion_group, criterion_main, Criterion};
use sega_bench::fig6_designs;
use sega_cells::Technology;
use sega_estimator::{DcimDesign, Precision};
use sega_layout::floorplan::floorplan_macro;
use sega_layout::LayoutOptions;
use sega_netlist::{generators::generate_macro, verilog, Design};

/// The same modules added to a fresh design by hand, so `validate` runs in
/// full (a generated design carries a validated mark).
fn unvalidated(design: &Design) -> Design {
    let mut fresh = Design::new();
    for m in design.modules() {
        fresh.add_module(m.clone()).unwrap();
    }
    fresh.set_top(design.top().unwrap().name.clone()).unwrap();
    fresh
}

fn bench_generation(c: &mut Criterion) {
    let (int8, bf16) = fig6_designs();
    let tech = Technology::tsmc28();
    let opts = LayoutOptions::default();
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);

    group.bench_function("netlist_int8_8k", |b| {
        b.iter(|| generate_macro(&int8).unwrap())
    });
    group.bench_function("netlist_bf16_8k", |b| {
        b.iter(|| generate_macro(&bf16).unwrap())
    });

    let netlist = generate_macro(&int8).unwrap();
    group.bench_function("verilog_emit_int8_8k", |b| {
        b.iter(|| verilog::emit(&netlist).unwrap())
    });
    group.bench_function("floorplan_int8_8k", |b| {
        b.iter(|| floorplan_macro(&int8, &tech, &opts).unwrap())
    });

    let knees = [
        (
            "int8_128k",
            DcimDesign::for_precision(Precision::Int8, 16384, 64, 1, 8).unwrap(),
        ),
        (
            "bf16_32k",
            DcimDesign::for_precision(Precision::Bf16, 4096, 64, 1, 8).unwrap(),
        ),
        (
            "fp32_32k",
            DcimDesign::for_precision(Precision::Fp32, 49152, 16, 1, 24).unwrap(),
        ),
    ];
    for (label, design) in &knees {
        group.bench_function(format!("netlist_{label}"), |b| {
            b.iter(|| generate_macro(design).unwrap())
        });
        let netlist = generate_macro(design).unwrap();
        let fresh = unvalidated(&netlist);
        group.bench_function(format!("validate_{label}"), |b| {
            b.iter(|| fresh.validate().unwrap())
        });
        group.bench_function(format!("verilog_emit_{label}"), |b| {
            b.iter(|| verilog::emit(&netlist).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);

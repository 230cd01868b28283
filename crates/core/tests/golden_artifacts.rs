//! Byte-identity pins for the generated artifacts.
//!
//! For a fixed set of design points — a small design of every precision
//! and the knee design `compile` selects for every `perfbench` compile-gen
//! specification (pop 64 × 32 gens) — the Verilog netlist, the DEF export
//! and the audit line of `report.md` must hash to the committed constants.
//! Any change to the generators, the IR, the emitter or the floorplanner
//! that moves a single output byte fails here.
//!
//! On a mismatch the test prints the whole table with the actual values,
//! so a deliberate output change can be re-pinned in one paste.

use sega_dcim::estimator::{DcimDesign, Precision, ALL_PRECISIONS};
use sega_dcim::netlist::generators::generate_macro;
use sega_dcim::Compiler;

/// 64-bit FNV-1a: a fixed, dependency-free hash that does not change
/// between toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One pinned design point: `(precision, n, h, l, k)`, then the Verilog
/// length and hash, the DEF hash and the audit line of `report.md`.
struct Golden {
    precision: Precision,
    geometry: (u32, u32, u32, u32),
    verilog_len: usize,
    verilog_fnv: u64,
    def_fnv: u64,
    audit: &'static str,
}

const fn g(
    precision: Precision,
    geometry: (u32, u32, u32, u32),
    verilog_len: usize,
    verilog_fnv: u64,
    def_fnv: u64,
    audit: &'static str,
) -> Golden {
    Golden {
        precision,
        geometry,
        verilog_len,
        verilog_fnv,
        def_fnv,
        audit,
    }
}

use Precision::{Bf16, Fp16, Fp32, Fp8, Int16, Int2, Int4, Int8};

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    // A small design of every precision.
    g(Int2, (8, 8, 2, 2), 10087, 0xbc80acf58278df9e, 0xfc925aeaf398c6a7, "area err 0.00e0, energy err 0.00e0"),
    g(Int4, (16, 8, 4, 2), 15865, 0xdf283d479363e1e6, 0x894c6cbcb5919ae2, "area err 0.00e0, energy err 0.00e0"),
    g(Int8, (16, 16, 8, 4), 38689, 0x6869139ef7587771, 0x1f172709087a2979, "area err 0.00e0, energy err 0.00e0"),
    g(Int16, (32, 8, 2, 4), 39284, 0x74985ae4d25b1986, 0x50ac56480b2964da, "area err 0.00e0, energy err 0.00e0"),
    g(Fp8, (8, 8, 2, 2), 22570, 0x1d6df855bbe18af0, 0xa0e8a7833c9d6507, "area err 0.00e0, energy err 1.54e-16"),
    g(Bf16, (16, 8, 4, 2), 40423, 0x8420a7ad89d98425, 0x0606f8f5d19666cf, "area err 1.21e-16, energy err 0.00e0"),
    g(Fp16, (22, 8, 2, 3), 55164, 0x154b8e6a49d15814, 0x49ed10bfa8a03bef, "area err 0.00e0, energy err 0.00e0"),
    g(Fp32, (24, 4, 2, 4), 137008, 0xbe7d4e4a118df917, 0xe9b0121ab1ab5e9a, "area err 1.16e-16, energy err 0.00e0"),
    // The compile-gen knee designs (Int16 at 64K has two, by GA seed).
    g(Int4, (1024, 8, 2, 4), 137207, 0xe3c7bbd4e8cebb2d, 0x8aaf666fcc60b106, "area err 1.18e-16, energy err 0.00e0"),
    g(Int4, (2048, 8, 2, 4), 265476, 0xfae6e4783c007ab4, 0x7401848f4c20e115, "area err 1.18e-16, energy err 1.80e-16"),
    g(Int4, (4096, 8, 2, 4), 524290, 0x875381f4fdbe0a32, 0xf70323aa981e711a, "area err 1.18e-16, energy err 1.80e-16"),
    g(Int4, (8192, 8, 2, 4), 1044482, 0xbcb93c2abd1748e6, 0xe0288e2d791be3e3, "area err 0.00e0, energy err 0.00e0"),
    g(Int4, (8192, 16, 2, 4), 1061033, 0x34d4cc5c6c758ebd, 0x16a13feb7dc40a72, "area err 1.38e-16, energy err 0.00e0"),
    g(Int4, (16384, 16, 2, 4), 2127754, 0xc8bd726a530273c7, 0xb8a1b1f68e20d286, "area err 2.76e-16, energy err 2.12e-16"),
    g(Int8, (512, 64, 1, 8), 130335, 0x14927bc95fd722bf, 0xb40d8d1a31a18d98, "area err 2.04e-16, energy err 1.49e-16"),
    g(Int8, (1024, 64, 1, 8), 190158, 0x5e12a20c02db79d0, 0xe2a7f994c3893f81, "area err 2.05e-16, energy err 1.49e-16"),
    g(Int8, (2048, 64, 1, 8), 311758, 0xfb959f98a6b05496, 0xb61a0b0991e0fa6a, "area err 2.05e-16, energy err 0.00e0"),
    g(Int8, (4096, 64, 1, 8), 555074, 0x1a8a8b1a7308b141, 0x865add2a549d670b, "area err 2.05e-16, energy err 0.00e0"),
    g(Int8, (8192, 64, 1, 8), 1044885, 0x1933bfc65784060c, 0x0862012b2822419a, "area err 2.05e-16, energy err 1.49e-16"),
    g(Int8, (16384, 64, 1, 8), 2045575, 0x53707bc3b0815f7e, 0xf2d5378bfa2a26b2, "area err 2.05e-16, energy err 1.49e-16"),
    g(Int16, (2048, 32, 1, 16), 313503, 0x4e49477fbb40a2bf, 0x656f9334f3840e18, "area err 0.00e0, energy err 1.34e-16"),
    g(Int16, (2048, 64, 1, 16), 364406, 0x4b7899619860ba83, 0x9f540b450ae4a3ef, "area err 2.11e-16, energy err 1.52e-16"),
    g(Int16, (4096, 64, 1, 16), 602998, 0xd5c2458968f6f01e, 0x9f9c34e40d4c4446, "area err 0.00e0, energy err 1.52e-16"),
    g(Int16, (8192, 64, 1, 16), 1088429, 0x52075a981892ba10, 0x8f2aaaaf1fc780bb, "area err 2.11e-16, energy err 0.00e0"),
    g(Int16, (32768, 32, 1, 16), 3979272, 0xb05979e0ce36dfa0, 0x938c124751417400, "area err 0.00e0, energy err 1.34e-16"),
    g(Int16, (16384, 64, 1, 16), 2067639, 0xc924d564796ca0ba, 0x46bb4a27b45af76b, "area err 2.11e-16, energy err 0.00e0"),
    g(Int16, (32768, 64, 1, 16), 4030647, 0x0255cf62eadae2c9, 0xd7fd76224e77350b, "area err 2.11e-16, energy err 1.52e-16"),
    g(Fp8, (512, 32, 1, 4), 116963, 0xc68cd396e141e90a, 0x3879f3be42f98c71, "area err 0.00e0, energy err 1.17e-16"),
    g(Fp8, (1024, 32, 1, 4), 193841, 0x4831040817ba9255, 0x6fe7a4fddbae352c, "area err 1.59e-16, energy err 0.00e0"),
    g(Fp8, (2048, 32, 1, 4), 351064, 0xd5f6fa8417cfb147, 0x031be64e1abe6fc7, "area err 1.59e-16, energy err 0.00e0"),
    g(Fp8, (4096, 32, 1, 4), 667521, 0x1f14d60059ac188c, 0xbf8e83a2380f7486, "area err 1.59e-16, energy err 1.18e-16"),
    g(Fp8, (8192, 32, 1, 4), 1306237, 0xef209ebad439b211, 0x47f8b525773ecaa6, "area err 0.00e0, energy err 1.18e-16"),
    g(Fp8, (16384, 32, 1, 4), 2605806, 0xfd6acb772fbf8d98, 0xb07624d0a1b10f63, "area err 1.59e-16, energy err 0.00e0"),
    g(Bf16, (2048, 16, 1, 8), 313302, 0xe660691e86dae53d, 0x066ac2427c06a158, "area err 1.48e-16, energy err 2.14e-16"),
    g(Bf16, (2048, 32, 1, 8), 333783, 0x97870154b482284c, 0x903cc071067ceeb8, "area err 3.53e-16, energy err 0.00e0"),
    g(Bf16, (4096, 32, 1, 8), 604078, 0xba71237334c29042, 0x4a29471d8a63a867, "area err 1.76e-16, energy err 0.00e0"),
    g(Bf16, (4096, 64, 1, 8), 642086, 0x5366d1a73edd7024, 0x04ef59c8a4efaff9, "area err 1.98e-16, energy err 0.00e0"),
    g(Bf16, (8192, 64, 1, 8), 1187778, 0x109394c3276e34a1, 0xe24f37ce40334ffd, "area err 0.00e0, energy err 0.00e0"),
    g(Bf16, (16384, 64, 1, 8), 2303156, 0xb01b0f6f02f196a1, 0xd715cbad0e1b60a2, "area err 0.00e0, energy err 1.45e-16"),
    g(Fp16, (2816, 16, 1, 11), 423561, 0xe5a5339d139c3c66, 0xf43471136da7e50e, "area err 1.57e-16, energy err 0.00e0"),
    g(Fp16, (5632, 16, 1, 11), 785032, 0xccddd77fd4a06bad, 0xb3078164b9c609e9, "area err 1.57e-16, energy err 1.13e-16"),
    g(Fp16, (5632, 32, 1, 11), 810073, 0xcb5c23b9e733352a, 0x4dde3b893a6bbcd3, "area err 1.90e-16, energy err 0.00e0"),
    g(Fp16, (11264, 32, 1, 11), 1546807, 0x6df1280bd0359b80, 0xe1f54fbf60356981, "area err 0.00e0, energy err 1.38e-16"),
    g(Fp32, (6144, 16, 1, 24), 914116, 0xe318e2557a5a688d, 0xf00cf1daedd96dc3, "area err 0.00e0, energy err 0.00e0"),
    g(Fp32, (12288, 16, 1, 24), 1664182, 0x9788a24c31e3ae37, 0x7385b33ddd5bdaa2, "area err 0.00e0, energy err 1.73e-16"),
    g(Fp32, (24576, 16, 1, 24), 3172119, 0xd3234245a0e4e917, 0x7cb18ea5c874b70e, "area err 1.20e-16, energy err 0.00e0"),
    g(Fp32, (49152, 16, 1, 24), 6220639, 0xa805f489c9398b6a, 0xdb331404af4c46c3, "area err 0.00e0, energy err 1.73e-16"),
];

#[test]
fn artifacts_match_the_pinned_hashes() {
    let compiler = Compiler::new();
    let mut rows = Vec::new();
    let mut mismatches = 0;
    for golden in GOLDEN {
        let (n, h, l, k) = golden.geometry;
        let design = DcimDesign::for_precision(golden.precision, n, h, l, k)
            .expect("pinned design points are valid");
        let compiled = compiler.compile_design(&design).expect("compiles");
        let audit = format!(
            "area err {:.2e}, energy err {:.2e}",
            compiled.audit.area_error(),
            compiled.audit.energy_error()
        );
        let actual = (
            compiled.verilog.len(),
            fnv1a(compiled.verilog.as_bytes()),
            fnv1a(compiled.def.as_bytes()),
        );
        if actual != (golden.verilog_len, golden.verilog_fnv, golden.def_fnv)
            || audit != golden.audit
        {
            mismatches += 1;
            eprintln!("mismatch at {design}");
        }
        rows.push(format!(
            "    g({:?}, ({n}, {h}, {l}, {k}), {}, 0x{:016x}, 0x{:016x}, \"{audit}\"),",
            golden.precision, actual.0, actual.1, actual.2
        ));
    }
    if mismatches > 0 {
        eprintln!("actual table:\n{}", rows.join("\n"));
    }
    assert_eq!(mismatches, 0, "{mismatches} design points changed output");
}

/// The macro's columns and result-fusion groups are replicated IR entries:
/// every pinned top module holds at most five entries (INT: buffer,
/// columns, fusion; FP: pre-alignment, buffer, columns, fusion,
/// converter) whatever its column count, so a regression to one instance
/// per column fails here.
#[test]
fn top_modules_hold_a_constant_number_of_entries() {
    for golden in GOLDEN {
        let (n, h, l, k) = golden.geometry;
        let design = DcimDesign::for_precision(golden.precision, n, h, l, k).unwrap();
        let netlist = generate_macro(&design).unwrap();
        let top = netlist.top().unwrap();
        assert!(
            top.instances.len() <= 5,
            "{design}: {} entries in the top module",
            top.instances.len()
        );
        let copies: u64 = top.instances.iter().map(|i| u64::from(i.count.get())).sum();
        assert!(
            copies > u64::from(n),
            "{design}: {copies} copies for {n} columns"
        );
    }
}

#[test]
fn every_precision_is_pinned() {
    for precision in ALL_PRECISIONS {
        assert!(
            GOLDEN.iter().any(|g| g.precision == precision),
            "{precision:?} has no pinned design point"
        );
    }
}

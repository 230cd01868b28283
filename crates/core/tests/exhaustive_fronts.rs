//! Byte-identity pins for the exhaustive Pareto fronts.
//!
//! `exhaustive_front` is the ground truth the MOGA explorer is measured
//! against (the paper's Fig. 7 cloud). For every precision of Fig. 7 and
//! every `Wstore` of Fig. 8 (4K to 128K weights), the front's size and an
//! FNV-1a hash over its design labels and objective bits must equal the
//! committed constants. Any change to the dominance kernel, the
//! enumerator or the estimator that moves, adds, drops or reorders a
//! single front member fails here.
//!
//! On a mismatch the test prints the whole table with the actual values,
//! so a deliberate output change can be re-pinned in one paste.

use sega_dcim::cells::Technology;
use sega_dcim::estimator::{OperatingConditions, Precision};
use sega_dcim::{exhaustive_front, UserSpec};

/// 64-bit FNV-1a, fed incrementally.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

use Precision::{Bf16, Fp16, Fp32, Fp8, Int16, Int2, Int4, Int8};

/// `(precision, wstore, front size, FNV-1a of labels and objective bits)`.
#[rustfmt::skip]
const GOLDEN: &[(Precision, u64, usize, u64)] = &[
    (Int2, 4096, 25, 0xd84267c6b2367085),
    (Int2, 8192, 27, 0x573eb6cae24618d4),
    (Int2, 16384, 29, 0xd3dbd03363a07e5a),
    (Int2, 32768, 31, 0x690ecdd8aafe4643),
    (Int2, 65536, 31, 0x91abb7f91cdaf32b),
    (Int2, 131072, 33, 0xf3662808d3f2649d),
    (Int4, 4096, 47, 0x737b7f52375522c2),
    (Int4, 8192, 52, 0xf099504ff78dbac2),
    (Int4, 16384, 57, 0xfb98ca554da66db0),
    (Int4, 32768, 62, 0x28453a24a816c489),
    (Int4, 65536, 66, 0xde301adb6a3eb234),
    (Int4, 131072, 67, 0x8c67ed3eb669a205),
    (Int8, 4096, 82, 0x94d2f843e3bba5eb),
    (Int8, 8192, 97, 0xd3d6016518382e03),
    (Int8, 16384, 112, 0x9d49630f5bdcaa46),
    (Int8, 32768, 125, 0x3f7dd162786cc1a1),
    (Int8, 65536, 136, 0x4940ad49e8239489),
    (Int8, 131072, 144, 0x07faa1628418dc47),
    (Int16, 4096, 89, 0xd9577588d6afc69f),
    (Int16, 8192, 106, 0x611f7adefa260898),
    (Int16, 16384, 124, 0xc1ec7e8890f41657),
    (Int16, 32768, 141, 0x28b93116f5b5023e),
    (Int16, 65536, 156, 0x410917bab3ebeaab),
    (Int16, 131072, 169, 0x5a3024bdb79e88ae),
    (Fp8, 4096, 53, 0xbad2d8b476df9145),
    (Fp8, 8192, 60, 0x913a6420cdf503ad),
    (Fp8, 16384, 65, 0xd939e0b5c6ed65df),
    (Fp8, 32768, 67, 0x70a8ad0f428bf714),
    (Fp8, 65536, 71, 0xd23b6d720253a7fb),
    (Fp8, 131072, 75, 0x9fb28813e64317ee),
    (Fp16, 4096, 79, 0x1b2a69d119dc511f),
    (Fp16, 8192, 92, 0x9e035041e7f41d43),
    (Fp16, 16384, 106, 0x65090953da28be03),
    (Fp16, 32768, 118, 0x60d03f5f7dc3cc77),
    (Fp16, 65536, 126, 0x67691f19911c0b34),
    (Fp16, 131072, 138, 0x9954b891fa844b01),
    (Bf16, 4096, 67, 0xc157a7e7627ee494),
    (Bf16, 8192, 79, 0x77357583ff451b25),
    (Bf16, 16384, 90, 0xcae459b70faf9b39),
    (Bf16, 32768, 102, 0x456de704010ec027),
    (Bf16, 65536, 109, 0x32f9bc445c6cd0d0),
    (Bf16, 131072, 122, 0xeb192cd338ed8411),
    (Fp32, 4096, 93, 0x655d7c2f91150aa1),
    (Fp32, 8192, 109, 0x9c2cb79db19ddd18),
    (Fp32, 16384, 128, 0xea9eb22bec284edb),
    (Fp32, 32768, 145, 0x781a744024a6f3ab),
    (Fp32, 65536, 163, 0xa67806ad0274ce1a),
    (Fp32, 131072, 173, 0x0b2694702c5d1df1),
];

const PRECISIONS: [Precision; 8] = [Int2, Int4, Int8, Int16, Fp8, Fp16, Bf16, Fp32];
const WSTORES: [u64; 6] = [4096, 8192, 16384, 32768, 65536, 131072];

#[test]
fn exhaustive_fronts_match_the_pinned_hashes() {
    let tech = Technology::tsmc28();
    let conditions = OperatingConditions::paper_default();
    let mut rows = Vec::new();
    let mut actual = Vec::new();
    for precision in PRECISIONS {
        for wstore in WSTORES {
            let spec = UserSpec::new(wstore, precision).expect("paper specs are valid");
            let front = exhaustive_front(&spec, &tech, &conditions);
            let mut hash = Fnv1a::new();
            for s in &front {
                hash.write(s.design.to_string().as_bytes());
                hash.write(b"\n");
                for o in s.objectives() {
                    hash.write(&o.to_bits().to_le_bytes());
                }
            }
            rows.push(format!(
                "    ({precision:?}, {wstore}, {}, 0x{:016x}),",
                front.len(),
                hash.0
            ));
            actual.push((precision, wstore, front.len(), hash.0));
        }
    }
    if actual != GOLDEN {
        eprintln!("actual table:\n{}", rows.join("\n"));
    }
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "every Fig. 7 x Fig. 8 spec is pinned"
    );
    let mismatches = actual.iter().zip(GOLDEN).filter(|(a, g)| a != g).count();
    assert_eq!(mismatches, 0, "{mismatches} exhaustive fronts changed");
}

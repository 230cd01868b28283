use sega_estimator::Precision;

/// Errors in a user specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `Wstore` must be a power of two (the paper sweeps 4K–128K).
    WstoreNotPowerOfTwo(u64),
    /// `Wstore` is too small to satisfy the exploration bounds (`N ≥ 4·Bw`
    /// with at least two rows).
    WstoreTooSmall {
        /// Requested weight count.
        wstore: u64,
        /// Minimum supported for this precision.
        minimum: u64,
    },
    /// The exploration bounds admit no geometry: a bound is zero, or no
    /// power-of-two `H` lies in `[min_h, max_h]`.
    InvalidLimits(ExplorerLimits),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::WstoreNotPowerOfTwo(w) => {
                write!(f, "Wstore must be a power of two, got {w}")
            }
            SpecError::WstoreTooSmall { wstore, minimum } => {
                write!(
                    f,
                    "Wstore {wstore} below the minimum {minimum} for this precision"
                )
            }
            SpecError::InvalidLimits(l) => write!(
                f,
                "exploration limits admit no geometry (max_l {}, max_h {}, min_h {}, \
                 n_factor {}): every bound must be non-zero and a power of two must lie \
                 in [min_h, max_h]",
                l.max_l, l.max_h, l.min_h, l.n_factor
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Bounds the design space explorer honors (paper §IV: "N is set to be
/// greater than `4·Bw`, L is set to be no greater than 64, and H is set to
/// be no greater than 2048").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorerLimits {
    /// Maximum weights per compute unit (`L ≤ max_l`).
    pub max_l: u32,
    /// Maximum column height (`H ≤ max_h`).
    pub max_h: u32,
    /// Minimum column height (a column needs at least two adder-tree
    /// inputs to be meaningful).
    pub min_h: u32,
    /// Minimum column count as a multiple of the weight width
    /// (`N ≥ n_factor·Bw`).
    pub n_factor: u32,
}

impl ExplorerLimits {
    /// Whether every bound is non-zero and some power-of-two `H` lies in
    /// `[min_h, max_h]`.
    fn admits_a_geometry(&self) -> bool {
        [self.max_l, self.max_h, self.min_h, self.n_factor]
            .iter()
            .all(|&b| b > 0)
            && ceil_log2(self.min_h) <= self.max_h.ilog2()
    }
}

/// `⌈log2 x⌉`: the exponent of the smallest power of two `≥ x`.
fn ceil_log2(x: u32) -> u32 {
    x.checked_next_power_of_two()
        .map_or(u32::BITS, u32::trailing_zeros)
}

/// The power-of-two geometry box one specification admits, in `log2`
/// terms — the single derivation the GA's genome bounds and the
/// exhaustive enumerator share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GenomeBounds {
    /// `log2` of the smallest power of two `≥ min_h`.
    pub(crate) min_log_h: u32,
    /// `log2` of the largest power of two `≤ max_h`.
    pub(crate) max_log_h: u32,
    /// `log2` of the largest power of two `≤ max_l`.
    pub(crate) max_log_l: u32,
    /// The largest `log_h + log_l` keeping `N ≥ n_factor·Bw`:
    /// `log2(Wstore) − ⌈log2 n_factor⌉`.
    pub(crate) max_log_sum: u32,
}

impl Default for ExplorerLimits {
    fn default() -> Self {
        ExplorerLimits {
            max_l: 64,
            max_h: 2048,
            min_h: 2,
            n_factor: 4,
        }
    }
}

/// What the user asks SEGA-DCIM for: storage size, precision, and
/// exploration bounds (paper Fig. 4, "Number of storage weights &
/// Precision").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserSpec {
    /// Number of weights the macro must store.
    pub wstore: u64,
    /// Computing precision.
    pub precision: Precision,
    /// Exploration bounds.
    pub limits: ExplorerLimits,
}

impl UserSpec {
    /// Creates and validates a specification with the paper's default
    /// exploration bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when `wstore` is not a power of two or is too
    /// small for the precision's minimum geometry.
    pub fn new(wstore: u64, precision: Precision) -> Result<Self, SpecError> {
        Self::with_limits(wstore, precision, ExplorerLimits::default())
    }

    /// Creates a specification with custom exploration bounds.
    ///
    /// # Errors
    ///
    /// Same as [`UserSpec::new`], plus [`SpecError::InvalidLimits`] when
    /// a bound is zero or no power-of-two `H` lies in `[min_h, max_h]`.
    pub fn with_limits(
        wstore: u64,
        precision: Precision,
        limits: ExplorerLimits,
    ) -> Result<Self, SpecError> {
        if !wstore.is_power_of_two() {
            return Err(SpecError::WstoreNotPowerOfTwo(wstore));
        }
        if !limits.admits_a_geometry() {
            return Err(SpecError::InvalidLimits(limits));
        }
        let bw = precision.weight_bits() as u64;
        // Smallest macro: N = n_factor·Bw columns, H = min_h rows, L = 1.
        let minimum = limits.n_factor as u64 * bw * limits.min_h as u64;
        if wstore < minimum {
            return Err(SpecError::WstoreTooSmall { wstore, minimum });
        }
        Ok(UserSpec {
            wstore,
            precision,
            limits,
        })
    }

    /// The weight bit-width occupying the array (`Bw` or `BM`).
    pub fn weight_bits(&self) -> u32 {
        self.precision.weight_bits()
    }

    /// The array capacity in bits: `Wstore · Bw`.
    pub fn capacity_bits(&self) -> u64 {
        self.wstore * self.weight_bits() as u64
    }

    /// The exploration bounds as a power-of-two geometry box. Bounds that
    /// are not powers of two round inward (`max_h: 1000` admits `H ≤ 512`).
    pub(crate) fn genome_bounds(&self) -> GenomeBounds {
        let l = &self.limits;
        GenomeBounds {
            min_log_h: ceil_log2(l.min_h),
            max_log_h: l.max_h.ilog2(),
            max_log_l: l.max_l.ilog2(),
            max_log_sum: self.wstore.ilog2().saturating_sub(ceil_log2(l.n_factor)),
        }
    }
}

impl std::fmt::Display for UserSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} weights @ {}", self.wstore, self.precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_are_valid() {
        // §IV: Wstore from 4K to 128K across all precisions.
        for wstore in [4096u64, 8192, 16384, 32768, 65536, 131072] {
            UserSpec::new(wstore, Precision::Int8).unwrap();
            UserSpec::new(wstore, Precision::Bf16).unwrap();
            UserSpec::new(wstore, Precision::Fp32).unwrap();
        }
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert!(matches!(
            UserSpec::new(5000, Precision::Int8),
            Err(SpecError::WstoreNotPowerOfTwo(5000))
        ));
    }

    #[test]
    fn too_small_rejected() {
        // INT16 minimum: 4·16·2 = 128 weights.
        assert!(matches!(
            UserSpec::new(64, Precision::Int16),
            Err(SpecError::WstoreTooSmall { .. })
        ));
        assert!(UserSpec::new(128, Precision::Int16).is_ok());
    }

    #[test]
    fn capacity_follows_precision() {
        let s = UserSpec::new(8192, Precision::Bf16).unwrap();
        assert_eq!(s.capacity_bits(), 8192 * 8);
        let s = UserSpec::new(8192, Precision::Fp32).unwrap();
        assert_eq!(s.capacity_bits(), 8192 * 24);
    }

    #[test]
    fn default_limits_match_paper() {
        let l = ExplorerLimits::default();
        assert_eq!(l.max_l, 64);
        assert_eq!(l.max_h, 2048);
        assert_eq!(l.n_factor, 4);
    }

    #[test]
    fn display() {
        let s = UserSpec::new(8192, Precision::Int8).unwrap();
        assert_eq!(s.to_string(), "8192 weights @ INT8");
    }
}

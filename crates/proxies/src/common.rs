//! Shared infrastructure for the proxy applications.

use fti::Fti;
use mpisim::{Comm, MpiError, RankCtx};
use recovery::FaultInjector;

/// The three input problem sizes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// The default input problem.
    Small,
    /// The medium input problem.
    Medium,
    /// The large input problem.
    Large,
}

impl InputSize {
    /// All sizes in the order the paper's figures use.
    pub const ALL: [InputSize; 3] = [InputSize::Small, InputSize::Medium, InputSize::Large];

    /// The display name used in the figures ("Small" / "Medium" / "Large").
    pub fn name(&self) -> &'static str {
        match self {
            InputSize::Small => "Small",
            InputSize::Medium => "Medium",
            InputSize::Large => "Large",
        }
    }

    /// The linear scale factor of this size relative to small (Table I roughly doubles
    /// and triples the linear extent from small to medium to large).
    pub fn linear_factor(&self) -> f64 {
        match self {
            InputSize::Small => 1.0,
            InputSize::Medium => 2.0,
            InputSize::Large => 3.0,
        }
    }
}

impl std::fmt::Display for InputSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result a proxy application returns from one (possibly recovered) run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutput {
    /// Application name.
    pub app: &'static str,
    /// Number of main-loop iterations executed (after the final restart, this is the
    /// total logical iteration count of the algorithm).
    pub iterations: u64,
    /// A deterministic checksum of the final state. Recovered runs must reproduce the
    /// failure-free checksum exactly.
    pub checksum: f64,
    /// An application-specific quality metric (final residual norm, total energy,
    /// modularity, ...).
    pub figure_of_merit: f64,
    /// The half-open range `(start, count)` of global partition units this rank owned
    /// when it finished (z-planes, x-slabs or vertices, see
    /// [`ProxyApp::global_units`]). After a shrinking recovery the survivors' ranges
    /// must exactly tile `0..global_units`.
    pub owned_units: (u64, u64),
}

/// A proxy application instance, parameterised by its input problem.
pub trait ProxyApp: Send + Sync {
    /// The application's name as used in the paper ("AMG", "CoMD", ...).
    fn name(&self) -> &'static str;

    /// The number of main-loop iterations this instance will execute.
    fn iterations(&self) -> u64;

    /// The number of global partition units the application block-decomposes over the
    /// *current* world communicator: z-planes for the stencil codes, x-slabs for CoMD,
    /// vertices for miniVite. The global problem is sized from `initial_ranks` (the
    /// machine's full rank count) so that a world shrunk by ULFM recovery continues on
    /// the *same* global domain, merely re-partitioned over the survivors.
    fn global_units(&self, initial_ranks: usize) -> u64;

    /// Runs the application main loop on this rank: compute, communicate, checkpoint
    /// through `fti`, and consult `injector` at the top of every iteration.
    ///
    /// # Errors
    ///
    /// Propagates every [`MpiError`] (including injected failures) to the caller,
    /// which is normally the `recovery::FtDriver`.
    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError>;
}

/// A 1-D block decomposition of `total` items over `parts` owners.
///
/// The first `total % parts` owners get one extra item, matching the usual MPI block
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPartition {
    total: usize,
    parts: usize,
}

impl BlockPartition {
    /// Creates a partition of `total` items over `parts` owners.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0, "cannot partition over zero owners");
        BlockPartition { total, parts }
    }

    /// Number of items owned by `part`.
    pub fn count(&self, part: usize) -> usize {
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        base + usize::from(part < extra)
    }

    /// First global index owned by `part`.
    pub fn start(&self, part: usize) -> usize {
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        part * base + part.min(extra)
    }

    /// The owner of global index `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        debug_assert!(idx < self.total);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        let boundary = extra * (base + 1);
        if idx < boundary {
            idx / (base + 1)
        } else {
            extra + (idx - boundary) / base.max(1)
        }
    }

    /// Total number of items.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The calling rank's slab of a globally sized 1-D block decomposition: `global_units`
/// units partitioned over the ranks of `comm`. Returns `(start, count)` in global
/// units. Matches `fti::block_range`, so data protected with
/// `Fti::protect_partitioned` lands exactly on these boundaries after a shrink.
pub fn world_slab(comm: &Comm, global_units: usize) -> (usize, usize) {
    let p = BlockPartition::new(global_units, comm.size());
    (p.start(comm.rank()), p.count(comm.rank()))
}

/// The halo planes a rank received in its last [`halo_exchange`], held in buffers that
/// every exchange refills instead of reallocating. A rank keeps one `Halo` for its whole
/// run.
#[derive(Debug, Default)]
pub struct Halo {
    below: Vec<f64>,
    above: Vec<f64>,
}

impl Halo {
    /// The plane received from rank-1, or `None` at the bottom of the domain.
    pub fn below(&self) -> Option<&[f64]> {
        (!self.below.is_empty()).then_some(&self.below)
    }

    /// The plane received from rank+1, or `None` at the top of the domain.
    pub fn above(&self) -> Option<&[f64]> {
        (!self.above.is_empty()).then_some(&self.above)
    }
}

/// Exchanges boundary planes with the 1-D neighbours of this rank: sends `to_prev` to
/// rank-1 and `to_next` to rank+1, and receives their planes into `halo` (a side
/// without a neighbour, or whose neighbour sent an empty plane, reads `None`).
///
/// # Errors
///
/// Propagates communication failures.
pub fn halo_exchange(
    ctx: &mut RankCtx,
    comm: &Comm,
    tag: i32,
    to_prev: &[f64],
    to_next: &[f64],
    halo: &mut Halo,
) -> Result<(), MpiError> {
    let me = comm.rank();
    let n = comm.size();
    // Post sends first (eager), then receive: no deadlock because sends are buffered.
    if me > 0 {
        ctx.send_f64(comm, me - 1, tag, to_prev)?;
    }
    if me + 1 < n {
        ctx.send_f64(comm, me + 1, tag, to_next)?;
    }
    if me > 0 {
        ctx.recv_f64_into(comm, (me - 1) as i32, tag, &mut halo.below)?;
    } else {
        halo.below.clear();
    }
    if me + 1 < n {
        ctx.recv_f64_into(comm, (me + 1) as i32, tag, &mut halo.above)?;
    } else {
        halo.above.clear();
    }
    Ok(())
}

/// Distributed dot product: the global sum of `sum(a[i] * b[i])` over all ranks.
///
/// # Errors
///
/// Propagates communication failures from the all-reduce.
///
/// # Panics
///
/// Panics if the local slices have different lengths.
pub fn distributed_dot(
    ctx: &mut RankCtx,
    comm: &Comm,
    a: &[f64],
    b: &[f64],
) -> Result<f64, MpiError> {
    assert_eq!(a.len(), b.len(), "dot product needs equal-length vectors");
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    ctx.compute(2.0 * a.len() as f64);
    ctx.allreduce_sum_f64(comm, local)
}

/// Distributed squared 2-norm of a vector.
///
/// # Errors
///
/// Propagates communication failures from the all-reduce.
pub fn distributed_norm2(ctx: &mut RankCtx, comm: &Comm, a: &[f64]) -> Result<f64, MpiError> {
    distributed_dot(ctx, comm, a, a)
}

/// A deterministic checksum over a float slice that is stable under the exact
/// reductions the applications perform (plain summation with alternating weights so
/// that permutations of values are distinguished).
pub fn checksum(values: &[f64]) -> f64 {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| v * (1.0 + (i % 7) as f64 * 0.125))
        .sum()
}

/// A tiny deterministic pseudo-random generator (xorshift*) used by the workload
/// generators so that every rank produces reproducible input data without depending on
/// iteration order of hash maps or on the `rand` crate's stability guarantees.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed (zero is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> Self {
        DetRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }
}

/// Convenience wrapper: runs `app` under the driver-free, failure-free path (used by
/// unit tests and examples that exercise an application without a fault-tolerance
/// design).
///
/// # Errors
///
/// Propagates application and communication errors.
pub fn run_standalone(
    app: &dyn ProxyApp,
    ctx: &mut RankCtx,
    store: std::sync::Arc<fti::store::CheckpointStore>,
    fti_config: fti::FtiConfig,
) -> Result<AppOutput, MpiError> {
    let mut fti = Fti::init(fti_config, store, ctx)?;
    let injector = FaultInjector::disabled();
    app.run(ctx, &mut fti, &injector)
}

/// Helpers of the kernel-versus-oracle tests of the proxy modules.
#[cfg(test)]
pub(crate) mod testing {
    use super::DetRng;

    /// The bit pattern of `x`, except that a NaN equals any NaN: which sign and payload
    /// an invalid operation yields is the code generator's choice, not the kernel's.
    pub(crate) fn bits(x: f64) -> u64 {
        if x.is_nan() {
            u64::MAX
        } else {
            x.to_bits()
        }
    }

    /// [`bits`] of every element.
    pub(crate) fn all_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|&x| bits(x)).collect()
    }

    /// `len` values that exercise rounding and the special cases of IEEE arithmetic:
    /// mostly ordinary magnitudes over six decades, salted with ±0, subnormals and
    /// values near the overflow threshold, and, if `wild`, ±inf and NaN.
    pub(crate) fn awkward_values(rng: &mut DetRng, len: usize, wild: bool) -> Vec<f64> {
        (0..len)
            .map(|_| {
                let sign = if rng.next_below(2) == 0 { 1.0 } else { -1.0 };
                match rng.next_below(100) {
                    0..=5 => sign * 0.0,
                    6..=11 => sign * f64::from_bits(rng.next_u64() >> 12),
                    12..=15 => sign * 1.0e308 * rng.next_f64(),
                    16..=17 if wild => sign * f64::INFINITY,
                    18..=19 if wild => f64::NAN,
                    _ => sign * rng.next_f64() * 10f64.powi(rng.next_below(7) as i32 - 3),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Cluster, ClusterConfig};

    #[test]
    fn input_size_properties() {
        assert_eq!(InputSize::Small.name(), "Small");
        assert_eq!(InputSize::Large.to_string(), "Large");
        assert!(InputSize::Medium.linear_factor() > InputSize::Small.linear_factor());
        assert_eq!(InputSize::ALL.len(), 3);
    }

    #[test]
    fn block_partition_covers_everything_exactly_once() {
        for (total, parts) in [(10, 3), (7, 7), (100, 8), (5, 10), (0, 4)] {
            let p = BlockPartition::new(total, parts);
            let mut covered = 0;
            for part in 0..parts {
                assert_eq!(p.start(part), covered);
                covered += p.count(part);
            }
            assert_eq!(covered, total);
            for idx in 0..total {
                let owner = p.owner(idx);
                assert!(idx >= p.start(owner) && idx < p.start(owner) + p.count(owner));
            }
        }
    }

    #[test]
    fn halo_exchange_passes_planes_between_neighbours() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            let me = world.rank() as f64;
            let mut halo = Halo::default();
            let mut seen = Vec::new();
            for round in 0..3 {
                let base = me * 10.0 + round as f64 * 100.0;
                let plane = [base; 16];
                let next = [base + 1.0; 16];
                halo_exchange(ctx, &world, 5, &plane, &next, &mut halo)?;
                let first =
                    |side: Option<&[f64]>| side.map(|p| (p[0], p.len(), p.as_ptr() as usize));
                seen.push((first(halo.below()), first(halo.above())));
            }
            Ok(seen)
        });
        assert!(outcome.all_ok());
        for rank in 0..4 {
            let seen = outcome.value_of(rank);
            for (round, &(below, above)) in seen.iter().enumerate() {
                let base = round as f64 * 100.0;
                // Rank r receives rank r-1's "to_next" and rank r+1's "to_prev"; the
                // domain boundaries receive nothing from outside.
                let want_below = (rank > 0).then(|| (base + (rank - 1) as f64 * 10.0 + 1.0, 16));
                let want_above = (rank < 3).then(|| (base + (rank + 1) as f64 * 10.0, 16));
                assert_eq!(below.map(|(v, len, _)| (v, len)), want_below);
                assert_eq!(above.map(|(v, len, _)| (v, len)), want_above);
                // The second and third exchange refill the first one's buffers.
                assert_eq!(below.map(|b| b.2), seen[0].0.map(|b| b.2));
                assert_eq!(above.map(|a| a.2), seen[0].1.map(|a| a.2));
            }
        }
    }

    #[test]
    fn distributed_dot_matches_serial() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let world = ctx.world();
            let a = vec![(ctx.rank() + 1) as f64; 3];
            let b = vec![2.0; 3];
            distributed_dot(ctx, &world, &a, &b)
        });
        // sum over ranks of 3 * (rank+1) * 2 = 6 * (1+2+3+4) = 60.
        for r in outcome.results() {
            assert_eq!(*r.as_ref().unwrap(), 60.0);
        }
    }

    #[test]
    fn checksum_distinguishes_permutations() {
        let a = checksum(&[1.0, 2.0, 3.0]);
        let b = checksum(&[3.0, 2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(checksum(&[]), 0.0);
    }

    #[test]
    fn det_rng_is_deterministic_and_in_range() {
        let mut a = DetRng::new(12345);
        let mut b = DetRng::new(12345);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            let i = a.next_below(10);
            let _ = b.next_below(10);
            assert!(i < 10);
        }
        let mut c = DetRng::new(0);
        assert!(c.next_f64().is_finite());
    }

    #[test]
    #[should_panic]
    fn dot_with_mismatched_lengths_panics() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let _ = cluster.run(|ctx| {
            let world = ctx.world();
            distributed_dot(ctx, &world, &[1.0], &[1.0, 2.0])
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every block partition covers each index exactly once and the owner lookup is
        /// consistent with the ranges.
        #[test]
        fn block_partition_is_a_partition(total in 0usize..5000, parts in 1usize..64) {
            let p = BlockPartition::new(total, parts);
            let mut covered = 0;
            for part in 0..parts {
                prop_assert_eq!(p.start(part), covered);
                covered += p.count(part);
            }
            prop_assert_eq!(covered, total);
            if total > 0 {
                let idx = total / 2;
                let owner = p.owner(idx);
                prop_assert!(idx >= p.start(owner));
                prop_assert!(idx < p.start(owner) + p.count(owner));
            }
        }

        /// The deterministic RNG always produces values in range.
        #[test]
        fn det_rng_ranges(seed in any::<u64>(), bound in 1usize..1000) {
            let mut rng = DetRng::new(seed);
            for _ in 0..10 {
                let f = rng.next_f64();
                prop_assert!((0.0..1.0).contains(&f));
                prop_assert!(rng.next_below(bound) < bound);
            }
        }
    }
}

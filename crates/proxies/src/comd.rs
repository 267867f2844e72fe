//! CoMD: a molecular-dynamics proxy (Lennard-Jones).
//!
//! CoMD simulates particle motion with a Lennard-Jones potential using link cells and
//! velocity-Verlet time integration. The re-implementation keeps the computational
//! pattern: each rank owns a slab of the global simulation box (1-D decomposition along
//! x), builds link cells over its particles, exchanges a one-cell-wide strip of ghost
//! particles with its neighbours every step, computes short-range LJ forces from the
//! cell neighbourhood, integrates positions and velocities, and reduces the total
//! energy across ranks every step.
//!
//! FTI protects the particle positions, velocities and the step counter — the
//! cross-iteration state the paper's checkpoint-object analysis identifies.

use fti::{Fti, Protectable};
use mpisim::{Comm, MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{checksum, world_slab, AppOutput, DetRng, ProxyApp};

/// Lennard-Jones cutoff radius in reduced units.
const CUTOFF: f64 = 2.5;
/// Lattice spacing of the initial configuration (slightly above the LJ minimum so the
/// system starts near equilibrium and stays numerically tame).
const LATTICE: f64 = 1.2;
/// Time step in reduced units.
const DT: f64 = 0.002;

/// CoMD parameters: the global lattice dimensions (`-nx -ny -nz`, one particle per
/// lattice site here) and the number of time steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComdParams {
    /// Global lattice sites in x.
    pub nx: usize,
    /// Global lattice sites in y.
    pub ny: usize,
    /// Global lattice sites in z.
    pub nz: usize,
    /// Number of velocity-Verlet steps.
    pub steps: u64,
}

impl ComdParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or no steps are requested.
    pub fn new(nx: usize, ny: usize, nz: usize, steps: u64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "lattice dimensions must be positive"
        );
        assert!(steps > 0, "need at least one step");
        ComdParams { nx, ny, nz, steps }
    }

    /// Total number of particles in the global box.
    pub fn global_particles(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// The CoMD proxy application.
#[derive(Debug, Clone)]
pub struct Comd {
    params: ComdParams,
}

impl Comd {
    /// Creates a CoMD instance.
    pub fn new(params: ComdParams) -> Self {
        Comd { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &ComdParams {
        &self.params
    }

    /// Generates this rank's initial particles: lattice positions (with a small
    /// deterministic jitter) inside the rank's x-slab, and zero initial velocities.
    fn init_particles(&self, rank: usize, nranks: usize) -> (Vec<f64>, Vec<f64>, f64, f64) {
        let slab = crate::common::BlockPartition::new(self.params.nx, nranks);
        let x_start = slab.start(rank);
        let x_count = slab.count(rank);
        let mut rng = DetRng::new(0xC0FFEE ^ rank as u64);
        let mut positions = Vec::with_capacity(x_count * self.params.ny * self.params.nz * 3);
        for ix in 0..x_count {
            for iy in 0..self.params.ny {
                for iz in 0..self.params.nz {
                    let jitter = 0.05 * (rng.next_f64() - 0.5);
                    positions.push((x_start + ix) as f64 * LATTICE + jitter);
                    positions.push(iy as f64 * LATTICE + 0.05 * (rng.next_f64() - 0.5));
                    positions.push(iz as f64 * LATTICE + 0.05 * (rng.next_f64() - 0.5));
                }
            }
        }
        let velocities = vec![0.0; positions.len()];
        let slab_min = x_start as f64 * LATTICE;
        let slab_max = (x_start + x_count) as f64 * LATTICE;
        (positions, velocities, slab_min, slab_max)
    }

    /// Exchanges ghost particles (positions near the slab boundaries) with the x
    /// neighbours and returns them concatenated.
    fn exchange_ghosts(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        positions: &[f64],
        slab_min: f64,
        slab_max: f64,
    ) -> Result<Vec<f64>, MpiError> {
        let mut to_prev = Vec::new();
        let mut to_next = Vec::new();
        for p in positions.chunks_exact(3) {
            if p[0] < slab_min + CUTOFF {
                to_prev.extend_from_slice(p);
            }
            if p[0] > slab_max - CUTOFF {
                to_next.extend_from_slice(p);
            }
        }
        let me = comm.rank();
        let n = comm.size();
        if me > 0 {
            ctx.send_f64(comm, me - 1, 41, &to_prev)?;
        }
        if me + 1 < n {
            ctx.send_f64(comm, me + 1, 41, &to_next)?;
        }
        let mut ghosts = Vec::new();
        if me > 0 {
            ghosts.extend(ctx.recv_f64(comm, (me - 1) as i32, 41)?.1);
        }
        if me + 1 < n {
            ghosts.extend(ctx.recv_f64(comm, (me + 1) as i32, 41)?.1);
        }
        Ok(ghosts)
    }
}

/// Lennard-Jones forces on the owned particles and the local potential energy, with
/// the flops to charge: an all-pairs scan under a cutoff test (the link cells of the
/// original are approximated by the cutoff; the arithmetic per interacting pair is the
/// real LJ kernel).
///
/// The scan is pruned by blocks: consecutive particles are grouped [`BLOCK`] at a time
/// under a per-call bounding box, and a block whose box lies at least [`CUTOFF`] from
/// particle `i` along one axis is skipped whole. Every pair in such a block fails the
/// cutoff test (`|dx| ≥ CUTOFF` survives the rounding of `dx`, `dx²` and the sum), so
/// the pairs that do interact are visited in the all-pairs order — `i` ascending, `j`
/// ascending, owned before ghosts — and every accumulation is bit-identical to the
/// unpruned scan's; the flops of the skipped tests are still charged, in closed form.
fn compute_forces(positions: &[f64], ghosts: &[f64], forces: &mut [f64]) -> (f64, f64) {
    let n = positions.len() / 3;
    let g = ghosts.len() / 3;
    forces.iter_mut().for_each(|f| *f = 0.0);
    let owned_boxes = block_boxes(positions);
    let ghost_boxes = block_boxes(ghosts);
    let mut potential = 0.0;
    let mut owned_hits = 0u64;
    let mut ghost_hits = 0u64;
    for i in 0..n {
        let pi = &positions[3 * i..3 * i + 3];
        // A non-finite coordinate makes `r2` NaN, which *passes* the cutoff test: such
        // a particle prunes nothing (and poisons its own block's box).
        let prune = pi.iter().all(|x| x.is_finite());
        // Owned-owned pairs (each counted once): the rest of `i`'s own block, then
        // the later blocks.
        for (b, bbox) in owned_boxes.iter().enumerate().skip(i / BLOCK) {
            if prune && bbox.is_beyond_cutoff(pi) {
                continue;
            }
            let first = (b * BLOCK).max(i + 1);
            let last = ((b + 1) * BLOCK).min(n);
            for j in first..last {
                if let Some((energy, f)) = lj_pair(pi, &positions[3 * j..3 * j + 3]) {
                    potential += energy;
                    for d in 0..3 {
                        forces[3 * i + d] += f[d];
                        forces[3 * j + d] -= f[d];
                    }
                    owned_hits += 1;
                }
            }
        }
        // Owned-ghost pairs (half the energy belongs to this rank).
        for (bbox, block) in ghost_boxes.iter().zip(ghosts.chunks(3 * BLOCK)) {
            if prune && bbox.is_beyond_cutoff(pi) {
                continue;
            }
            for pj in block.chunks_exact(3) {
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    potential += 0.5 * energy;
                    for d in 0..3 {
                        forces[3 * i + d] += f[d];
                    }
                    ghost_hits += 1;
                }
            }
        }
    }
    // 12 flops per cutoff test — all n(n-1)/2 + n·g of them: the cost model is the
    // all-pairs scan — plus 20 per interacting owned pair and 12 per interacting ghost
    // pair. Integer-valued and far below 2^53, hence equal to the sum the unpruned
    // loop accumulates term by term.
    let tests = n * n.saturating_sub(1) / 2 + n * g;
    let flops = 12.0 * tests as f64 + 20.0 * owned_hits as f64 + 12.0 * ghost_hits as f64;
    (potential, flops)
}

/// Particles per pruning block of [`compute_forces`].
const BLOCK: usize = 16;

/// The Lennard-Jones interaction of one pair: its energy and the force on `pi`, or
/// `None` beyond the cutoff (and for coincident particles).
fn lj_pair(pi: &[f64], pj: &[f64]) -> Option<(f64, [f64; 3])> {
    let dx = pi[0] - pj[0];
    let dy = pi[1] - pj[1];
    let dz = pi[2] - pj[2];
    let r2 = dx * dx + dy * dy + dz * dz;
    let cutoff2 = CUTOFF * CUTOFF;
    if r2 >= cutoff2 || r2 < 1e-12 {
        return None;
    }
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;
    // V = 4 (r^-12 - r^-6); F = 24 (2 r^-12 - r^-6) / r^2 * dr
    let energy = 4.0 * (inv_r12 - inv_r6);
    let scale = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
    Some((energy, [scale * dx, scale * dy, scale * dz]))
}

/// Axis-aligned bounding box of one block of particles.
#[derive(Debug)]
struct BlockBox {
    lo: [f64; 3],
    hi: [f64; 3],
}

impl BlockBox {
    /// Whether every particle of the block is at least [`CUTOFF`] from `p` along one
    /// axis. Never true for a block holding a non-finite coordinate (its box is NaN).
    fn is_beyond_cutoff(&self, p: &[f64]) -> bool {
        (0..3).any(|d| p[d] - self.hi[d] >= CUTOFF || self.lo[d] - p[d] >= CUTOFF)
    }
}

/// The bounding boxes of `points` (xyz triples) taken [`BLOCK`] at a time.
fn block_boxes(points: &[f64]) -> Vec<BlockBox> {
    points
        .chunks(3 * BLOCK)
        .map(|block| {
            if !block.iter().all(|x| x.is_finite()) {
                return BlockBox {
                    lo: [f64::NAN; 3],
                    hi: [f64::NAN; 3],
                };
            }
            let mut bbox = BlockBox {
                lo: [f64::INFINITY; 3],
                hi: [f64::NEG_INFINITY; 3],
            };
            for p in block.chunks_exact(3) {
                for (d, &x) in p.iter().enumerate() {
                    bbox.lo[d] = bbox.lo[d].min(x);
                    bbox.hi[d] = bbox.hi[d].max(x);
                }
            }
            bbox
        })
        .collect()
}

impl ProxyApp for Comd {
    fn name(&self) -> &'static str {
        "CoMD"
    }

    fn iterations(&self) -> u64 {
        self.params.steps
    }

    fn global_units(&self, _initial_ranks: usize) -> u64 {
        // CoMD's box is already globally sized: one unit = one x lattice plane of
        // ny x nz particles, regardless of how many ranks share it.
        self.params.nx as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        // The x slab is derived from the current world, so that after a shrink the
        // survivors split the same global box among themselves.
        let (x_start, x_count) = world_slab(&world, self.params.nx);
        let (mut positions, mut velocities, slab_min, slab_max) =
            self.init_particles(world.rank(), world.size());
        let mut step: u64 = 0;

        fti.protect_partitioned(0, "positions", &positions, self.params.nx as u64);
        fti.protect_partitioned(1, "velocities", &velocities, self.params.nx as u64);
        fti.protect(2, "step", &step);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut positions as &mut dyn Protectable),
                    (1, &mut velocities as &mut dyn Protectable),
                    (2, &mut step as &mut dyn Protectable),
                ],
            )?;
        }

        let mut forces = vec![0.0f64; positions.len()];
        let mut total_energy = 0.0f64;
        while step < self.params.steps {
            let current = step + 1;
            injector.maybe_fail(ctx, current)?;

            let ghosts = self.exchange_ghosts(ctx, &world, &positions, slab_min, slab_max)?;
            let (potential, flops) = compute_forces(&positions, &ghosts, &mut forces);
            ctx.compute(flops);

            // Velocity Verlet (mass = 1): a single force evaluation per step, using the
            // previous step's forces implicitly through the half-kick ordering.
            let mut kinetic = 0.0;
            for i in 0..velocities.len() {
                velocities[i] += DT * forces[i];
                positions[i] += DT * velocities[i];
                kinetic += 0.5 * velocities[i] * velocities[i];
            }
            ctx.compute(5.0 * velocities.len() as f64);

            total_energy = ctx.allreduce_sum_f64(&world, potential + kinetic)?;
            step = current;

            if fti.should_checkpoint(step) {
                fti.checkpoint(
                    ctx,
                    step,
                    &[
                        (0, &positions as &dyn Protectable),
                        (1, &velocities as &dyn Protectable),
                        (2, &step as &dyn Protectable),
                    ],
                )?;
            }
        }

        fti.finalize(ctx)?;
        let local = checksum(&positions) + checksum(&velocities);
        let global = ctx.allreduce_sum_f64(&world, local)?;
        Ok(AppOutput {
            app: self.name(),
            iterations: step,
            checksum: global,
            figure_of_merit: total_energy,
            owned_units: (x_start as u64, x_count as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_standalone;
    use fti::store::CheckpointStore;
    use fti::FtiConfig;
    use mpisim::{Cluster, ClusterConfig};

    fn small() -> Comd {
        Comd::new(ComdParams::new(8, 4, 4, 10))
    }

    #[test]
    fn particle_counts() {
        assert_eq!(ComdParams::new(8, 4, 4, 1).global_particles(), 128);
    }

    #[test]
    fn particles_are_distributed_across_ranks() {
        let app = small();
        let (p0, v0, min0, max0) = app.init_particles(0, 4);
        let (p1, _, min1, _) = app.init_particles(1, 4);
        assert_eq!(p0.len(), 2 * 4 * 4 * 3);
        assert_eq!(v0.len(), p0.len());
        assert!(max0 <= min1 + 1e-9);
        assert!(min0 < max0);
        // Positions of rank 1 start where rank 0's slab ends.
        assert!(p1.chunks_exact(3).all(|p| p[0] > max0 - 0.1));
    }

    #[test]
    fn energy_stays_finite_and_simulation_is_deterministic() {
        let run = || {
            let cluster = Cluster::new(ClusterConfig::with_ranks(4));
            let outcome = cluster.run(|ctx| {
                run_standalone(
                    &small(),
                    ctx,
                    CheckpointStore::shared(),
                    FtiConfig::default(),
                )
            });
            assert!(outcome.all_ok(), "{:?}", outcome.errors());
            let out = outcome.value_of(0).clone();
            assert_eq!(out.app, "CoMD");
            assert_eq!(out.iterations, 10);
            assert!(out.figure_of_merit.is_finite());
            assert!(out.checksum.is_finite());
            out.checksum
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forces_are_newton_balanced_without_ghosts() {
        let (positions, _, _, _) = small().init_particles(0, 1);
        let mut forces = vec![0.0; positions.len()];
        compute_forces(&positions, &[], &mut forces);
        // Newton's third law: the net force over an isolated system is ~zero.
        let net: f64 = forces.iter().sum();
        assert!(net.abs() < 1e-9);
    }

    /// The unpruned all-pairs scan `compute_forces` replaced (same pair kernel), flops
    /// counted term by term: the oracle the pruned scan must equal bit for bit.
    fn all_pairs_forces(positions: &[f64], ghosts: &[f64], forces: &mut [f64]) -> (f64, f64) {
        let n = positions.len() / 3;
        forces.iter_mut().for_each(|f| *f = 0.0);
        let mut potential = 0.0;
        let mut flops = 0.0;
        for i in 0..n {
            let pi = &positions[3 * i..3 * i + 3];
            for j in (i + 1)..n {
                let pj = &positions[3 * j..3 * j + 3];
                flops += 12.0;
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    potential += energy;
                    for d in 0..3 {
                        forces[3 * i + d] += f[d];
                        forces[3 * j + d] -= f[d];
                    }
                    flops += 20.0;
                }
            }
            for pj in ghosts.chunks_exact(3) {
                flops += 12.0;
                if let Some((energy, f)) = lj_pair(pi, pj) {
                    potential += 0.5 * energy;
                    for d in 0..3 {
                        forces[3 * i + d] += f[d];
                    }
                    flops += 12.0;
                }
            }
        }
        (potential, flops)
    }

    fn assert_pruned_equals_all_pairs(positions: &[f64], ghosts: &[f64], what: &str) {
        let mut pruned = vec![0.0; positions.len()];
        let mut oracle = vec![0.0; positions.len()];
        let (potential, flops) = compute_forces(positions, ghosts, &mut pruned);
        let (want_potential, want_flops) = all_pairs_forces(positions, ghosts, &mut oracle);
        // Bit equality, except that a NaN equals any NaN: which sign and payload an
        // invalid operation yields is the code generator's choice, not the kernel's.
        let bits = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
        let all_bits = |v: &[f64]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
        assert_eq!(all_bits(&pruned), all_bits(&oracle), "{what}: forces");
        assert_eq!(bits(potential), bits(want_potential), "{what}: potential");
        assert_eq!(bits(flops), bits(want_flops), "{what}: flops");
    }

    #[test]
    fn pruned_forces_equal_the_all_pairs_scan_bit_for_bit() {
        // (lattice, particles per rank): the middle rank of three owns 4 x 8 x 8 and
        // 8 x 16 x 16 sites; the rank index seeds the jitter.
        for (params, per_rank) in [
            (ComdParams::new(12, 8, 8, 1), 256),
            (ComdParams::new(24, 16, 16, 1), 2048),
        ] {
            let app = Comd::new(params);
            for rank in 0..3usize {
                let (mut positions, mut velocities, slab_min, slab_max) =
                    app.init_particles(rank, 3);
                assert_eq!(positions.len() / 3, per_rank);
                // What `exchange_ghosts` would deliver: the neighbours' boundary strips.
                let mut strips: Vec<f64> = Vec::new();
                for peer in (0..3usize).filter(|p| p.abs_diff(rank) == 1) {
                    let (theirs, ..) = app.init_particles(peer, 3);
                    for p in theirs.chunks_exact(3) {
                        if p[0] > slab_min - CUTOFF && p[0] < slab_max + CUTOFF {
                            strips.extend_from_slice(p);
                        }
                    }
                }
                assert!(!strips.is_empty());
                for (ghosts, label) in [(&[][..], "no ghosts"), (&strips[..], "ghosts")] {
                    let what = format!("{per_rank} particles, rank {rank}, {label}");
                    assert_pruned_equals_all_pairs(&positions, ghosts, &format!("{what}, before"));
                    let mut forces = vec![0.0; positions.len()];
                    for _ in 0..20 {
                        compute_forces(&positions, ghosts, &mut forces);
                        for i in 0..velocities.len() {
                            velocities[i] += DT * forces[i];
                            positions[i] += DT * velocities[i];
                        }
                    }
                    assert_pruned_equals_all_pairs(
                        &positions,
                        ghosts,
                        &format!("{what}, after 20 steps"),
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_coordinates_prune_nothing() {
        // NaN distances pass the cutoff test of the all-pairs scan; the pruned kernel
        // must reproduce even that.
        let (mut positions, ..) = Comd::new(ComdParams::new(8, 8, 8, 1)).init_particles(0, 1);
        let ghosts = positions[..3 * 40].to_vec();
        positions[3 * 100 + 1] = f64::NAN;
        positions[3 * 300] = f64::INFINITY;
        positions[3 * 301] = f64::INFINITY;
        positions[3 * 400] = f64::INFINITY;
        assert_pruned_equals_all_pairs(&positions, &ghosts, "non-finite");
    }

    #[test]
    fn ghost_exchange_only_sends_boundary_strips() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            let app = Comd::new(ComdParams::new(16, 2, 2, 1));
            let world = ctx.world();
            let (positions, _, slab_min, slab_max) = app.init_particles(ctx.rank(), 2);
            let ghosts = app.exchange_ghosts(ctx, &world, &positions, slab_min, slab_max)?;
            // Each rank owns 8 lattice planes of 4 particles; the cutoff of 2.5 at a
            // lattice spacing of 1.2 selects about 3 planes (12 particles) per side.
            Ok((positions.len() / 3, ghosts.len() / 3))
        });
        assert!(outcome.all_ok());
        for r in outcome.results() {
            let (owned, ghosts) = r.as_ref().unwrap();
            assert_eq!(*owned, 32);
            assert!(*ghosts > 0 && *ghosts < *owned);
        }
    }
}

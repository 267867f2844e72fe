//! CoMD: a molecular-dynamics proxy (Lennard-Jones).
//!
//! The original CoMD simulates particle motion with a Lennard-Jones potential using
//! link cells and velocity-Verlet time integration. The re-implementation keeps the
//! computational pattern: each rank owns a slab of the global simulation box (1-D
//! decomposition along x), exchanges a cutoff-wide strip of ghost particles with its
//! neighbours every step, computes the short-range LJ forces between all particles
//! within the cutoff of each other, integrates positions and velocities, and reduces
//! the total energy across ranks every step.
//!
//! There are no link cells here. The *virtual-time* cost charged for a force
//! evaluation is that of an all-pairs scan under the cutoff test, and its result is,
//! bit for bit, what that scan computes; the *host* finds the interacting pairs
//! through per-particle partner lists with a skin (Verlet lists), built from a box
//! hierarchy over the particles' index order and reused while no particle has moved
//! far (`ForceScratch` and `compute_forces` below).
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

/// How far beyond the cutoff the partner lists of [`compute_forces`] reach: short
/// enough that they stop before the lattice's next shell of neighbours (the cutoff
/// falls between the shells at 2 and √5 lattice spacings, 2.40 and 2.68), long enough
/// that the lists of a run are built once (a particle moves about 0.004 in 20 steps).
const SKIN: f64 = 0.1;
/// The reach of the partner lists.
const REACH: f64 = CUTOFF + SKIN;
/// How far a particle may be from where it was when the partner lists were built
/// before they are rebuilt. Two particles within the cutoff of each other now, neither
/// of which has moved further than this, were within `CUTOFF + 2 * MOVE_LIMIT` of each
/// other then, which is short of [`REACH`] by a margin (0.01) that dwarfs every
/// rounding error involved: a computed separation is off by a relative 2^-53 of its
/// own size, whatever the magnitude of the coordinates.
const MOVE_LIMIT: f64 = 0.45 * SKIN;
/// Points per leaf of the box hierarchy the partner lists are built with: the width of
/// its lane-wise distance test.
const LEAF: usize = 8;
/// Leaves per group, the upper level of the box hierarchy.
const GROUP: usize = 16;
/// Listed partners whose separations, cutoff tests and Lennard-Jones terms are
/// computed together, lane-wise.
const CHUNK: usize = 32;

/// Whether a pair at squared distance `r2` interacts: inside the cutoff and not
/// coincident. A NaN distance (from a non-finite coordinate) *does* interact.
fn interacts(r2: f64) -> bool {
    (1e-12..CUTOFF * CUTOFF).contains(&r2) || r2.is_nan()
}

/// Axis-aligned bounding box of a run of consecutive points.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    lo: [f64; 3],
    hi: [f64; 3],
}

impl Bounds {
    /// The box of a run holding a non-finite coordinate: NaN bounds, which no
    /// comparison finds out of reach of anything.
    const UNBOUNDED: Bounds = Bounds {
        lo: [f64::NAN; 3],
        hi: [f64::NAN; 3],
    };

    fn of_points(x: &[f64], y: &[f64], z: &[f64]) -> Bounds {
        let mut bounds = Bounds {
            lo: [f64::INFINITY; 3],
            hi: [f64::NEG_INFINITY; 3],
        };
        for (d, axis) in [x, y, z].into_iter().enumerate() {
            for &c in axis {
                if !c.is_finite() {
                    return Bounds::UNBOUNDED;
                }
                bounds.lo[d] = bounds.lo[d].min(c);
                bounds.hi[d] = bounds.hi[d].max(c);
            }
        }
        bounds
    }

    fn of_boxes(boxes: &[Bounds]) -> Bounds {
        let mut bounds = boxes[0];
        for b in &boxes[1..] {
            for d in 0..3 {
                // `min`/`max` would drop the NaN of an unbounded box.
                if b.lo[d].is_nan() {
                    return Bounds::UNBOUNDED;
                }
                bounds.lo[d] = bounds.lo[d].min(b.lo[d]);
                bounds.hi[d] = bounds.hi[d].max(b.hi[d]);
            }
        }
        bounds
    }

    /// Whether every point of `self` is at least [`REACH`] from every point of `other`
    /// along one axis. Then every pair across the two is out of reach: `|dx| ≥ REACH`
    /// survives the rounding of `dx` (rounding is monotone, and `dx` is no closer to
    /// zero than the gap of the boxes), of `dx²` and of the sum, so `r2 ≥ REACH²`.
    fn is_out_of_reach(&self, other: &Bounds) -> bool {
        (0..3).any(|d| other.lo[d] - self.hi[d] >= REACH || self.lo[d] - other.hi[d] >= REACH)
    }
}

/// The per-rank state of [`compute_forces`], sized by the rank's own particles and
/// ghosts and kept from step to step.
///
/// Every owned particle has a list of partners: the later owned particles, then the
/// ghosts, that were within [`REACH`] of it when the lists were built, in ascending
/// order. The lists stay in use for as long as every particle (owned or ghost, by
/// slot — whichever particle occupies it) is within [`MOVE_LIMIT`] of where it then
/// was, so they hold every pair now within the cutoff; across the steps of a run the
/// particles move by a fraction of that.
///
/// The lists are built through a two-level box hierarchy over consecutive index ranges
/// (particles are generated, and stay, in lattice order, so a run of consecutive
/// particles is compact in space): the slots are cut into leaves of [`LEAF`], leaves
/// into groups of [`GROUP`], each under its bounding box. Coordinates are kept as one
/// array per axis so that a leaf is tested against a particle lane-wise.
#[derive(Debug, Default)]
struct ForceScratch {
    /// Coordinates by axis, one slot per particle: the owned particles (an owned
    /// particle's slot is its index), padding up to a whole leaf, the ghosts, padding
    /// up to a whole leaf.
    axes: [Vec<f64>; 3],
    /// The number of owned particles and the slot one past the last ghost.
    owned: usize,
    end: usize,
    /// `axes`, `owned` and `end` as they were when the lists were built.
    listed_at: [Vec<f64>; 3],
    listed_owned: usize,
    listed_end: usize,
    /// The partner slots of owned particle `i`: the owned ones are
    /// `partners[starts[2 * i]..starts[2 * i + 1]]`, the ghosts
    /// `partners[starts[2 * i + 1]..starts[2 * i + 2]]`.
    starts: Vec<u32>,
    partners: Vec<u32>,
    leaves: Vec<Bounds>,
    groups: Vec<Bounds>,
    /// The leaves within reach of the leaf whose particles' lists are being built.
    candidates: Vec<usize>,
    /// How often the lists were built.
    #[cfg(test)]
    builds: usize,
}

impl ForceScratch {
    /// Transposes the particles into the per-axis arrays.
    fn load(&mut self, positions: &[f64], ghosts: &[f64]) {
        self.owned = positions.len() / 3;
        let owned_slots = self.owned.next_multiple_of(LEAF);
        self.end = owned_slots + ghosts.len() / 3;
        for (d, axis) in self.axes.iter_mut().enumerate() {
            axis.clear();
            axis.extend(positions.chunks_exact(3).map(|p| p[d]));
            axis.resize(owned_slots, 0.0);
            axis.extend(ghosts.chunks_exact(3).map(|p| p[d]));
            axis.resize(self.end.next_multiple_of(LEAF), 0.0);
        }
    }

    /// Whether the lists were built for this many particles and ghosts, none of which
    /// has moved beyond [`MOVE_LIMIT`] since (a non-finite coordinate has).
    fn lists_hold(&self) -> bool {
        let [x, y, z] = &self.axes;
        let [x0, y0, z0] = &self.listed_at;
        if (self.owned, self.end) != (self.listed_owned, self.listed_end) {
            return false;
        }
        let mut within = true;
        for slot in 0..x.len() {
            let (dx, dy, dz) = (x[slot] - x0[slot], y[slot] - y0[slot], z[slot] - z0[slot]);
            within &= dx * dx + dy * dy + dz * dz <= MOVE_LIMIT * MOVE_LIMIT;
        }
        within
    }

    /// Builds the partner lists from the current coordinates.
    fn list_partners(&mut self) {
        let [x, y, z] = &self.axes;
        let owned_leaves = self.owned.div_ceil(LEAF);
        // The slot one past the last particle of a leaf.
        let last_of = |leaf: usize| {
            let limit = if leaf < owned_leaves {
                self.owned
            } else {
                self.end
            };
            limit.min((leaf + 1) * LEAF)
        };
        self.leaves.clear();
        self.leaves.extend((0..x.len() / LEAF).map(|leaf| {
            let slots = leaf * LEAF..last_of(leaf);
            Bounds::of_points(&x[slots.clone()], &y[slots.clone()], &z[slots])
        }));
        self.groups.clear();
        self.groups
            .extend(self.leaves.chunks(GROUP).map(Bounds::of_boxes));

        self.starts.clear();
        self.partners.clear();
        for leaf in 0..owned_leaves {
            // The leaves from `leaf` onwards — owned, then ghost — within reach of it.
            let bounds = self.leaves[leaf];
            self.candidates.clear();
            for (g, group) in self.groups.iter().enumerate().skip(leaf / GROUP) {
                if bounds.is_out_of_reach(group) {
                    continue;
                }
                let others = (g * GROUP).max(leaf)..((g + 1) * GROUP).min(self.leaves.len());
                self.candidates
                    .extend(others.filter(|&other| !bounds.is_out_of_reach(&self.leaves[other])));
            }
            let ghost_candidates = self.candidates.partition_point(|&c| c < owned_leaves);
            for i in leaf * LEAF..last_of(leaf) {
                let point = Bounds::of_points(&x[i..=i], &y[i..=i], &z[i..=i]);
                for candidates in [
                    &self.candidates[..ghost_candidates],
                    &self.candidates[ghost_candidates..],
                ] {
                    self.starts.push(offset(self.partners.len()));
                    for &other in candidates {
                        if point.is_out_of_reach(&self.leaves[other]) {
                            continue;
                        }
                        let first = other * LEAF;
                        let mut r2 = [0.0; LEAF];
                        for (lane, r2) in r2.iter_mut().enumerate() {
                            let slot = first + lane;
                            let (dx, dy, dz) = (x[i] - x[slot], y[i] - y[slot], z[i] - z[slot]);
                            *r2 = dx * dx + dy * dy + dz * dz;
                        }
                        // Own leaf: only the particles after `i`. Last leaf of either
                        // kind: only the slots that hold a particle.
                        for slot in first.max(i + 1)..last_of(other) {
                            if r2[slot - first] < REACH * REACH || r2[slot - first].is_nan() {
                                self.partners.push(slot as u32);
                            }
                        }
                    }
                }
            }
        }
        self.starts.push(offset(self.partners.len()));
        for (listed_at, axis) in self.listed_at.iter_mut().zip(&self.axes) {
            listed_at.clone_from(axis);
        }
        (self.listed_owned, self.listed_end) = (self.owned, self.end);
        #[cfg(test)]
        {
            self.builds += 1;
        }
    }
}

/// A position in the partner array, as the lists store it.
fn offset(partners: usize) -> u32 {
    u32::try_from(partners).expect("partner lists outgrew their 32-bit offsets")
}

/// Lennard-Jones forces on the owned particles and the local potential energy, with
/// the flops to charge: those of an all-pairs scan under a cutoff test (the cost model
/// approximates the link cells of the original by the cutoff; the arithmetic per
/// interacting pair is the real LJ kernel).
///
/// Only the listed partners of a particle are tested against the cutoff (see
/// [`ForceScratch`]): the lists hold every pair that passes, each particle's partners
/// in ascending order, owned before ghosts, so the interacting pairs come out in the
/// all-pairs order. Separations, cutoff tests and LJ terms — each a function of its
/// pair alone — are computed a chunk of partners at a time, lane-wise; the terms are
/// then added to `potential`, `forces[i]` and `forces[j]` one by one in that order.
/// Every sum is therefore bit-identical to the all-pairs scan's, and the flops of the
/// tests not made are charged in closed form.
fn compute_forces(
    positions: &[f64],
    ghosts: &[f64],
    forces: &mut [f64],
    scratch: &mut ForceScratch,
) -> (f64, f64) {
    let n = positions.len() / 3;
    let g = ghosts.len() / 3;
    forces.iter_mut().for_each(|f| *f = 0.0);
    scratch.load(positions, ghosts);
    if !scratch.lists_hold() {
        scratch.list_partners();
    }
    let mut sums = PairSums {
        forces,
        potential: 0.0,
        owned_hits: 0,
        ghost_hits: 0,
        separation: [[0.0; CHUNK]; 3],
        r2: [0.0; CHUNK],
        energy: [0.0; CHUNK],
        scale: [0.0; CHUNK],
    };
    for (i, starts) in scratch.starts.windows(3).step_by(2).enumerate() {
        let [owned, ghost, end] = [starts[0], starts[1], starts[2]].map(|s| s as usize);
        for partners in scratch.partners[owned..ghost].chunks(CHUNK) {
            sums.add_pairs::<false>(&scratch.axes, i, partners);
        }
        for partners in scratch.partners[ghost..end].chunks(CHUNK) {
            sums.add_pairs::<true>(&scratch.axes, i, partners);
        }
    }
    // 12 flops per cutoff test — all n(n-1)/2 + n·g of them: the cost model is the
    // all-pairs scan — plus 20 per interacting owned pair and 12 per interacting ghost
    // pair. Integer-valued and far below 2^53, hence equal to the sum the all-pairs
    // loop accumulates term by term.
    let tests = n * n.saturating_sub(1) / 2 + n * g;
    let flops = 12.0 * tests as f64 + 20.0 * sums.owned_hits as f64 + 12.0 * sums.ghost_hits as f64;
    (sums.potential, flops)
}

/// The running sums of [`compute_forces`], and the per-pair terms of the chunk being
/// added to them.
struct PairSums<'a> {
    forces: &'a mut [f64],
    potential: f64,
    owned_hits: u64,
    ghost_hits: u64,
    separation: [[f64; CHUNK]; 3],
    r2: [f64; CHUNK],
    energy: [f64; CHUNK],
    scale: [f64; CHUNK],
}

impl PairSums<'_> {
    /// Adds the interactions of particle `i` with those of the particles in slots
    /// `partners` (at most [`CHUNK`]; all owned or all `GHOST`) that it interacts with,
    /// in order.
    fn add_pairs<const GHOST: bool>(&mut self, axes: &[Vec<f64>; 3], i: usize, partners: &[u32]) {
        let [x, y, z] = axes;
        let (xi, yi, zi) = (x[i], y[i], z[i]);
        let [dx, dy, dz] = &mut self.separation;
        // The interacting pairs, in order: a pair that is not is overwritten by the next.
        let mut interacting = [0u32; CHUNK];
        let mut count = 0;
        for &j in partners {
            let slot = j as usize;
            let (sx, sy, sz) = (xi - x[slot], yi - y[slot], zi - z[slot]);
            let r2 = sx * sx + sy * sy + sz * sz;
            (dx[count], dy[count], dz[count]) = (sx, sy, sz);
            self.r2[count] = r2;
            interacting[count] = j;
            count += usize::from(interacts(r2));
        }
        // V = 4 (r^-12 - r^-6); F = 24 (2 r^-12 - r^-6) / r^2 * dr
        for k in 0..count {
            let inv_r2 = 1.0 / self.r2[k];
            let inv_r6 = inv_r2 * inv_r2 * inv_r2;
            let inv_r12 = inv_r6 * inv_r6;
            self.energy[k] = 4.0 * (inv_r12 - inv_r6);
            self.scale[k] = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
        }
        let mut on_i = [0.0; 3];
        on_i.copy_from_slice(&self.forces[3 * i..3 * i + 3]);
        for (k, &j) in interacting[..count].iter().enumerate() {
            let scale = self.scale[k];
            let f = [scale * dx[k], scale * dy[k], scale * dz[k]];
            if GHOST {
                // Half the energy of a pair across the boundary belongs to this rank.
                self.potential += 0.5 * self.energy[k];
            } else {
                self.potential += self.energy[k];
            }
            for d in 0..3 {
                on_i[d] += f[d];
                if !GHOST {
                    self.forces[3 * j as usize + d] -= f[d];
                }
            }
        }
        self.forces[3 * i..3 * i + 3].copy_from_slice(&on_i);
        if GHOST {
            self.ghost_hits += count as u64;
        } else {
            self.owned_hits += count as u64;
        }
    }
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
        let mut scratch = ForceScratch::default();
        let mut total_energy = 0.0f64;
        while step < self.params.steps {
            let current = step + 1;
            injector.maybe_fail(ctx, current)?;

            let ghosts = self.exchange_ghosts(ctx, &world, &positions, slab_min, slab_max)?;
            let (potential, flops) = compute_forces(&positions, &ghosts, &mut forces, &mut scratch);
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
    use crate::common::testing::{all_bits, bits};
    use fti::store::CheckpointStore;
    use fti::FtiConfig;
    use mpisim::{Cluster, ClusterConfig};
    use proptest::prelude::*;

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
        compute_forces(&positions, &[], &mut forces, &mut ForceScratch::default());
        // Newton's third law: the net force over an isolated system is ~zero.
        let net: f64 = forces.iter().sum();
        assert!(net.abs() < 1e-9);
    }

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

    /// The all-pairs scan `compute_forces` replaced — one cutoff test per pair, one
    /// pair at a time, flops counted term by term: the oracle the box hierarchy and
    /// the chunked evaluation must equal bit for bit.
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

    /// `compute_forces` with the given (possibly used) scratch against the oracle.
    fn assert_equals_all_pairs(
        positions: &[f64],
        ghosts: &[f64],
        scratch: &mut ForceScratch,
        what: &str,
    ) {
        let mut listed = vec![f64::NAN; positions.len()];
        let mut oracle = vec![0.0; positions.len()];
        let (potential, flops) = compute_forces(positions, ghosts, &mut listed, scratch);
        let (want_potential, want_flops) = all_pairs_forces(positions, ghosts, &mut oracle);
        assert_eq!(all_bits(&listed), all_bits(&oracle), "{what}: forces");
        assert_eq!(bits(potential), bits(want_potential), "{what}: potential");
        assert_eq!(bits(flops), bits(want_flops), "{what}: flops");
    }

    fn assert_pruned_equals_all_pairs(positions: &[f64], ghosts: &[f64], what: &str) {
        assert_equals_all_pairs(positions, ghosts, &mut ForceScratch::default(), what);
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
                    // One scratch for the whole run, as in `Comd::run`: the partner
                    // lists of step 0 serve every later step.
                    let mut scratch = ForceScratch::default();
                    let mut forces = vec![0.0; positions.len()];
                    for step in 0..=20 {
                        if [0, 1, 10, 20].contains(&step) {
                            let what = format!("{what}, after {step} steps");
                            assert_equals_all_pairs(&positions, ghosts, &mut scratch, &what);
                        }
                        compute_forces(&positions, ghosts, &mut forces, &mut scratch);
                        for i in 0..velocities.len() {
                            velocities[i] += DT * forces[i];
                            positions[i] += DT * velocities[i];
                        }
                    }
                    assert_eq!(scratch.builds, 1, "{what}: the lists of step 0 hold");
                    assert_pruned_equals_all_pairs(&positions, ghosts, &format!("{what}, anew"));
                }
            }
        }
    }

    /// `count` particles scattered at about the lattice's density — in no spatial
    /// order, several of them coincident, and, if `wild`, a few at non-finite
    /// coordinates.
    fn cloud(rng: &mut DetRng, count: usize, wild: bool) -> Vec<f64> {
        let side = LATTICE * (count.max(1) as f64).cbrt();
        let mut points: Vec<f64> = (0..3 * count).map(|_| side * rng.next_f64()).collect();
        for _ in 0..count / 8 {
            let (from, to) = (rng.next_below(count), rng.next_below(count));
            points.copy_within(3 * from..3 * from + 3, 3 * to);
        }
        if wild {
            for _ in 0..count.min(3) {
                let c = rng.next_below(3 * count);
                points[c] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300][rng.next_below(4)];
            }
        }
        points
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One scratch through a sequence of calls on unordered clouds (where pairs
        /// sit at every distance around the cutoff, unlike on the lattice): particles
        /// drifting to just within [`MOVE_LIMIT`] of where the lists were built, odd
        /// and even slots in opposite directions (the lists must hold, and hold every
        /// pair that has drifted inside the cutoff), jumping beyond it, changing in
        /// number — none at all, fewer than a leaf, ghosts present or absent — and
        /// sitting at non-finite coordinates.
        #[test]
        fn listed_forces_equal_the_all_pairs_scan_on_moving_clouds(
            owned in 0usize..150,
            ghost in 0usize..70,
            moves in proptest::collection::vec(0usize..4, 1..6),
            wild in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = DetRng::new(seed);
            let mut scratch = ForceScratch::default();
            let mut positions = cloud(&mut rng, owned, wild);
            let mut ghosts = cloud(&mut rng, ghost, wild);
            assert_equals_all_pairs(&positions, &ghosts, &mut scratch, "first call");
            // Every drift is along one axis, so that two in a row add up; `drifted` is
            // the drift since the lists were built, as a share of the limit.
            let axis = [0.0; 3].map(|_| rng.next_f64() - 0.5);
            let norm = axis.iter().map(|a| a * a).sum::<f64>().sqrt();
            let axis = axis.map(|a| a / norm);
            let mut drifted = 0.0;
            for (call, kind) in moves.into_iter().enumerate() {
                let builds = scratch.builds;
                let finite = positions.iter().chain(&ghosts).all(|c| c.is_finite());
                let drift = kind <= 1 && drifted < 0.9;
                let length = if drift { 0.49 * MOVE_LIMIT } else { 2.0 * MOVE_LIMIT };
                let toward = axis.map(|a| a * length);
                for (slot, p) in positions.chunks_exact_mut(3).chain(ghosts.chunks_exact_mut(3)).enumerate() {
                    let sign = if slot % 2 == 0 { 1.0 } else { -1.0 };
                    p.iter_mut().zip(toward).for_each(|(c, t)| *c += sign * t);
                }
                if kind == 3 {
                    let resized = rng.next_below(150);
                    positions = cloud(&mut rng, resized, wild);
                    ghosts.truncate(3 * rng.next_below(ghost + 1));
                }
                let what = format!("call {call}, move {kind}");
                assert_equals_all_pairs(&positions, &ghosts, &mut scratch, &what);
                if drift && finite {
                    prop_assert_eq!(scratch.builds, builds, "{}: lists must hold", what);
                    drifted += 0.49;
                } else {
                    drifted = 0.0;
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

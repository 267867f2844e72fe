//! AMG: an algebraic multigrid solver proxy.
//!
//! The original AMG proxy is built on HYPRE's BoomerAMG and solves an anisotropic
//! Laplace problem. This re-implementation keeps the multigrid structure — a hierarchy
//! of grids, smoothing on each level, restriction of the residual, a coarse solve and
//! prolongation of the correction — as a geometric multigrid V-cycle on a 3D Laplace
//! (7-point) problem with semi-coarsening in the x/y plane, so that the one-dimensional
//! z decomposition across ranks is preserved on every level and each level performs its
//! own halo exchanges.
//!
//! Each outer iteration of the main loop is one V-cycle followed by an all-reduce of
//! the residual norm; FTI protects the fine-level solution, the iteration counter and
//! the current residual norm.

use fti::{Fti, Protectable};
use mpisim::{Comm, MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{
    checksum, distributed_norm2, halo_exchange, world_slab, AppOutput, Halo, ProxyApp,
};

/// AMG parameters: per-process fine-grid dimensions (from `-n nx ny nz`) and the
/// number of V-cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmgParams {
    /// Fine-grid points per process in x.
    pub nx: usize,
    /// Fine-grid points per process in y.
    pub ny: usize,
    /// Fine-grid points per process in z.
    pub nz: usize,
    /// Number of V-cycles (outer iterations).
    pub cycles: u64,
    /// Pre-/post-smoothing sweeps per level.
    pub smoothing_sweeps: usize,
}

impl AmgParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or no cycles are requested.
    pub fn new(nx: usize, ny: usize, nz: usize, cycles: u64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        assert!(cycles > 0, "need at least one V-cycle");
        AmgParams {
            nx,
            ny,
            nz,
            cycles,
            smoothing_sweeps: 2,
        }
    }

    /// Fine-grid points per process.
    pub fn local_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The grid hierarchy: x and y are halved (rounding down) together for as long as
    /// both are at least 8, so the coarsest level's x and y extents lie in 4..=7 unless
    /// the fine grid already has one below 8, in which case it is the only level.
    pub fn levels(&self) -> Vec<(usize, usize, usize)> {
        let mut levels = vec![(self.nx, self.ny, self.nz)];
        let (mut nx, mut ny) = (self.nx, self.ny);
        while nx >= 8 && ny >= 8 {
            nx /= 2;
            ny /= 2;
            levels.push((nx, ny, self.nz));
        }
        levels
    }
}

/// A per-level grid helper.
#[derive(Debug, Clone, Copy)]
struct Level {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Level {
    fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }
    #[cfg(test)]
    fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.ny + iy) * self.nx + ix
    }
}

/// The AMG proxy application.
#[derive(Debug, Clone)]
pub struct Amg {
    params: AmgParams,
}

impl Amg {
    /// Creates an AMG instance.
    pub fn new(params: AmgParams) -> Self {
        Amg { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &AmgParams {
        &self.params
    }

    /// One V-cycle over `levels`, the first of which `x` and `b` live on.
    fn v_cycle(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        scratch: &mut Scratch,
        levels: &mut [LevelWork],
        x: &mut [f64],
        b: &[f64],
    ) -> Result<(), MpiError> {
        let sweeps = self.params.smoothing_sweeps;
        let (here, coarser) = levels
            .split_first_mut()
            .expect("a V-cycle has at least one level");
        let level = here.level;
        let Some(coarse) = coarser.first().map(|next| next.level) else {
            // Coarsest level: smooth harder instead of a direct solve.
            return scratch.smooth(ctx, comm, level, x, b, sweeps * 4);
        };
        scratch.smooth(ctx, comm, level, x, b, sweeps)?;
        scratch.residual(ctx, comm, level, x, b)?;
        restrict(level, coarse, scratch.r(level), &mut here.coarse_b);
        ctx.compute(coarse.n() as f64 * 4.0);
        here.coarse_x.fill(0.0);
        self.v_cycle(
            ctx,
            comm,
            scratch,
            coarser,
            &mut here.coarse_x,
            &here.coarse_b,
        )?;
        prolong_add(level, coarse, &here.coarse_x, x);
        ctx.compute(level.n() as f64);
        scratch.smooth(ctx, comm, level, x, b, sweeps)
    }
}

/// The 7-point Laplace residual `r = b - A x` on one level, given the z-halo planes of
/// `x` (`None` at a physical domain boundary); returns the flops to charge.
///
/// Every point starts from `6 x` and subtracts its in-domain neighbours in the order
/// x-1, x+1, y-1, y+1, z-1, z+1, then is subtracted from `b`. The sweep is sliced into
/// x-rows: the x neighbours are taken with the two edge points peeled, then the four
/// neighbour rows in that order, where a row that does not exist is `zeros` — `a -
/// (+0.0)` is `a` bit for bit, `-0.0` included — so every point sees the subtraction
/// sequence of a point-by-point scan and no loop over `ix` branches.
fn residual(
    level: Level,
    x: &[f64],
    b: &[f64],
    below: Option<&[f64]>,
    above: Option<&[f64]>,
    zeros: &[f64],
    r: &mut [f64],
) -> f64 {
    fn row(plane: &[f64], nx: usize, iy: usize) -> &[f64] {
        &plane[iy * nx..][..nx]
    }
    let (nx, ny, nz) = (level.nx, level.ny, level.nz);
    let plane = nx * ny;
    let zeros = &zeros[..nx];
    for iz in 0..nz {
        let centre = &x[iz * plane..][..plane];
        let down = if iz > 0 {
            Some(&x[(iz - 1) * plane..][..plane])
        } else {
            below
        };
        let up = if iz + 1 < nz {
            Some(&x[(iz + 1) * plane..][..plane])
        } else {
            above
        };
        for iy in 0..ny {
            let at = iz * plane + iy * nx;
            let neighbours = [
                if iy > 0 {
                    row(centre, nx, iy - 1)
                } else {
                    zeros
                },
                if iy + 1 < ny {
                    row(centre, nx, iy + 1)
                } else {
                    zeros
                },
                down.map_or(zeros, |p| row(p, nx, iy)),
                up.map_or(zeros, |p| row(p, nx, iy)),
            ];
            residual_row(
                row(centre, nx, iy),
                neighbours,
                &b[at..at + nx],
                &mut r[at..at + nx],
            );
        }
    }
    14.0 * level.n() as f64
}

/// One x-row of [`residual`]: `c` is the row of `x`, `[ym, yp, zm, zp]` its neighbour
/// rows in subtraction order.
fn residual_row(c: &[f64], [ym, yp, zm, zp]: [&[f64]; 4], b: &[f64], r: &mut [f64]) {
    let nx = r.len();
    let c = &c[..nx];
    if nx == 1 {
        r[0] = 6.0 * c[0];
    } else {
        r[0] = 6.0 * c[0] - c[1];
        for (ax, w) in r[1..nx - 1].iter_mut().zip(c.windows(3)) {
            *ax = 6.0 * w[1] - w[0] - w[2];
        }
        r[nx - 1] = 6.0 * c[nx - 1] - c[nx - 2];
    }
    let neighbours = ym.iter().zip(yp).zip(zm.iter().zip(zp));
    for ((ax, b), ((ym, yp), (zm, zp))) in r.iter_mut().zip(b).zip(neighbours) {
        *ax = b - (*ax - ym - yp - zm - zp);
    }
}

/// Restriction: average 2×2 blocks of the x/y plane (z is not coarsened) onto a coarse
/// level of half the fine extents, rounded down (a last odd fine row or column is not
/// read). A coarse row reads two fine rows; each point sums its block in the order
/// `(x, y), (x+1, y), (x, y+1), (x+1, y+1)`.
fn restrict(fine: Level, coarse: Level, r: &[f64], out: &mut [f64]) {
    debug_assert_eq!((coarse.nx, coarse.ny), (fine.nx / 2, fine.ny / 2));
    for (i, out_row) in out.chunks_exact_mut(coarse.nx).enumerate() {
        let (iz, iy) = (i / coarse.ny, i % coarse.ny);
        let at = (iz * fine.ny + 2 * iy) * fine.nx;
        let (row0, row1) = r[at..at + 2 * fine.nx].split_at(fine.nx);
        let blocks = row0.chunks_exact(2).zip(row1.chunks_exact(2));
        for (o, (p, q)) in out_row.iter_mut().zip(blocks) {
            *o = 0.25 * (p[0] + p[1] + q[0] + q[1]);
        }
    }
}

/// Prolongation: piecewise-constant interpolation of the correction `e` on the coarse
/// level of [`restrict`] back to the fine x/y plane, added to `x`. A coarse value
/// covers two fine points per axis; a last odd fine row or column takes the last coarse
/// one.
fn prolong_add(fine: Level, coarse: Level, e: &[f64], x: &mut [f64]) {
    debug_assert_eq!((coarse.nx, coarse.ny), (fine.nx / 2, fine.ny / 2));
    for (i, x_row) in x.chunks_exact_mut(fine.nx).enumerate() {
        let (iz, iy) = (i / fine.ny, i % fine.ny);
        let cy = (iy / 2).min(coarse.ny - 1);
        let e_row = &e[(iz * coarse.ny + cy) * coarse.nx..][..coarse.nx];
        let (pairs, odd) = x_row.split_at_mut(2 * coarse.nx);
        for (pair, e) in pairs.chunks_exact_mut(2).zip(e_row) {
            pair[0] += e;
            pair[1] += e;
        }
        for xi in odd {
            *xi += e_row[coarse.nx - 1];
        }
    }
}

/// One level of a rank's hierarchy, with the next coarser level's correction and
/// right-hand side (empty on the coarsest level), allocated once per run.
struct LevelWork {
    level: Level,
    coarse_x: Vec<f64>,
    coarse_b: Vec<f64>,
}

/// The buffers every level's smoothing and residual reuse, allocated once per run.
struct Scratch {
    halo: Halo,
    /// The residual; a level uses its first `level.n()` values.
    r: Vec<f64>,
    /// The stand-in for a neighbour row that does not exist (see [`residual`]).
    zeros: Vec<f64>,
}

impl Scratch {
    fn new(fine: Level) -> Self {
        Scratch {
            halo: Halo::default(),
            r: vec![0.0; fine.n()],
            zeros: vec![0.0; fine.nx],
        }
    }

    /// The residual of `level`'s last [`Scratch::residual`].
    fn r(&self, level: Level) -> &[f64] {
        &self.r[..level.n()]
    }

    /// `r = b - A x` on one level, with z-halo exchange.
    fn residual(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        level: Level,
        x: &[f64],
        b: &[f64],
    ) -> Result<(), MpiError> {
        let plane = level.nx * level.ny;
        halo_exchange(
            ctx,
            comm,
            31,
            &x[..plane],
            &x[x.len() - plane..],
            &mut self.halo,
        )?;
        let flops = residual(
            level,
            x,
            b,
            self.halo.below(),
            self.halo.above(),
            &self.zeros,
            &mut self.r[..level.n()],
        );
        ctx.compute(flops);
        Ok(())
    }

    /// Weighted-Jacobi smoothing sweeps on one level.
    fn smooth(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        level: Level,
        x: &mut [f64],
        b: &[f64],
        sweeps: usize,
    ) -> Result<(), MpiError> {
        let omega = 0.8;
        for _ in 0..sweeps {
            self.residual(ctx, comm, level, x, b)?;
            for (xi, ri) in x.iter_mut().zip(self.r(level)) {
                *xi += omega * ri / 6.0;
            }
            ctx.compute(3.0 * level.n() as f64);
        }
        Ok(())
    }
}

impl ProxyApp for Amg {
    fn name(&self) -> &'static str {
        "AMG"
    }

    fn iterations(&self) -> u64 {
        self.params.cycles
    }

    fn global_units(&self, initial_ranks: usize) -> u64 {
        // One unit = one fine-grid x/y plane; z is never coarsened, so the same slab
        // boundaries apply on every level of the hierarchy.
        (self.params.nz * initial_ranks) as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        let global_nz = self.global_units(ctx.topology().nranks()) as usize;
        let (z_start, local_nz) = world_slab(&world, global_nz);
        // The per-level z extent is the rank's current slab of the global z axis;
        // semi-coarsening only halves x/y, so the slab is the same on every level.
        let levels: Vec<Level> = self
            .params
            .levels()
            .into_iter()
            .map(|(nx, ny, _)| Level {
                nx,
                ny,
                nz: local_nz,
            })
            .collect();
        let fine = levels[0];
        let n = fine.n();
        let mut work: Vec<LevelWork> = levels
            .iter()
            .enumerate()
            .map(|(i, &level)| {
                let coarse_n = levels.get(i + 1).map_or(0, Level::n);
                LevelWork {
                    level,
                    coarse_x: vec![0.0; coarse_n],
                    coarse_b: vec![0.0; coarse_n],
                }
            })
            .collect();
        let mut scratch = Scratch::new(fine);

        // Anisotropic-ish right-hand side: a smooth bump defined by the *global* grid
        // index, so that after a shrink the survivors reproduce exactly the forcing of
        // the planes they adopt.
        let plane = fine.nx * fine.ny;
        let b: Vec<f64> = (0..n)
            .map(|i| {
                let g = z_start * plane + i;
                let phase = (g % 17) as f64 / 17.0;
                1.0 + 0.5 * (phase * std::f64::consts::TAU).sin()
            })
            .collect();

        let mut x = vec![0.0f64; n];
        let mut iteration: u64 = 0;
        let mut resnorm: f64 = f64::MAX;

        fti.protect_partitioned(0, "x", &x, global_nz as u64);
        fti.protect(1, "iteration", &iteration);
        fti.protect(2, "resnorm", &resnorm);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut x as &mut dyn Protectable),
                    (1, &mut iteration as &mut dyn Protectable),
                    (2, &mut resnorm as &mut dyn Protectable),
                ],
            )?;
        }

        while iteration < self.params.cycles {
            let current = iteration + 1;
            injector.maybe_fail(ctx, current)?;

            self.v_cycle(ctx, &world, &mut scratch, &mut work, &mut x, &b)?;
            scratch.residual(ctx, &world, fine, &x, &b)?;
            resnorm = distributed_norm2(ctx, &world, scratch.r(fine))?.sqrt();
            iteration = current;

            if fti.should_checkpoint(iteration) {
                fti.checkpoint(
                    ctx,
                    iteration,
                    &[
                        (0, &x as &dyn Protectable),
                        (1, &iteration as &dyn Protectable),
                        (2, &resnorm as &dyn Protectable),
                    ],
                )?;
            }
        }

        fti.finalize(ctx)?;
        let local = checksum(&x);
        let global = ctx.allreduce_sum_f64(&world, local)?;
        Ok(AppOutput {
            app: self.name(),
            iterations: iteration,
            checksum: global,
            figure_of_merit: resnorm,
            owned_units: (z_start as u64, local_nz as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing::{all_bits, awkward_values};
    use crate::common::{run_standalone, DetRng};
    use fti::store::CheckpointStore;
    use fti::FtiConfig;
    use mpisim::{Cluster, ClusterConfig};
    use proptest::prelude::*;

    fn small() -> Amg {
        Amg::new(AmgParams::new(16, 16, 4, 8))
    }

    #[test]
    fn level_hierarchy_halves_xy_only() {
        let p = AmgParams::new(32, 32, 4, 1);
        let levels = p.levels();
        assert_eq!(levels[0], (32, 32, 4));
        assert_eq!(levels[1], (16, 16, 4));
        assert_eq!(levels[2], (8, 8, 4));
        assert_eq!(levels.last().unwrap(), &(4, 4, 4));
        assert_eq!(p.local_points(), 32 * 32 * 4);
        // Halving stops once either extent is below 8: the coarsest lies in 4..=7.
        let odd = AmgParams::new(15, 9, 2, 1).levels();
        assert_eq!(odd, vec![(15, 9, 2), (7, 4, 2)]);
        assert_eq!(AmgParams::new(7, 64, 2, 1).levels(), vec![(7, 64, 2)]);
    }

    #[test]
    fn multigrid_reduces_the_residual_fast() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            run_standalone(
                &small(),
                ctx,
                CheckpointStore::shared(),
                FtiConfig::default(),
            )
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        let out = outcome.value_of(0);
        assert_eq!(out.app, "AMG");
        assert_eq!(out.iterations, 8);
        // Eight V-cycles on a diagonally dominant Laplace problem reduce the residual
        // norm far below the initial right-hand-side norm (which is O(sqrt(n)) ≈ 45).
        assert!(
            out.figure_of_merit < 5.0,
            "residual {}",
            out.figure_of_merit
        );
    }

    #[test]
    fn deterministic_and_consistent_across_ranks() {
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
            assert!(outcome.all_ok());
            let reference = outcome.value_of(0).checksum;
            for r in outcome.ranks() {
                assert_eq!(r.result.as_ref().unwrap().checksum, reference);
            }
            reference
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn restriction_and_prolongation_shapes() {
        let fine = Level {
            nx: 8,
            ny: 8,
            nz: 2,
        };
        let coarse = Level {
            nx: 4,
            ny: 4,
            nz: 2,
        };
        let r: Vec<f64> = (0..fine.n()).map(|i| i as f64).collect();
        let mut rc = vec![0.0; coarse.n()];
        restrict(fine, coarse, &r, &mut rc);
        let mut x = vec![0.0; fine.n()];
        prolong_add(fine, coarse, &rc, &mut x);
        // Prolongation of a non-zero coarse grid must touch every fine point.
        assert!(x.iter().all(|v| *v != 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_cycles_panics() {
        let _ = AmgParams::new(4, 4, 4, 0);
    }

    /// The point-by-point loop `residual` replaced (its halo exchange aside): index
    /// math and boundary branches per point, empty halo planes where there are none,
    /// flops counted point by point. The oracle the row-sliced kernel must equal bit
    /// for bit.
    fn residual_point_by_point(
        level: Level,
        x: &[f64],
        b: &[f64],
        below: &[f64],
        above: &[f64],
        r: &mut [f64],
    ) -> f64 {
        let mut flops = 0.0;
        for iz in 0..level.nz {
            for iy in 0..level.ny {
                for ix in 0..level.nx {
                    let c = level.idx(ix, iy, iz);
                    let mut ax = 6.0 * x[c];
                    if ix > 0 {
                        ax -= x[level.idx(ix - 1, iy, iz)];
                    }
                    if ix + 1 < level.nx {
                        ax -= x[level.idx(ix + 1, iy, iz)];
                    }
                    if iy > 0 {
                        ax -= x[level.idx(ix, iy - 1, iz)];
                    }
                    if iy + 1 < level.ny {
                        ax -= x[level.idx(ix, iy + 1, iz)];
                    }
                    if iz > 0 {
                        ax -= x[level.idx(ix, iy, iz - 1)];
                    } else if !below.is_empty() {
                        ax -= below[iy * level.nx + ix];
                    }
                    if iz + 1 < level.nz {
                        ax -= x[level.idx(ix, iy, iz + 1)];
                    } else if !above.is_empty() {
                        ax -= above[iy * level.nx + ix];
                    }
                    r[c] = b[c] - ax;
                    flops += 14.0;
                }
            }
        }
        flops
    }

    /// The point-by-point restriction `restrict` replaced.
    fn restrict_point_by_point(fine: Level, coarse: Level, r: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; coarse.n()];
        for iz in 0..coarse.nz {
            for iy in 0..coarse.ny {
                for ix in 0..coarse.nx {
                    let fx = (2 * ix).min(fine.nx - 1);
                    let fy = (2 * iy).min(fine.ny - 1);
                    let fx1 = (2 * ix + 1).min(fine.nx - 1);
                    let fy1 = (2 * iy + 1).min(fine.ny - 1);
                    out[coarse.idx(ix, iy, iz)] = 0.25
                        * (r[fine.idx(fx, fy, iz)]
                            + r[fine.idx(fx1, fy, iz)]
                            + r[fine.idx(fx, fy1, iz)]
                            + r[fine.idx(fx1, fy1, iz)]);
                }
            }
        }
        out
    }

    /// The point-by-point prolongation `prolong_add` replaced.
    fn prolong_add_point_by_point(fine: Level, coarse: Level, e: &[f64], x: &mut [f64]) {
        for iz in 0..fine.nz {
            for iy in 0..fine.ny {
                for ix in 0..fine.nx {
                    let cx = (ix / 2).min(coarse.nx - 1);
                    let cy = (iy / 2).min(coarse.ny - 1);
                    x[fine.idx(ix, iy, iz)] += e[coarse.idx(cx, cy, iz)];
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Degenerate extents (one point across, one local plane so that the bottom
        /// plane is the top plane), halo planes present or absent on either side, and
        /// values that overflow, underflow, cancel to ±0 or are not numbers at all.
        #[test]
        fn residual_equals_the_point_by_point_scan_bit_for_bit(
            nx in 1usize..10,
            ny in 1usize..10,
            nz in 1usize..4,
            has_below in any::<bool>(),
            has_above in any::<bool>(),
            wild in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let level = Level { nx, ny, nz };
            let plane = nx * ny;
            let mut rng = DetRng::new(seed);
            let x = awkward_values(&mut rng, level.n(), wild);
            let b = awkward_values(&mut rng, level.n(), wild);
            let below = awkward_values(&mut rng, if has_below { plane } else { 0 }, wild);
            let above = awkward_values(&mut rng, if has_above { plane } else { 0 }, wild);
            let mut r = vec![f64::NAN; level.n()];
            let mut want = vec![0.0; level.n()];
            let flops = residual(
                level,
                &x,
                &b,
                has_below.then_some(&below[..]),
                has_above.then_some(&above[..]),
                &vec![0.0; nx],
                &mut r,
            );
            let want_flops = residual_point_by_point(level, &x, &b, &below, &above, &mut want);
            prop_assert_eq!(all_bits(&r), all_bits(&want));
            prop_assert_eq!(flops.to_bits(), want_flops.to_bits());
        }

        /// Fine extents odd and even (the coarse level of the hierarchy is half of
        /// them, rounded down), one or more planes, awkward values.
        #[test]
        fn restriction_and_prolongation_equal_the_point_by_point_loops_bit_for_bit(
            nx in 2usize..10,
            ny in 2usize..10,
            nz in 1usize..4,
            wild in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let fine = Level { nx, ny, nz };
            let coarse = Level { nx: nx / 2, ny: ny / 2, nz };
            let mut rng = DetRng::new(seed);
            let r = awkward_values(&mut rng, fine.n(), wild);
            let mut rc = vec![f64::NAN; coarse.n()];
            restrict(fine, coarse, &r, &mut rc);
            prop_assert_eq!(all_bits(&rc), all_bits(&restrict_point_by_point(fine, coarse, &r)));

            let e = awkward_values(&mut rng, coarse.n(), wild);
            let mut x = awkward_values(&mut rng, fine.n(), wild);
            let mut want = x.clone();
            prolong_add(fine, coarse, &e, &mut x);
            prolong_add_point_by_point(fine, coarse, &e, &mut want);
            prop_assert_eq!(all_bits(&x), all_bits(&want));
        }
    }
}

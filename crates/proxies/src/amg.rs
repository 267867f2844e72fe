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

use crate::common::{checksum, distributed_norm2, halo_exchange, world_slab, AppOutput, ProxyApp};

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

    /// The grid hierarchy produced by halving x and y until either drops below 4.
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

    /// 7-point Laplace residual `r = b - A x` on one level, with z-halo exchange.
    fn residual(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        level: Level,
        x: &[f64],
        b: &[f64],
        r: &mut [f64],
    ) -> Result<(), MpiError> {
        let plane = level.nx * level.ny;
        let (below, above) = halo_exchange(ctx, comm, 31, &x[..plane], &x[x.len() - plane..])?;
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
        ctx.compute(flops);
        Ok(())
    }

    /// Weighted-Jacobi smoothing sweeps on one level.
    fn smooth(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        level: Level,
        x: &mut [f64],
        b: &[f64],
        sweeps: usize,
    ) -> Result<(), MpiError> {
        let omega = 0.8;
        let mut r = vec![0.0; level.n()];
        for _ in 0..sweeps {
            self.residual(ctx, comm, level, x, b, &mut r)?;
            for (xi, ri) in x.iter_mut().zip(&r) {
                *xi += omega * ri / 6.0;
            }
            ctx.compute(3.0 * level.n() as f64);
        }
        Ok(())
    }

    /// Restriction: average 2×2 blocks of the x/y plane (z is not coarsened).
    fn restrict(&self, fine: Level, coarse: Level, r: &[f64]) -> Vec<f64> {
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

    /// Prolongation: piecewise-constant interpolation back to the fine x/y plane,
    /// added as a correction.
    fn prolong_add(&self, fine: Level, coarse: Level, e: &[f64], x: &mut [f64]) {
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

    /// One V-cycle starting at `level_idx`.
    fn v_cycle(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        levels: &[Level],
        level_idx: usize,
        x: &mut [f64],
        b: &[f64],
    ) -> Result<(), MpiError> {
        let level = levels[level_idx];
        let sweeps = self.params.smoothing_sweeps;
        if level_idx + 1 == levels.len() {
            // Coarsest level: smooth harder instead of a direct solve.
            self.smooth(ctx, comm, level, x, b, sweeps * 4)?;
            return Ok(());
        }
        self.smooth(ctx, comm, level, x, b, sweeps)?;
        let mut r = vec![0.0; level.n()];
        self.residual(ctx, comm, level, x, b, &mut r)?;
        let coarse = levels[level_idx + 1];
        let rc = self.restrict(level, coarse, &r);
        ctx.compute(coarse.n() as f64 * 4.0);
        let mut ec = vec![0.0; coarse.n()];
        self.v_cycle(ctx, comm, levels, level_idx + 1, &mut ec, &rc)?;
        self.prolong_add(level, coarse, &ec, x);
        ctx.compute(level.n() as f64);
        self.smooth(ctx, comm, level, x, b, sweeps)?;
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

        let mut r = vec![0.0f64; n];
        while iteration < self.params.cycles {
            let current = iteration + 1;
            injector.maybe_fail(ctx, current)?;

            self.v_cycle(ctx, &world, &levels, 0, &mut x, &b)?;
            self.residual(ctx, &world, fine, &x, &b, &mut r)?;
            resnorm = distributed_norm2(ctx, &world, &r)?.sqrt();
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
    use crate::common::run_standalone;
    use fti::store::CheckpointStore;
    use fti::FtiConfig;
    use mpisim::{Cluster, ClusterConfig};

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
        let app = small();
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
        let rc = app.restrict(fine, coarse, &r);
        assert_eq!(rc.len(), coarse.n());
        let mut x = vec![0.0; fine.n()];
        app.prolong_add(fine, coarse, &rc, &mut x);
        // Prolongation of a non-zero coarse grid must touch every fine point.
        assert!(x.iter().all(|v| *v != 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_cycles_panics() {
        let _ = AmgParams::new(4, 4, 4, 0);
    }
}

//! HPCCG: a preconditioned conjugate-gradient proxy on a 27-point stencil.
//!
//! HPCCG solves a sparse linear system arising from a 27-point finite-difference
//! stencil on a 3D "chimney" domain: each MPI rank owns an `nx × ny × nz` block and the
//! blocks are stacked along the z axis. The main loop is a textbook conjugate-gradient
//! iteration: one sparse matrix–vector product (requiring a one-plane halo exchange
//! with the z neighbours), two dot products (all-reduces) and three vector updates per
//! iteration.
//!
//! The FTI-protected data objects follow the paper's three principles: the CG state
//! vectors `x`, `r`, `p` and the iteration counter are defined before the loop, used
//! across iterations and vary across iterations; the matrix (implicit stencil) and the
//! right-hand side are re-derivable and are not checkpointed.

use fti::{Fti, Protectable};
use mpisim::{Comm, MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{
    checksum, distributed_dot, halo_exchange, world_slab, AppOutput, Halo, ProxyApp,
};

/// HPCCG parameters: the per-process grid dimensions (the meaning of the `nx ny nz`
/// command-line arguments of the original proxy) and the CG iteration bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpccgParams {
    /// Grid points per process in x.
    pub nx: usize,
    /// Grid points per process in y.
    pub ny: usize,
    /// Grid points per process in z.
    pub nz: usize,
    /// Maximum number of CG iterations.
    pub max_iterations: u64,
}

impl HpccgParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nx: usize, ny: usize, nz: usize, max_iterations: u64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        assert!(max_iterations > 0, "need at least one iteration");
        HpccgParams {
            nx,
            ny,
            nz,
            max_iterations,
        }
    }

    /// Points per process.
    pub fn local_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// The HPCCG proxy application.
#[derive(Debug, Clone)]
pub struct Hpccg {
    params: HpccgParams,
}

impl Hpccg {
    /// Creates an HPCCG instance.
    pub fn new(params: HpccgParams) -> Self {
        Hpccg { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &HpccgParams {
        &self.params
    }

    /// Applies the 27-point stencil operator `y = A v`, using the halo planes received
    /// from the z-neighbours (`None` at a physical domain boundary), and
    /// returns the flops to charge. The local z extent is derived from `v`, because
    /// the rank's slab of the global z axis changes when the world shrinks.
    ///
    /// Every point starts from `27 v` and subtracts its in-domain neighbours in
    /// ascending `(dz, dy, dx)` order. The sweep is sliced into x-rows: an output row
    /// takes its (up to nine) neighbour rows in `(dz, dy)` order, and within one
    /// neighbour row every point subtracts its `dx = -1, 0, +1` entries in that order,
    /// so each point sees exactly the subtraction sequence of a point-by-point scan
    /// while the loops over `ix` carry no branch and vectorise.
    fn spmv(&self, v: &[f64], below: Option<&[f64]>, above: Option<&[f64]>, y: &mut [f64]) -> f64 {
        let (nx, ny) = (self.params.nx, self.params.ny);
        let plane = nx * ny;
        let nz = v.len() / plane;
        for iz in 0..nz {
            let centre = &v[iz * plane..(iz + 1) * plane];
            let planes = [
                if iz > 0 {
                    Some(&v[(iz - 1) * plane..iz * plane])
                } else {
                    below
                },
                Some(centre),
                if iz + 1 < nz {
                    Some(&v[(iz + 1) * plane..(iz + 2) * plane])
                } else {
                    above
                },
            ];
            for iy in 0..ny {
                let out = &mut y[iz * plane + iy * nx..][..nx];
                for (o, c) in out.iter_mut().zip(&centre[iy * nx..][..nx]) {
                    *o = 27.0 * c;
                }
                for (dz, neighbours) in planes.iter().enumerate() {
                    let Some(neighbours) = neighbours else {
                        continue;
                    };
                    for jy in iy.saturating_sub(1)..=(iy + 1).min(ny - 1) {
                        let row = &neighbours[jy * nx..][..nx];
                        if dz == 1 && jy == iy {
                            subtract_row::<false>(out, row);
                        } else {
                            subtract_row::<true>(out, row);
                        }
                    }
                }
            }
        }
        // Two flops per stencil entry, boundary rows charged like interior ones.
        54.0 * v.len() as f64
    }

    /// One halo exchange + SpMV, charging the compute cost.
    fn apply_operator(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        halo: &mut Halo,
        v: &[f64],
        y: &mut [f64],
    ) -> Result<(), MpiError> {
        let plane = self.params.nx * self.params.ny;
        halo_exchange(ctx, comm, 11, &v[..plane], &v[v.len() - plane..], halo)?;
        let flops = self.spmv(v, halo.below(), halo.above(), y);
        ctx.compute(flops);
        Ok(())
    }
}

/// Subtracts from every `out[ix]` the entries of one neighbour row that are adjacent to
/// it in x, in ascending `dx` order: `row[ix - 1]`, `row[ix]` (only if `CENTRE`: the
/// point is not its own neighbour) and `row[ix + 1]`, each where it exists.
fn subtract_row<const CENTRE: bool>(out: &mut [f64], row: &[f64]) {
    let nx = out.len();
    let row = &row[..nx];
    if nx == 1 {
        if CENTRE {
            out[0] -= row[0];
        }
        return;
    }
    if CENTRE {
        out[0] -= row[0];
    }
    out[0] -= row[1];
    for (o, w) in out[1..nx - 1].iter_mut().zip(row.windows(3)) {
        *o -= w[0];
        if CENTRE {
            *o -= w[1];
        }
        *o -= w[2];
    }
    out[nx - 1] -= row[nx - 2];
    if CENTRE {
        out[nx - 1] -= row[nx - 1];
    }
}

impl ProxyApp for Hpccg {
    fn name(&self) -> &'static str {
        "HPCCG"
    }

    fn iterations(&self) -> u64 {
        self.params.max_iterations
    }

    fn global_units(&self, initial_ranks: usize) -> u64 {
        // One unit = one x/y plane of the global chimney stacked along z.
        (self.params.nz * initial_ranks) as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        // The global chimney: `nz` planes per rank of the machine's full world,
        // block-partitioned over the ranks that are currently alive. On a full world
        // every rank gets exactly `params.nz` planes, as before.
        let global_nz = self.global_units(ctx.topology().nranks()) as usize;
        let (z_start, local_nz) = world_slab(&world, global_nz);
        let n = self.params.nx * self.params.ny * local_nz;

        // Right-hand side: the classic HPCCG choice b_i = 27 - (number of neighbours),
        // which makes x = 1 the exact solution of the interior problem.
        let b: Vec<f64> = vec![1.0; n];

        // CG state (the FTI-protected data objects).
        let mut x = vec![0.0f64; n];
        let mut r = b.clone();
        let mut p = r.clone();
        let mut iteration: u64 = 0;
        let mut rr = distributed_dot(ctx, &world, &r, &r)?;

        fti.protect_partitioned(0, "x", &x, global_nz as u64);
        fti.protect_partitioned(1, "r", &r, global_nz as u64);
        fti.protect_partitioned(2, "p", &p, global_nz as u64);
        fti.protect(3, "iteration", &iteration);
        fti.protect(4, "rr", &rr);

        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut x as &mut dyn Protectable),
                    (1, &mut r as &mut dyn Protectable),
                    (2, &mut p as &mut dyn Protectable),
                    (3, &mut iteration as &mut dyn Protectable),
                    (4, &mut rr as &mut dyn Protectable),
                ],
            )?;
        }

        let mut ap = vec![0.0f64; n];
        let mut halo = Halo::default();
        while iteration < self.params.max_iterations {
            let current = iteration + 1;
            injector.maybe_fail(ctx, current)?;

            self.apply_operator(ctx, &world, &mut halo, &p, &mut ap)?;
            let pap = distributed_dot(ctx, &world, &p, &ap)?;
            let alpha = if pap.abs() > 0.0 { rr / pap } else { 0.0 };
            for ((xi, ri), (pi, api)) in x.iter_mut().zip(&mut r).zip(p.iter().zip(&ap)) {
                *xi += alpha * pi;
                *ri -= alpha * api;
            }
            ctx.compute(4.0 * n as f64);
            let rr_new = distributed_dot(ctx, &world, &r, &r)?;
            let beta = if rr.abs() > 0.0 { rr_new / rr } else { 0.0 };
            for (pi, ri) in p.iter_mut().zip(&r) {
                *pi = ri + beta * *pi;
            }
            ctx.compute(2.0 * n as f64);
            rr = rr_new;
            iteration = current;

            if fti.should_checkpoint(iteration) {
                fti.checkpoint(
                    ctx,
                    iteration,
                    &[
                        (0, &x as &dyn Protectable),
                        (1, &r as &dyn Protectable),
                        (2, &p as &dyn Protectable),
                        (3, &iteration as &dyn Protectable),
                        (4, &rr as &dyn Protectable),
                    ],
                )?;
            }
        }

        fti.finalize(ctx)?;
        let local_checksum = checksum(&x);
        let global_checksum = ctx.allreduce_sum_f64(&world, local_checksum)?;
        Ok(AppOutput {
            app: self.name(),
            iterations: iteration,
            checksum: global_checksum,
            figure_of_merit: rr.sqrt(),
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

    fn small() -> Hpccg {
        Hpccg::new(HpccgParams::new(6, 6, 6, 12))
    }

    #[test]
    fn params_validation_and_size() {
        let p = HpccgParams::new(4, 5, 6, 10);
        assert_eq!(p.local_points(), 120);
    }

    #[test]
    #[should_panic]
    fn zero_dimension_panics() {
        let _ = HpccgParams::new(0, 1, 1, 1);
    }

    #[test]
    fn residual_decreases_monotonically_enough() {
        // CG on an SPD stencil matrix must reduce the residual by orders of magnitude
        // within a handful of iterations on a small domain.
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            let app = small();
            run_standalone(&app, ctx, CheckpointStore::shared(), FtiConfig::default())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        let out = outcome.value_of(0);
        assert_eq!(out.app, "HPCCG");
        assert_eq!(out.iterations, 12);
        assert!(
            out.figure_of_merit < 1.0,
            "residual {}",
            out.figure_of_merit
        );
        assert!(out.checksum.is_finite());
    }

    #[test]
    fn result_is_deterministic_across_runs() {
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
            outcome.value_of(0).checksum
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_ranks_agree_on_the_global_checksum() {
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
        for rank in outcome.ranks() {
            assert_eq!(rank.result.as_ref().unwrap().checksum, reference);
        }
    }

    /// The point-by-point scan `spmv` replaced: 27 range-tested neighbours per point,
    /// flops counted point by point. The oracle the row-sliced sweep must equal bit
    /// for bit.
    fn spmv_point_by_point(
        app: &Hpccg,
        v: &[f64],
        below: &[f64],
        above: &[f64],
        y: &mut [f64],
    ) -> f64 {
        let (nx, ny) = (app.params.nx, app.params.ny);
        let index = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
        let nz = v.len() / (nx * ny);
        let mut flops = 0.0;
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let mut acc = 27.0 * v[index(ix, iy, iz)];
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    continue;
                                }
                                let jx = ix as i64 + dx;
                                let jy = iy as i64 + dy;
                                let jz = iz as i64 + dz;
                                if jx < 0 || jx >= nx as i64 || jy < 0 || jy >= ny as i64 {
                                    continue;
                                }
                                let neighbour = if jz < 0 {
                                    if below.is_empty() {
                                        continue;
                                    }
                                    below[(jy as usize) * nx + jx as usize]
                                } else if jz >= nz as i64 {
                                    if above.is_empty() {
                                        continue;
                                    }
                                    above[(jy as usize) * nx + jx as usize]
                                } else {
                                    v[index(jx as usize, jy as usize, jz as usize)]
                                };
                                acc -= neighbour;
                            }
                        }
                    }
                    y[index(ix, iy, iz)] = acc;
                    flops += 54.0;
                }
            }
        }
        flops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Degenerate extents (one to three points across, one local plane so that the
        /// bottom plane is the top plane, a slab whose `local_nz` differs from
        /// `params.nz`), halos present or absent on either side, and values that
        /// overflow, underflow, cancel to ±0 or are not numbers at all.
        #[test]
        fn spmv_equals_the_point_by_point_scan_bit_for_bit(
            nx in 1usize..12,
            ny in 1usize..8,
            local_nz in 1usize..5,
            has_below in any::<bool>(),
            has_above in any::<bool>(),
            wild in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let app = Hpccg::new(HpccgParams::new(nx, ny, 3, 1));
            let mut rng = DetRng::new(seed);
            let plane = nx * ny;
            let v = awkward_values(&mut rng, plane * local_nz, wild);
            let below = awkward_values(&mut rng, if has_below { plane } else { 0 }, wild);
            let above = awkward_values(&mut rng, if has_above { plane } else { 0 }, wild);
            let mut y = vec![f64::NAN; v.len()];
            let mut want = vec![0.0; v.len()];
            let flops = app.spmv(
                &v,
                has_below.then_some(&below[..]),
                has_above.then_some(&above[..]),
                &mut y,
            );
            let want_flops = spmv_point_by_point(&app, &v, &below, &above, &mut want);
            prop_assert_eq!(all_bits(&y), all_bits(&want));
            prop_assert_eq!(flops.to_bits(), want_flops.to_bits());
        }
    }

    #[test]
    fn spmv_matches_dense_reference_on_tiny_grid() {
        // On a 2x2x2 single-rank grid with zero halo, row sums of the stencil equal
        // 27 - (#in-domain neighbours); applying it to the all-ones vector exposes that.
        let app = Hpccg::new(HpccgParams::new(2, 2, 2, 1));
        let v = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        let flops = app.spmv(&v, None, None, &mut y);
        assert!(flops > 0.0);
        // Every point of a 2x2x2 cube has exactly 7 in-domain neighbours.
        for value in y {
            assert_eq!(value, 27.0 - 7.0);
        }
    }
}

//! miniFE: an unstructured implicit finite-element proxy.
//!
//! miniFE assembles a sparse stiffness matrix from hexahedral finite elements and then
//! solves the resulting linear system with conjugate gradients. The re-implementation
//! keeps both phases:
//!
//! 1. **Assembly** — loops over the rank's elements, computes a simplified trilinear
//!    hexahedron stiffness contribution and scatters it into an explicit CSR matrix
//!    (this is the phase that distinguishes miniFE from HPCCG, which applies its
//!    stencil matrix-free);
//! 2. **Solve** — a CG iteration on the assembled CSR matrix with one-plane halo
//!    exchanges along the z decomposition and all-reduce dot products.
//!
//! FTI protects the CG state (`x`, `r`, `p`), the iteration counter and the residual,
//! exactly the objects the paper's dependency-analysis principles select.

use fti::{Fti, Protectable};
use mpisim::{Comm, MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{
    checksum, distributed_dot, halo_exchange, world_slab, AppOutput, Halo, ProxyApp,
};

/// miniFE parameters: per-process brick dimensions (`-nx -ny -nz`) and the CG
/// iteration bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniFeParams {
    /// Nodes per process in x.
    pub nx: usize,
    /// Nodes per process in y.
    pub ny: usize,
    /// Nodes per process in z.
    pub nz: usize,
    /// Maximum number of CG iterations.
    pub max_iterations: u64,
}

impl MiniFeParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or no iterations are requested.
    pub fn new(nx: usize, ny: usize, nz: usize, max_iterations: u64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        assert!(max_iterations > 0, "need at least one iteration");
        MiniFeParams {
            nx,
            ny,
            nz,
            max_iterations,
        }
    }

    /// Nodes per process.
    pub fn local_nodes(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// The assembled operator of one rank: a compressed-sparse-row matrix whose columns
/// index the *extended* vector `[below | local | above]` — the halo plane received from
/// the rank below, the rank's own `n` nodes, the halo plane from above — so that the
/// SpMV is a plain gather. A halo plane that does not exist (a physical domain
/// boundary) reads as zeros.
#[derive(Debug, Clone, Default)]
struct Operator {
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
    values: Vec<f64>,
    /// The extended vector, refilled by every [`Operator::apply`].
    extended: Vec<f64>,
}

impl Operator {
    /// `y = A v` with the received halo planes (`None` at a domain boundary). Every
    /// row accumulates `value * x` over its entries in stored order, from zero.
    /// Returns the flops to charge: two per stored entry.
    fn apply(
        &mut self,
        v: &[f64],
        below: Option<&[f64]>,
        above: Option<&[f64]>,
        y: &mut [f64],
    ) -> f64 {
        let plane = (self.extended.len() - v.len()) / 2;
        let (lower, rest) = self.extended.split_at_mut(plane);
        let (local, upper) = rest.split_at_mut(v.len());
        local.copy_from_slice(v);
        for (halo, plane) in [(lower, below), (upper, above)] {
            match plane {
                Some(plane) => halo.copy_from_slice(plane),
                None => halo.fill(0.0),
            }
        }
        for (out, row) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let entries = row[0] as usize..row[1] as usize;
            let mut acc = 0.0;
            for (&col, value) in self.cols[entries.clone()].iter().zip(&self.values[entries]) {
                acc += value * self.extended[col as usize];
            }
            *out = acc;
        }
        2.0 * self.cols.len() as f64
    }
}

/// Coupling weights of a face, an edge and a corner neighbour.
const COUPLING: [f64; 3] = [-1.0, -0.5, -0.25];

/// The miniFE proxy application.
#[derive(Debug, Clone)]
pub struct MiniFe {
    params: MiniFeParams,
}

impl MiniFe {
    /// Creates a miniFE instance.
    pub fn new(params: MiniFeParams) -> Self {
        MiniFe { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &MiniFeParams {
        &self.params
    }

    /// Assembles the stiffness matrix: a 27-point coupling whose weights depend on how
    /// many index directions the neighbour shares with the row node (face, edge or
    /// corner coupling of the trilinear hexahedron), plus a dominant diagonal, stored
    /// first in its row; the neighbours follow in ascending `(dz, dy, dx)` order.
    /// Returns the operator and the assembly flops to charge. The z extent is the
    /// rank's current slab of the global z axis, which changes when the world shrinks.
    fn assemble(&self, nz: usize) -> (Operator, f64) {
        let (nx, ny) = (self.params.nx, self.params.ny);
        let plane = nx * ny;
        let n = plane * nz;
        // A row holds 3 x (valid dx) x (valid dy) entries, itself included, and the
        // valid offsets along an axis of n nodes number 3n - 2 in total.
        let nnz = 3 * (3 * nx - 2) * (3 * ny - 2) * nz;
        assert!(
            nnz <= u32::MAX as usize,
            "miniFE slab of {n} nodes overflows the 32-bit CSR indices"
        );
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    // Node (ix, iy, iz) sits at `plane + index` of the extended vector;
                    // its z-neighbours in the halo planes fall out of the same formula.
                    let centre = plane + (iz * ny + iy) * nx + ix;
                    // The diagonal leads its row; its value is known only after it.
                    let diagonal = values.len();
                    cols.push(centre as u32);
                    values.push(0.0);
                    let mut off_diag_sum = 0.0;
                    // Offsets are stored shifted by one (0, 1, 2 for -1, 0, +1); the x
                    // and y ranges stop at the brick's faces, the z range never does:
                    // beyond the slab lies a halo plane.
                    let dxs = usize::from(ix == 0)..3 - usize::from(ix + 1 == nx);
                    let dys = usize::from(iy == 0)..3 - usize::from(iy + 1 == ny);
                    for dz in 0..3 {
                        for dy in dys.clone() {
                            for dx in dxs.clone() {
                                // Coupling strength by the number of non-zero offsets:
                                // face, edge, corner — the shape of a trilinear
                                // hexahedral stiffness row.
                                let order = usize::from(dx != 1)
                                    + usize::from(dy != 1)
                                    + usize::from(dz != 1);
                                if order == 0 {
                                    continue;
                                }
                                let weight = COUPLING[order - 1];
                                cols.push(
                                    (centre + dz * plane + dy * nx + dx - plane - nx - 1) as u32,
                                );
                                values.push(weight);
                                off_diag_sum += weight;
                            }
                        }
                    }
                    // Strictly dominant so CG converges.
                    values[diagonal] = -off_diag_sum + 1.0;
                    row_ptr.push(cols.len() as u32);
                }
            }
        }
        debug_assert_eq!(cols.len(), nnz);
        // Six flops per coupling: every stored entry but the diagonals.
        let flops = 6.0 * (cols.len() - n) as f64;
        let operator = Operator {
            row_ptr,
            cols,
            values,
            extended: vec![0.0; n + 2 * plane],
        };
        (operator, flops)
    }

    fn apply_operator(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        a: &mut Operator,
        halo: &mut Halo,
        v: &[f64],
        y: &mut [f64],
    ) -> Result<(), MpiError> {
        let plane = self.params.nx * self.params.ny;
        halo_exchange(ctx, comm, 21, &v[..plane], &v[v.len() - plane..], halo)?;
        let flops = a.apply(v, halo.below(), halo.above(), y);
        ctx.compute(flops);
        Ok(())
    }
}

impl ProxyApp for MiniFe {
    fn name(&self) -> &'static str {
        "miniFE"
    }

    fn iterations(&self) -> u64 {
        self.params.max_iterations
    }

    fn global_units(&self, initial_ranks: usize) -> u64 {
        // One unit = one x/y node plane of the global brick.
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
        let n = self.params.nx * self.params.ny * local_nz;

        // Assembly phase (re-executed on restart, like the original application).
        let (mut matrix, assembly_flops) = self.assemble(local_nz);
        ctx.compute(assembly_flops);
        let b = vec![1.0f64; n];

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

            self.apply_operator(ctx, &world, &mut matrix, &mut halo, &p, &mut ap)?;
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
        let local = checksum(&x);
        let global = ctx.allreduce_sum_f64(&world, local)?;
        Ok(AppOutput {
            app: self.name(),
            iterations: iteration,
            checksum: global,
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

    fn small() -> MiniFe {
        MiniFe::new(MiniFeParams::new(5, 5, 5, 10))
    }

    #[test]
    fn local_nodes_count() {
        assert_eq!(MiniFeParams::new(3, 4, 5, 1).local_nodes(), 60);
    }

    #[test]
    fn assembled_matrix_has_dominant_diagonal_rows() {
        let app = small();
        let (m, _) = app.assemble(app.params().nz);
        // Every row: diagonal entry is positive and at least the sum of the
        // magnitudes of the off-diagonal entries (weak diagonal dominance + 1).
        for row in m.row_ptr.windows(2) {
            let (start, end) = (row[0] as usize, row[1] as usize);
            let diag = m.values[start];
            let off: f64 = m.values[start + 1..end].iter().map(|v| v.abs()).sum();
            assert!(diag >= off + 1.0 - 1e-9, "diag {diag} vs off {off}");
        }
        assert_eq!(m.row_ptr.len(), app.params().local_nodes() + 1);
    }

    /// The matrix `Operator` replaced: per-row scratch vectors, 64-bit columns with the
    /// halo planes encoded as negative offsets, and an SpMV that decodes them entry by
    /// entry, flops counted term by term. The oracle the extended-vector gather must
    /// equal bit for bit.
    struct HaloEncodedCsr {
        row_ptr: Vec<usize>,
        cols: Vec<i64>,
        values: Vec<f64>,
    }

    const HALO_BELOW: i64 = -1;
    const HALO_ABOVE: i64 = -2;

    fn assemble_halo_encoded(app: &MiniFe, nz: usize) -> (HaloEncodedCsr, f64) {
        let (nx, ny) = (app.params.nx, app.params.ny);
        let index = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
        let mut row_ptr = vec![0];
        let mut cols = Vec::new();
        let mut values = Vec::new();
        let mut flops = 0.0;
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let mut off_diag_sum = 0.0;
                    let mut row_cols: Vec<(i64, f64)> = Vec::with_capacity(27);
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
                                let order = dx.abs() + dy.abs() + dz.abs();
                                let weight = match order {
                                    1 => -1.0,
                                    2 => -0.5,
                                    _ => -0.25,
                                };
                                flops += 6.0;
                                if jz < 0 {
                                    let plane_idx = (jy as usize) * nx + jx as usize;
                                    row_cols.push((HALO_BELOW - 2 * plane_idx as i64, weight));
                                } else if jz >= nz as i64 {
                                    let plane_idx = (jy as usize) * nx + jx as usize;
                                    row_cols.push((HALO_ABOVE - 2 * plane_idx as i64, weight));
                                } else {
                                    row_cols.push((
                                        index(jx as usize, jy as usize, jz as usize) as i64,
                                        weight,
                                    ));
                                }
                                off_diag_sum += weight;
                            }
                        }
                    }
                    cols.push(index(ix, iy, iz) as i64);
                    values.push(-off_diag_sum + 1.0);
                    for (c, w) in row_cols {
                        cols.push(c);
                        values.push(w);
                    }
                    row_ptr.push(cols.len());
                }
            }
        }
        let csr = HaloEncodedCsr {
            row_ptr,
            cols,
            values,
        };
        (csr, flops)
    }

    fn spmv_halo_encoded(
        a: &HaloEncodedCsr,
        v: &[f64],
        below: &[f64],
        above: &[f64],
        y: &mut [f64],
    ) -> f64 {
        let mut flops = 0.0;
        for (row, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in a.row_ptr[row]..a.row_ptr[row + 1] {
                let col = a.cols[idx];
                let value = a.values[idx];
                let x = if col >= 0 {
                    v[col as usize]
                } else if (col - HALO_BELOW) % 2 == 0 {
                    let plane_idx = ((HALO_BELOW - col) / 2) as usize;
                    if below.is_empty() {
                        0.0
                    } else {
                        below[plane_idx]
                    }
                } else {
                    let plane_idx = ((HALO_ABOVE - col) / 2) as usize;
                    if above.is_empty() {
                        0.0
                    } else {
                        above[plane_idx]
                    }
                };
                acc += value * x;
                flops += 2.0;
            }
            *out = acc;
        }
        flops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Degenerate extents (one to three nodes across, one local plane so that the
        /// bottom plane is the top plane, a slab whose `local_nz` differs from
        /// `params.nz`), halos present or absent on either side — and present after
        /// having been absent, since the extended vector is reused — and values that
        /// overflow, underflow, cancel to ±0 or are not numbers at all.
        #[test]
        fn operator_equals_the_halo_encoded_csr_bit_for_bit(
            nx in 1usize..9,
            ny in 1usize..7,
            local_nz in 1usize..5,
            halos in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..4),
            wild in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let app = MiniFe::new(MiniFeParams::new(nx, ny, 3, 1));
            let (mut operator, assembly_flops) = app.assemble(local_nz);
            let (oracle, want_assembly_flops) = assemble_halo_encoded(&app, local_nz);
            prop_assert_eq!(assembly_flops.to_bits(), want_assembly_flops.to_bits());
            prop_assert_eq!(all_bits(&operator.values), all_bits(&oracle.values));

            let mut rng = DetRng::new(seed);
            let plane = nx * ny;
            for (has_below, has_above) in halos {
                let v = awkward_values(&mut rng, plane * local_nz, wild);
                let below = awkward_values(&mut rng, if has_below { plane } else { 0 }, wild);
                let above = awkward_values(&mut rng, if has_above { plane } else { 0 }, wild);
                let mut y = vec![f64::NAN; v.len()];
                let mut want = vec![0.0; v.len()];
                let flops = operator.apply(
                    &v,
                    has_below.then_some(&below[..]),
                    has_above.then_some(&above[..]),
                    &mut y,
                );
                let want_flops = spmv_halo_encoded(&oracle, &v, &below, &above, &mut want);
                prop_assert_eq!(all_bits(&y), all_bits(&want));
                prop_assert_eq!(flops.to_bits(), want_flops.to_bits());
            }
        }
    }

    #[test]
    fn cg_reduces_the_residual() {
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
        assert_eq!(out.app, "miniFE");
        assert!(
            out.figure_of_merit < 1.0,
            "residual {}",
            out.figure_of_merit
        );
    }

    #[test]
    fn checksum_is_identical_on_all_ranks_and_deterministic() {
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
    fn differs_from_hpccg_answer() {
        // Same grid and iteration count as an HPCCG run, but the FE matrix differs, so
        // the answers must differ — guarding against the two proxies degenerating into
        // the same computation.
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let fe = cluster.run(|ctx| {
            run_standalone(
                &small(),
                ctx,
                CheckpointStore::shared(),
                FtiConfig::default(),
            )
        });
        let cg = cluster.run(|ctx| {
            let app = crate::hpccg::Hpccg::new(crate::hpccg::HpccgParams::new(5, 5, 5, 10));
            run_standalone(&app, ctx, CheckpointStore::shared(), FtiConfig::default())
        });
        assert_ne!(fe.value_of(0).checksum, cg.value_of(0).checksum);
    }
}

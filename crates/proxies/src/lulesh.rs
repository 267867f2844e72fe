//! LULESH: a shock-hydrodynamics proxy (Sedov blast).
//!
//! LULESH solves the Sedov blast problem with an explicit Lagrangian hydrodynamics
//! scheme on an unstructured hexahedral mesh. The re-implementation keeps the
//! per-time-step structure that dominates its execution and communication behaviour:
//!
//! 1. a globally agreed time-step computed from a per-element Courant constraint
//!    (an all-reduce minimum every step),
//! 2. a halo exchange of boundary-plane element state with the z neighbours,
//! 3. a stress/pressure update, an artificial-viscosity term and an energy update per
//!    element, followed by a volume update, and
//! 4. a periodic global energy balance check (all-reduce sum).
//!
//! The element state (energy, pressure, relative volume, velocity proxy), the
//! simulation time and the step counter are the FTI-protected objects.

use fti::{Fti, Protectable};
use mpisim::{MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{checksum, halo_exchange, world_slab, AppOutput, Halo, ProxyApp};

/// Ideal-gas constant for the equation of state.
const GAMMA: f64 = 1.4;
/// Artificial viscosity coefficient.
const Q_COEF: f64 = 0.1;
/// Courant factor.
const CFL: f64 = 0.45;

/// LULESH parameters: the per-process edge size `s` (from `-s`, the mesh is `s³`
/// elements per rank) and the number of time steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuleshParams {
    /// Elements per process along each edge.
    pub s: usize,
    /// Number of Lagrange time steps.
    pub steps: u64,
}

impl LuleshParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or no steps are requested.
    pub fn new(s: usize, steps: u64) -> Self {
        assert!(s > 0, "edge size must be positive");
        assert!(steps > 0, "need at least one step");
        LuleshParams { s, steps }
    }
}

/// The LULESH proxy application.
#[derive(Debug, Clone)]
pub struct Lulesh {
    params: LuleshParams,
}

impl Lulesh {
    /// Creates a LULESH instance.
    pub fn new(params: LuleshParams) -> Self {
        Lulesh { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &LuleshParams {
        &self.params
    }
}

/// One Lagrange sweep over the rank's elements, z-plane by z-plane in ascending order.
/// An element's energy gradient reads the element below *after* its update and the
/// element above *before* its update (the sweep is in place); at the slab's ends the
/// neighbour is the received halo plane or, at a physical boundary (`None`), the
/// element itself.
#[allow(clippy::too_many_arguments)]
fn sweep_elements(
    plane: usize,
    energy: &mut [f64],
    pressure: &mut [f64],
    volume: &mut [f64],
    divergence: &mut [f64],
    below: Option<&[f64]>,
    above: Option<&[f64]>,
    dt: f64,
) {
    let local_nz = energy.len() / plane;
    for iz in 0..local_nz {
        let (swept, rest) = energy.split_at_mut(iz * plane);
        let (current, ahead) = rest.split_at_mut(plane);
        let e_below = if iz > 0 {
            Some(&swept[(iz - 1) * plane..])
        } else {
            below
        };
        let e_above = if iz + 1 < local_nz {
            Some(&ahead[..plane])
        } else {
            above
        };
        let at = iz * plane..(iz + 1) * plane;
        let state = (
            current,
            &mut pressure[at.clone()],
            &mut volume[at.clone()],
            &mut divergence[at],
        );
        // One loop per combination, so that none of them tests it per element.
        match (e_below, e_above) {
            (Some(b), Some(a)) => sweep_plane(state, dt, |i, _| (b[i], a[i])),
            (Some(b), None) => sweep_plane(state, dt, |i, own| (b[i], own)),
            (None, Some(a)) => sweep_plane(state, dt, |i, own| (own, a[i])),
            (None, None) => sweep_plane(state, dt, |_, own| (own, own)),
        }
    }
}

/// Updates the elements of one z-plane; `neighbours(i, e)` yields the energies below
/// and above element `i`, whose own energy before the update is `e`.
#[inline(always)]
fn sweep_plane(
    (energy, pressure, volume, divergence): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    dt: f64,
    neighbours: impl Fn(usize, f64) -> (f64, f64),
) {
    let elements = energy
        .iter_mut()
        .zip(pressure)
        .zip(volume.iter_mut().zip(divergence));
    for (i, ((e, p), (v, div))) in elements.enumerate() {
        *p = (GAMMA - 1.0) * *e / v.max(1e-9);
        let (e_below, e_above) = neighbours(i, *e);
        let grad = (e_above - e_below) * 0.5;
        let q = Q_COEF * grad.abs();
        *div = -(*p + q) * 1e-4;
        // Work done on / by the element changes its energy and volume.
        *e = (*e + dt * *div * (*p + q)).max(0.0);
        *v = (*v + dt * *div).clamp(0.05, 20.0);
    }
}

impl ProxyApp for Lulesh {
    fn name(&self) -> &'static str {
        "LULESH"
    }

    fn iterations(&self) -> u64 {
        self.params.steps
    }

    fn global_units(&self, initial_ranks: usize) -> u64 {
        // One unit = one s x s element plane of the global column of cubes.
        (self.params.s * initial_ranks) as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        let s = self.params.s;
        let global_nz = self.global_units(ctx.topology().nranks()) as usize;
        let (z_start, local_nz) = world_slab(&world, global_nz);
        let n = s * s * local_nz;
        let plane = s * s;

        // Element state: specific internal energy, pressure, relative volume and a
        // scalar "velocity divergence" proxy driving the volume change.
        let mut energy = vec![1.0e-6f64; n];
        let mut pressure = vec![0.0f64; n];
        let mut volume = vec![1.0f64; n];
        let mut divergence = vec![0.0f64; n];
        let mut sim_time = 0.0f64;
        let mut step: u64 = 0;

        // The Sedov blast: deposit a large point energy in the corner element of the
        // global mesh — whichever rank currently owns global z-plane 0.
        if z_start == 0 {
            energy[0] = 3.948746e+7;
        }

        fti.protect_partitioned(0, "energy", &energy, global_nz as u64);
        fti.protect_partitioned(1, "pressure", &pressure, global_nz as u64);
        fti.protect_partitioned(2, "volume", &volume, global_nz as u64);
        fti.protect_partitioned(3, "divergence", &divergence, global_nz as u64);
        fti.protect(4, "time", &sim_time);
        fti.protect(5, "step", &step);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut energy as &mut dyn Protectable),
                    (1, &mut pressure as &mut dyn Protectable),
                    (2, &mut volume as &mut dyn Protectable),
                    (3, &mut divergence as &mut dyn Protectable),
                    (4, &mut sim_time as &mut dyn Protectable),
                    (5, &mut step as &mut dyn Protectable),
                ],
            )?;
        }

        let mut halo = Halo::default();
        while step < self.params.steps {
            let current = step + 1;
            injector.maybe_fail(ctx, current)?;

            // 1. Time-step control: Courant constraint over all elements of all ranks.
            let mut local_dt = f64::MAX;
            for e in 0..n {
                let sound_speed = (GAMMA * (pressure[e] + 1e-12) / volume[e].max(1e-9)).sqrt();
                let dt = CFL / (sound_speed + 1e-6);
                local_dt = local_dt.min(dt);
            }
            ctx.compute(6.0 * n as f64);
            let dt = ctx.allreduce_min_f64(&world, local_dt)?.min(1.0e-2);

            // 2. Halo exchange of the boundary planes of the energy field.
            halo_exchange(
                ctx,
                &world,
                51,
                &energy[..plane],
                &energy[n - plane..],
                &mut halo,
            )?;

            // 3. Element updates: pressure from the equation of state, an artificial
            //    viscosity from the energy gradient to the z neighbours, and the energy
            //    / volume update.
            sweep_elements(
                plane,
                &mut energy,
                &mut pressure,
                &mut volume,
                &mut divergence,
                halo.below(),
                halo.above(),
                dt,
            );
            ctx.compute(22.0 * n as f64);

            // 4. Energy balance check (every step; the original does it for reporting).
            let local_energy: f64 = energy.iter().sum();
            ctx.compute(n as f64);
            let _total = ctx.allreduce_sum_f64(&world, local_energy)?;

            sim_time += dt;
            step = current;

            if fti.should_checkpoint(step) {
                fti.checkpoint(
                    ctx,
                    step,
                    &[
                        (0, &energy as &dyn Protectable),
                        (1, &pressure as &dyn Protectable),
                        (2, &volume as &dyn Protectable),
                        (3, &divergence as &dyn Protectable),
                        (4, &sim_time as &dyn Protectable),
                        (5, &step as &dyn Protectable),
                    ],
                )?;
            }
        }

        fti.finalize(ctx)?;
        let local = checksum(&energy) + checksum(&volume);
        let global = ctx.allreduce_sum_f64(&world, local)?;
        let total_energy = ctx.allreduce_sum_f64(&world, energy.iter().sum())?;
        Ok(AppOutput {
            app: self.name(),
            iterations: step,
            checksum: global,
            figure_of_merit: total_energy,
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

    fn small() -> Lulesh {
        Lulesh::new(LuleshParams::new(6, 12))
    }

    /// The element-by-element sweep `sweep_elements` replaced, with its `iz` branches
    /// per element and flops counted element by element: the oracle the plane-sliced
    /// sweep must equal bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn sweep_by_element(
        s: usize,
        energy: &mut [f64],
        pressure: &mut [f64],
        volume: &mut [f64],
        divergence: &mut [f64],
        below: &[f64],
        above: &[f64],
        dt: f64,
    ) -> f64 {
        let idx = |ix: usize, iy: usize, iz: usize| (iz * s + iy) * s + ix;
        let local_nz = energy.len() / (s * s);
        let mut flops = 0.0;
        for iz in 0..local_nz {
            for iy in 0..s {
                for ix in 0..s {
                    let e = idx(ix, iy, iz);
                    pressure[e] = (GAMMA - 1.0) * energy[e] / volume[e].max(1e-9);
                    let e_below = if iz > 0 {
                        energy[idx(ix, iy, iz - 1)]
                    } else if !below.is_empty() {
                        below[iy * s + ix]
                    } else {
                        energy[e]
                    };
                    let e_above = if iz + 1 < local_nz {
                        energy[idx(ix, iy, iz + 1)]
                    } else if !above.is_empty() {
                        above[iy * s + ix]
                    } else {
                        energy[e]
                    };
                    let grad = (e_above - e_below) * 0.5;
                    let q = Q_COEF * grad.abs();
                    divergence[e] = -(pressure[e] + q) * 1e-4;
                    energy[e] = (energy[e] + dt * divergence[e] * (pressure[e] + q)).max(0.0);
                    volume[e] = (volume[e] + dt * divergence[e]).clamp(0.05, 20.0);
                    flops += 22.0;
                }
            }
        }
        flops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Degenerate extents (one to three elements across, one local plane so that
        /// the bottom plane is the top plane, a slab whose `local_nz` differs from
        /// `s`), halos present or absent on either side, several steps so that the
        /// in-place dependence on the plane below compounds, and values that overflow,
        /// underflow, cancel to ±0 or are not numbers at all.
        #[test]
        fn plane_sliced_sweep_equals_the_element_sweep_bit_for_bit(
            s in 1usize..7,
            local_nz in 1usize..6,
            has_below in any::<bool>(),
            has_above in any::<bool>(),
            wild in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = DetRng::new(seed);
            let plane = s * s;
            let n = plane * local_nz;
            let mut state: Vec<Vec<f64>> =
                (0..4).map(|_| awkward_values(&mut rng, n, wild)).collect();
            if !wild {
                // The application's ranges: non-negative energy, clamped volume.
                state[0].iter_mut().for_each(|e| *e = e.abs());
                state[2].iter_mut().for_each(|v| *v = v.abs().clamp(0.05, 20.0));
            }
            let mut want = state.clone();
            for _ in 0..3 {
                let below = awkward_values(&mut rng, if has_below { plane } else { 0 }, wild);
                let above = awkward_values(&mut rng, if has_above { plane } else { 0 }, wild);
                let dt = awkward_values(&mut rng, 1, wild)[0];
                let [energy, pressure, volume, divergence] = &mut state[..] else {
                    unreachable!()
                };
                sweep_elements(
                    plane, energy, pressure, volume, divergence,
                    has_below.then_some(&below[..]), has_above.then_some(&above[..]), dt,
                );
                let [energy, pressure, volume, divergence] = &mut want[..] else {
                    unreachable!()
                };
                let flops =
                    sweep_by_element(s, energy, pressure, volume, divergence, &below, &above, dt);
                prop_assert_eq!(flops.to_bits(), (22.0 * n as f64).to_bits());
                for (got, want) in state.iter().zip(&want) {
                    prop_assert_eq!(all_bits(got), all_bits(want));
                }
            }
        }
    }

    #[test]
    fn sedov_blast_evolves_and_stays_finite() {
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
        assert_eq!(out.app, "LULESH");
        assert_eq!(out.iterations, 12);
        assert!(out.figure_of_merit.is_finite());
        assert!(out.figure_of_merit > 0.0, "the blast energy cannot vanish");
        assert!(out.checksum.is_finite());
    }

    #[test]
    fn deterministic_and_rank_consistent() {
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
    fn blast_energy_spreads_from_rank_zero() {
        // After a few steps the ranks adjacent to the blast see a different state than
        // a run without the blast would produce, demonstrating that the halo exchange
        // really carries information across ranks.
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            run_standalone(
                &small(),
                ctx,
                CheckpointStore::shared(),
                FtiConfig::default(),
            )
        });
        let with_blast = outcome.value_of(0).checksum;
        assert!(with_blast.is_finite());
        assert!(with_blast != 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_edge_panics() {
        let _ = LuleshParams::new(0, 1);
    }
}

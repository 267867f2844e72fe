//! Extending MATCH with a new application, as Section V-E of the paper encourages:
//! implement the `ProxyApp` trait for your own workload and run it under any of the
//! fault-tolerance designs — including the shrinking `SHRINK-FTI`, which requires
//! only that the global problem is partitioned over the *current* world (see
//! `world_slab`) and protected with `protect_partitioned`, so survivors can adopt
//! the blocks of retired ranks.
//!
//! ```text
//! cargo run --example custom_app
//! ```

use std::sync::Arc;

use match_core::fti::store::CheckpointStore;
use match_core::fti::{Fti, FtiConfig, Protectable};
use match_core::mpisim::{Cluster, ClusterConfig, MpiError, RankCtx};
use match_core::proxies::common::{halo_exchange, world_slab, AppOutput, Halo};
use match_core::proxies::ProxyApp;
use match_core::recovery::{FaultInjector, FaultPlan, FtConfig, FtDriver, RecoveryStrategy};

/// A toy "heat diffusion" application: a 1-D rod distributed block-wise over the
/// current world, explicit time stepping with halo exchange, protected by FTI.
struct HeatDiffusion {
    cells_per_rank: usize,
    steps: u64,
}

impl ProxyApp for HeatDiffusion {
    fn name(&self) -> &'static str {
        "HeatDiffusion"
    }

    fn iterations(&self) -> u64 {
        self.steps
    }

    fn global_units(&self, initial_ranks: usize) -> u64 {
        (self.cells_per_rank * initial_ranks) as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        // The rod is sized from the machine's full rank count and re-divided over
        // whatever world is currently running: on the full world every rank owns
        // exactly `cells_per_rank` cells, after a shrink the survivors share the
        // same rod out between themselves.
        let global_cells = self.global_units(ctx.topology().nranks()) as usize;
        let (start, n) = world_slab(&world, global_cells);
        let mut temperature: Vec<f64> = (start..start + n)
            .map(|g| if g == 0 { 100.0 } else { 0.0 })
            .collect();
        let mut step: u64 = 0;
        fti.protect_partitioned(0, "temperature", &temperature, global_cells as u64);
        fti.protect(1, "step", &step);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut temperature as &mut dyn Protectable),
                    (1, &mut step as &mut dyn Protectable),
                ],
            )?;
        }
        let mut halo = Halo::default();
        while step < self.steps {
            let current = step + 1;
            injector.maybe_fail(ctx, current)?;
            halo_exchange(
                ctx,
                &world,
                9,
                &[temperature[0]],
                &[temperature[n - 1]],
                &mut halo,
            )?;
            let left = halo.below().map_or(temperature[0], |plane| plane[0]);
            let right = halo.above().map_or(temperature[n - 1], |plane| plane[0]);
            let mut next = temperature.clone();
            for i in 0..n {
                let l = if i == 0 { left } else { temperature[i - 1] };
                let r = if i + 1 == n {
                    right
                } else {
                    temperature[i + 1]
                };
                next[i] = temperature[i] + 0.25 * (l - 2.0 * temperature[i] + r);
            }
            ctx.compute(5.0 * n as f64);
            temperature = next;
            step = current;
            if fti.should_checkpoint(step) {
                fti.checkpoint(
                    ctx,
                    step,
                    &[
                        (0, &temperature as &dyn Protectable),
                        (1, &step as &dyn Protectable),
                    ],
                )?;
            }
        }
        fti.finalize(ctx)?;
        let total = ctx.allreduce_sum_f64(&world, temperature.iter().sum())?;
        Ok(AppOutput {
            app: self.name(),
            iterations: step,
            checksum: total,
            figure_of_merit: total,
            owned_units: (start as u64, n as u64),
        })
    }
}

fn main() {
    let app = HeatDiffusion {
        cells_per_rank: 64,
        steps: 20,
    };
    println!(
        "Running a custom application ({}) under all four MATCH designs\n",
        app.name()
    );
    for strategy in RecoveryStrategy::ALL {
        let config = FtConfig::new(strategy, FtiConfig::default().interval(5))
            .with_fault(FaultPlan::kill_rank_at(2, 13));
        let store = CheckpointStore::shared();
        let cluster = Cluster::new(ClusterConfig::with_ranks(8));
        let app = HeatDiffusion {
            cells_per_rank: 64,
            steps: 20,
        };
        let outcome = cluster.run(|ctx| {
            let driver = FtDriver::new(config.clone(), Arc::clone(&store));
            driver.execute(ctx, |ctx, fti, injector| app.run(ctx, fti, injector))
        });
        assert!(outcome.all_ok(), "{strategy}: {:?}", outcome.errors());
        let breakdown = outcome.max_breakdown();
        // Rank 0 survives every design here (the victim is rank 2, which reports no
        // value only under the shrinking design).
        let value = outcome
            .value_of(0)
            .value
            .as_ref()
            .expect("rank 0 survives")
            .checksum;
        println!(
            "{:<12} total heat {:>9.3}  application {:>7.3}s  checkpoints {:>6.3}s  recovery {:>6.3}s",
            strategy.design_name(),
            value,
            breakdown.application.as_secs(),
            breakdown.checkpoint_write.as_secs(),
            breakdown.recovery.as_secs()
        );
    }
    println!(
        "\nAll designs recover the same rod; the shrinking design finishes it on seven\n\
         ranks instead of respawning the casualty, so only the overheads differ."
    );
}

//! miniVite: a distributed Louvain community-detection proxy.
//!
//! miniVite executes the first phase of the distributed Louvain method for graph
//! community detection: vertices are distributed block-wise over the ranks, every
//! vertex starts in its own community, and in each iteration every vertex greedily
//! moves to the neighbouring community with the largest modularity gain. The iteration
//! stops when the global number of moves falls below a threshold (or a cap is reached).
//!
//! The communication pattern per iteration is collective-heavy, like the original:
//! an all-gather of the updated community assignment of every vertex (so that remote
//! neighbours can be resolved) and an all-reduce of the per-community degree sums and
//! of the move count / modularity.
//!
//! FTI protects the community assignment and the iteration counter.

use fti::{Fti, Protectable};
use mpisim::{MpiError, RankCtx};
use recovery::FaultInjector;

use crate::common::{AppOutput, BlockPartition, DetRng, ProxyApp};

/// miniVite parameters: the number of generated graph vertices (`-n`), the average
/// vertex degree and the iteration cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniViteParams {
    /// Number of vertices in the generated graph.
    pub vertices: usize,
    /// Average out-degree of the generated graph.
    pub avg_degree: usize,
    /// Maximum number of Louvain iterations.
    pub max_iterations: u64,
}

impl MiniViteParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the vertex count or degree is zero, or no iterations are requested.
    pub fn new(vertices: usize, avg_degree: usize, max_iterations: u64) -> Self {
        assert!(vertices > 0, "need at least one vertex");
        assert!(avg_degree > 0, "need a positive average degree");
        assert!(max_iterations > 0, "need at least one iteration");
        MiniViteParams {
            vertices,
            avg_degree,
            max_iterations,
        }
    }
}

/// The miniVite proxy application.
#[derive(Debug, Clone)]
pub struct MiniVite {
    params: MiniViteParams,
}

impl MiniVite {
    /// Creates a miniVite instance.
    pub fn new(params: MiniViteParams) -> Self {
        MiniVite { params }
    }

    /// The parameters of this instance.
    pub fn params(&self) -> &MiniViteParams {
        &self.params
    }

    /// Generates this rank's adjacency lists. The generator mixes ring edges (to give
    /// the graph obvious community structure) with random long-range edges, and is
    /// deterministic in the vertex id so that every rank could regenerate any vertex's
    /// edges — which also means regenerating after a restart reproduces the same graph.
    fn generate_local_graph(&self, partition: &BlockPartition, rank: usize) -> Vec<Vec<usize>> {
        let v_start = partition.start(rank);
        let v_count = partition.count(rank);
        let total = self.params.vertices;
        let mut adjacency = Vec::with_capacity(v_count);
        for local in 0..v_count {
            let v = v_start + local;
            let mut rng = DetRng::new(0xB00B5 ^ (v as u64).wrapping_mul(0x9E37_79B9));
            let mut edges = Vec::with_capacity(self.params.avg_degree);
            // Ring edges keep nearby vertices densely connected.
            edges.push((v + 1) % total);
            edges.push((v + total - 1) % total);
            // Random long-range edges.
            for _ in 2..self.params.avg_degree {
                let mut target = rng.next_below(total);
                if target == v {
                    target = (target + 1) % total;
                }
                edges.push(target);
            }
            edges.sort_unstable();
            edges.dedup();
            adjacency.push(edges);
        }
        adjacency
    }
}

impl ProxyApp for MiniVite {
    fn name(&self) -> &'static str {
        "miniVite"
    }

    fn iterations(&self) -> u64 {
        self.params.max_iterations
    }

    fn global_units(&self, _initial_ranks: usize) -> u64 {
        // One unit = one vertex; the generated graph is globally sized already.
        self.params.vertices as u64
    }

    fn run(
        &self,
        ctx: &mut RankCtx,
        fti: &mut Fti,
        injector: &FaultInjector,
    ) -> Result<AppOutput, MpiError> {
        let world = ctx.world();
        let total = self.params.vertices;
        // Vertices are partitioned over the current world: after a shrink the
        // survivors re-divide the same graph, and because the generator is
        // deterministic in the vertex id they can regenerate any adopted vertex's
        // edges locally.
        let partition = BlockPartition::new(total, world.size());
        let v_start = partition.start(world.rank());
        let v_count = partition.count(world.rank());

        let adjacency = self.generate_local_graph(&partition, world.rank());
        let edge_count: usize = adjacency.iter().map(Vec::len).sum();
        ctx.compute(edge_count as f64 * 3.0);
        // Total edge weight (2m in modularity terms), constant across iterations.
        let local_degree_sum: f64 = edge_count as f64;
        let two_m = ctx.allreduce_sum_f64(&world, local_degree_sum)?;

        // Community assignment of the local vertices (global labels).
        let mut communities: Vec<u64> = (v_start..v_start + v_count).map(|v| v as u64).collect();
        let mut iteration: u64 = 0;

        fti.protect_partitioned(0, "communities", &communities, total as u64);
        fti.protect(1, "iteration", &iteration);
        if fti.status().is_restart() {
            fti.recover(
                ctx,
                &mut [
                    (0, &mut communities as &mut dyn Protectable),
                    (1, &mut iteration as &mut dyn Protectable),
                ],
            )?;
        }

        let mut modularity = 0.0f64;
        while iteration < self.params.max_iterations {
            let current = iteration + 1;
            injector.maybe_fail(ctx, current)?;

            // 1. Share the community assignment of every vertex. The ranks own
            // consecutive vertex blocks in rank order, so the gathered chunks laid end
            // to end are the global assignment.
            let gathered = ctx.allgather_u64(&world, &communities)?;
            let global_communities = gathered.flat();
            debug_assert_eq!(global_communities.len(), total);

            // 2. Per-community degree sums (the Louvain "sigma_tot"), globally reduced.
            let mut local_sigma = vec![0.0f64; total];
            for (local, edges) in adjacency.iter().enumerate() {
                let c = global_communities[v_start + local] as usize;
                local_sigma[c] += edges.len() as f64;
            }
            ctx.compute(v_count as f64 * 2.0);
            let sigma_tot = ctx.allreduce_f64(&world, mpisim::ctx::ReduceOp::Sum, &local_sigma)?;

            // 3. Greedy vertex moves.
            let mut moves = 0u64;
            let mut local_gain = 0.0f64;
            let mut flops = 0.0;
            for (local, edges) in adjacency.iter().enumerate() {
                let v = v_start + local;
                let my_degree = edges.len() as f64;
                let current_c = global_communities[v] as usize;
                // Count links into each neighbouring community.
                let mut best_c = current_c;
                let mut best_gain = 0.0f64;
                let mut links_current = 0.0;
                for &u in edges {
                    if global_communities[u] as usize == current_c && u != v {
                        links_current += 1.0;
                    }
                }
                for &u in edges {
                    let cand = global_communities[u] as usize;
                    if cand == current_c {
                        continue;
                    }
                    let links_cand = edges
                        .iter()
                        .filter(|&&w| global_communities[w] as usize == cand)
                        .count() as f64;
                    // Modularity gain of moving v from current_c to cand.
                    let gain = (links_cand - links_current) / two_m
                        - my_degree * (sigma_tot[cand] - sigma_tot[current_c] + my_degree)
                            / (two_m * two_m);
                    flops += 8.0 + edges.len() as f64;
                    if gain > best_gain + 1e-12 {
                        best_gain = gain;
                        best_c = cand;
                    }
                }
                if best_c != current_c {
                    communities[local] = best_c as u64;
                    moves += 1;
                    local_gain += best_gain;
                }
            }
            ctx.compute(flops);

            // 4. Global convergence check.
            let total_moves = ctx.allreduce_sum_u64(&world, moves)?;
            modularity += ctx.allreduce_sum_f64(&world, local_gain)?;
            iteration = current;

            if fti.should_checkpoint(iteration) {
                fti.checkpoint(
                    ctx,
                    iteration,
                    &[
                        (0, &communities as &dyn Protectable),
                        (1, &iteration as &dyn Protectable),
                    ],
                )?;
            }
            if total_moves == 0 {
                break;
            }
        }

        fti.finalize(ctx)?;
        let local_sum: f64 = communities.iter().map(|&c| c as f64 * 0.001).sum();
        let global = ctx.allreduce_sum_f64(&world, local_sum)?;
        Ok(AppOutput {
            app: self.name(),
            iterations: iteration,
            checksum: global,
            figure_of_merit: modularity,
            owned_units: (v_start as u64, v_count as u64),
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

    fn small() -> MiniVite {
        MiniVite::new(MiniViteParams::new(256, 6, 10))
    }

    #[test]
    fn graph_generation_is_deterministic_and_covers_all_vertices() {
        let app = small();
        let partition = BlockPartition::new(256, 4);
        let a = app.generate_local_graph(&partition, 1);
        let b = app.generate_local_graph(&partition, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for edges in &a {
            assert!(!edges.is_empty());
            assert!(edges.iter().all(|&u| u < 256));
        }
    }

    #[test]
    fn louvain_finds_communities_and_improves_modularity() {
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
        let out = outcome.value_of(0);
        assert_eq!(out.app, "miniVite");
        assert!(out.iterations >= 1);
        assert!(
            out.figure_of_merit > 0.0,
            "modularity gain must be positive"
        );
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
    fn single_rank_run_matches_multi_rank_run() {
        // The algorithm is deterministic and independent of the decomposition because
        // every move decision uses the full global community map of the previous
        // iteration.
        let run = |nranks| {
            let cluster = Cluster::new(ClusterConfig::with_ranks(nranks));
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
        // The community structure is decomposition-independent; the checksum is a
        // floating-point sum whose association order differs, so compare with a small
        // relative tolerance.
        let single = run(1);
        let multi = run(4);
        assert!(
            ((single - multi) / single).abs() < 1e-9,
            "single-rank {single} vs multi-rank {multi}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_vertices_panics() {
        let _ = MiniViteParams::new(0, 4, 1);
    }
}

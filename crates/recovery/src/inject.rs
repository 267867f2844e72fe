//! Fault injection: single failures and multi-failure scenario traces.
//!
//! MATCH's original methodology injects exactly one process failure per run (a random
//! rank at a random iteration, Fig. 4 of the paper). Production jobs survive
//! *sequences* of failures, so the injection model is a [`FailureTrace`]: an ordered
//! multi-event schedule of process kills and node crashes. Traces can be written out
//! explicitly, derived from a legacy [`FaultPlan`], or sampled from a seeded arrival
//! process ([`ArrivalModel`]: exponential inter-arrival draws whose rate scales with
//! the node count, with optional correlated same-node crashes, rack-neighbour
//! follow-up crashes and recovery-window follow-up events).
//!
//! The [`FaultInjector`] is the per-run object the application consults at the top of
//! every main-loop iteration. Firing is deterministic in virtual time:
//!
//! * an event is *spent* once the cluster-wide failure-event counter has absorbed its
//!   victims, so a respawned rank replaying the injection iteration never re-fires it;
//! * a node crash kills every co-located rank as **one** event burst (one spent
//!   event), stamped with a single virtual failure time, and schedules the node's
//!   checkpoint storage for erasure at the next repair;
//! * a non-victim that reaches the iteration of a pending event blocks (in host time,
//!   at no virtual cost) until the event has actually fired — the *detection barrier*
//!   that guarantees the failure's virtual timestamp is published before any
//!   post-event operation evaluates the simulator's visibility rule.

use mpisim::failure::{FailureKind, FailureSpec};
use mpisim::{MpiError, RankCtx, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What failure (if any) to inject into a run — the paper's single-event model, kept
/// as the convenient front for the common cases. Converts into a [`FailureTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Inject nothing: a failure-free run.
    None,
    /// Inject exactly the given failure.
    Fixed(FailureSpec),
    /// Choose the victim rank and the iteration pseudo-randomly from the seed, like the
    /// paper's methodology ("a random iteration and a random process"), but
    /// reproducibly.
    Random {
        /// RNG seed.
        seed: u64,
        /// Number of iterations of the main loop (the iteration is drawn from
        /// `1..=max_iteration`).
        max_iteration: u64,
    },
}

impl FaultPlan {
    /// A failure-free plan.
    pub fn none() -> Self {
        FaultPlan::None
    }

    /// Kill `rank` at `iteration`.
    pub fn kill_rank_at(rank: usize, iteration: u64) -> Self {
        FaultPlan::Fixed(FailureSpec::kill_process(rank, iteration))
    }

    /// Crash `node` at `iteration`.
    pub fn crash_node_at(node: usize, iteration: u64) -> Self {
        FaultPlan::Fixed(FailureSpec::crash_node(node, iteration))
    }

    /// A seeded random process failure within the first `max_iteration` iterations.
    pub fn random(seed: u64, max_iteration: u64) -> Self {
        FaultPlan::Random {
            seed,
            max_iteration,
        }
    }

    /// Whether this plan injects anything.
    pub fn injects_failure(&self) -> bool {
        !matches!(self, FaultPlan::None)
    }

    /// Resolves the plan to a concrete failure spec for a job of `nprocs` ranks.
    /// Victim validation happens in [`FailureTrace::resolve`] /
    /// [`FaultInjector::new`], which reject out-of-range victims instead of silently
    /// never firing.
    pub fn resolve(&self, nprocs: usize) -> Option<FailureSpec> {
        match *self {
            FaultPlan::None => None,
            FaultPlan::Fixed(spec) => Some(spec),
            FaultPlan::Random {
                seed,
                max_iteration,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let rank = rng.random_range(0..nprocs);
                let iteration = rng.random_range(1..=max_iteration.max(1));
                Some(FailureSpec::kill_process(rank, iteration))
            }
        }
    }
}

/// A seeded stochastic failure-arrival model, resolved against a concrete topology
/// into an ordered event schedule. Inter-arrival gaps are exponential (a Poisson
/// failure process, the classic MTBF model behind Daly's optimal-interval analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalModel {
    /// RNG seed; equal seeds on equal topologies yield identical schedules.
    pub seed: u64,
    /// Horizon: events are scheduled in iterations `1..=max_iteration`.
    pub max_iteration: u64,
    /// Mean iterations between failures of a *single node*. The job-level rate scales
    /// with the node count: a 32-node job draws inter-arrival gaps with mean
    /// `node_mtbf_iterations / 32`.
    pub node_mtbf_iterations: f64,
    /// Percent chance (0–100) that an event is a correlated *node crash* (killing
    /// every rank of the victim's node) instead of a single process kill.
    pub node_crash_pct: u8,
    /// Percent chance (0–100) that a node crash is followed by a crash of **another
    /// node in the victim's rack** one iteration later (cascading hardware failures
    /// share the power and switching domain of a rack). The cascade victim is
    /// sampled uniformly from the rack's other nodes — never the already-crashed
    /// node — and the cascade is skipped entirely when the rack has no other node.
    pub rack_neighbor_pct: u8,
    /// Percent chance (0–100) that a process-kill event is followed by a second kill
    /// one iteration later — landing inside the *recovery window*, while the job is
    /// redoing the work lost to the first failure and before it can checkpoint again.
    pub recovery_window_pct: u8,
}

impl ArrivalModel {
    /// An exponential (Poisson) arrival model with no correlated events.
    pub fn exponential(seed: u64, node_mtbf_iterations: f64, max_iteration: u64) -> Self {
        ArrivalModel {
            seed,
            max_iteration,
            node_mtbf_iterations,
            node_crash_pct: 0,
            rack_neighbor_pct: 0,
            recovery_window_pct: 0,
        }
    }

    /// Sets the correlated-crash percentages.
    pub fn correlated(mut self, node_crash_pct: u8, rack_neighbor_pct: u8) -> Self {
        self.node_crash_pct = node_crash_pct.min(100);
        self.rack_neighbor_pct = rack_neighbor_pct.min(100);
        self
    }

    /// Sets the recovery-window follow-up percentage.
    pub fn recovery_window(mut self, pct: u8) -> Self {
        self.recovery_window_pct = pct.min(100);
        self
    }

    fn uniform(rng: &mut StdRng) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pct(rng: &mut StdRng, pct: u8) -> bool {
        pct > 0 && rng.random_range(0..100) < pct as usize
    }

    /// An exponential inter-arrival gap of the given mean.
    fn draw_gap(rng: &mut StdRng, mean: f64) -> f64 {
        let u = Self::uniform(rng);
        // `u` is in [0, 1); `1 - u` is in (0, 1], so the logarithm is finite.
        mean * -(1.0 - u).ln()
    }

    /// The cascade victim for a crash of `node`: another node sampled uniformly from
    /// the crashed node's rack, or `None` when the rack has no other node. The old
    /// `(node + 1) % nnodes` neighbour ignored racks entirely and, on a 1-node
    /// topology, re-crashed the just-crashed node one iteration later — burning a
    /// failure event on a dead node (see the regression tests).
    fn rack_cascade_target(topology: &Topology, node: usize, rng: &mut StdRng) -> Option<usize> {
        let rack = topology.rack_of_node(node);
        let others: Vec<usize> = topology
            .nodes_on_rack(rack)
            .into_iter()
            .filter(|&n| n != node)
            .collect();
        if others.is_empty() {
            return None;
        }
        Some(others[rng.random_range(0..others.len())])
    }

    /// Samples the event schedule for the given topology.
    fn sample(&self, topology: &Topology) -> Vec<FailureSpec> {
        /// Hard cap on sampled events: bounds the worst-case run length and keeps the
        /// implied number of disruption epochs safely below the driver's default
        /// restart bound.
        const MAX_EVENTS: usize = 16;
        let nprocs = topology.nranks();
        let nnodes = topology.nnodes();
        let mean_gap = (self.node_mtbf_iterations / nnodes as f64).max(1e-6);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        while events.len() < MAX_EVENTS {
            t += Self::draw_gap(&mut rng, mean_gap).max(1e-9);
            let iteration = (t.ceil() as u64).max(1);
            if iteration > self.max_iteration {
                break;
            }
            let victim = rng.random_range(0..nprocs);
            if Self::pct(&mut rng, self.node_crash_pct) {
                let node = topology.node_of(victim);
                events.push(FailureSpec::crash_node(node, iteration));
                if Self::pct(&mut rng, self.rack_neighbor_pct) && iteration < self.max_iteration {
                    if let Some(cascade) = Self::rack_cascade_target(topology, node, &mut rng) {
                        events.push(FailureSpec::crash_node(cascade, iteration + 1));
                    }
                }
            } else {
                events.push(FailureSpec::kill_process(victim, iteration));
                if Self::pct(&mut rng, self.recovery_window_pct) && iteration < self.max_iteration {
                    let second = rng.random_range(0..nprocs);
                    events.push(FailureSpec::kill_process(second, iteration + 1));
                }
            }
        }
        events
    }
}

/// An ordered multi-event failure schedule (or a recipe that resolves into one).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureTrace {
    source: TraceSource,
}

#[derive(Debug, Clone, PartialEq)]
enum TraceSource {
    /// A legacy single-event plan.
    Plan(FaultPlan),
    /// An explicit event schedule.
    Schedule(Vec<FailureSpec>),
    /// A seeded stochastic arrival model.
    Sampled(ArrivalModel),
}

impl From<FaultPlan> for FailureTrace {
    fn from(plan: FaultPlan) -> Self {
        FailureTrace {
            source: TraceSource::Plan(plan),
        }
    }
}

impl From<FailureSpec> for FailureTrace {
    fn from(spec: FailureSpec) -> Self {
        FailureTrace::schedule(vec![spec])
    }
}

impl From<ArrivalModel> for FailureTrace {
    fn from(model: ArrivalModel) -> Self {
        FailureTrace {
            source: TraceSource::Sampled(model),
        }
    }
}

impl FailureTrace {
    /// A failure-free trace.
    pub fn none() -> Self {
        FaultPlan::None.into()
    }

    /// A trace with exactly the given events (sorted by iteration during resolution).
    pub fn schedule(events: Vec<FailureSpec>) -> Self {
        FailureTrace {
            source: TraceSource::Schedule(events),
        }
    }

    /// A trace sampled from the given arrival model.
    pub fn sampled(model: ArrivalModel) -> Self {
        model.into()
    }

    /// Whether this trace can inject anything at all (a sampled trace may still
    /// resolve to an empty schedule when no arrival lands within the horizon).
    pub fn injects_failure(&self) -> bool {
        match &self.source {
            TraceSource::Plan(plan) => plan.injects_failure(),
            TraceSource::Schedule(events) => !events.is_empty(),
            TraceSource::Sampled(_) => true,
        }
    }

    /// Resolves the trace to a concrete, iteration-ordered event schedule for the
    /// given topology.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::InvalidArgument`] when any event targets a rank or node
    /// outside the topology — a misconfigured victim must fail the run loudly instead
    /// of silently never firing.
    pub fn resolve(&self, topology: &Topology) -> Result<Vec<FailureSpec>, MpiError> {
        let mut events = match &self.source {
            TraceSource::Plan(plan) => plan.resolve(topology.nranks()).into_iter().collect(),
            TraceSource::Schedule(events) => events.clone(),
            TraceSource::Sampled(model) => model.sample(topology),
        };
        for event in &events {
            match event.kind {
                FailureKind::ProcessKill { rank } if rank >= topology.nranks() => {
                    return Err(MpiError::InvalidArgument(format!(
                        "failure trace targets rank {rank} but the job has only {} ranks",
                        topology.nranks()
                    )));
                }
                FailureKind::NodeCrash { node } if node >= topology.nnodes() => {
                    return Err(MpiError::InvalidArgument(format!(
                        "failure trace targets node {node} but the job has only {} nodes",
                        topology.nnodes()
                    )));
                }
                FailureKind::RackCrash { rack } if rack >= topology.nracks() => {
                    return Err(MpiError::InvalidArgument(format!(
                        "failure trace targets rack {rack} but the job has only {} racks",
                        topology.nracks()
                    )));
                }
                _ => {}
            }
        }
        events.sort_by_key(|e| e.at_iteration);
        // Same-iteration events fire within one disruption epoch; an event whose
        // victims overlap an earlier same-iteration event would kill fewer new
        // processes than its victim count and corrupt the spent-event accounting, so
        // overlapping ones are dropped.
        let mut sanitized: Vec<FailureSpec> = Vec::with_capacity(events.len());
        for event in events {
            let overlaps = sanitized.iter().any(|prev| {
                prev.at_iteration == event.at_iteration
                    && prev
                        .victims(topology)
                        .iter()
                        .any(|v| event.victims(topology).contains(v))
            });
            if !overlaps {
                sanitized.push(event);
            }
        }
        Ok(sanitized)
    }
}

/// The per-run fault injector handed to the application by the driver.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The resolved schedule, ordered by iteration.
    events: Vec<FailureSpec>,
    /// Per-event victim sets (precomputed from the topology). Event `i` is *spent*
    /// once the cluster-wide failure-event counter (adjusted for permanently retired
    /// ranks) has absorbed the still-killable victims of events `0..=i`.
    victims: Vec<Vec<usize>>,
}

impl FaultInjector {
    /// Creates an injector for the given trace over the given topology.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::InvalidArgument`] for events targeting ranks or nodes
    /// outside the topology (see [`FailureTrace::resolve`]).
    pub fn new(trace: &FailureTrace, topology: &Topology) -> Result<Self, MpiError> {
        let events = trace.resolve(topology)?;
        let victims: Vec<Vec<usize>> = events.iter().map(|e| e.victims(topology)).collect();
        Ok(FaultInjector { events, victims })
    }

    /// An injector that never fires.
    pub fn disabled() -> Self {
        FaultInjector {
            events: Vec::new(),
            victims: Vec::new(),
        }
    }

    /// The resolved event schedule.
    pub fn events(&self) -> &[FailureSpec] {
        &self.events
    }

    /// Called by the application at the top of every main-loop iteration (the analogue
    /// of the paper's Fig. 4 snippet). Fires the next pending event of the schedule
    /// when this rank is among its victims and the iteration has been reached; blocks
    /// non-victims at the detection barrier until the event has fired. Each event is
    /// spent exactly once per job: a respawned rank replaying the injection iteration
    /// (even one placed back on a crashed node) is never re-killed.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::SelfFailed`] when a failure event kills the calling rank.
    pub fn maybe_fail(&self, ctx: &mut RankCtx, iteration: u64) -> Result<(), MpiError> {
        if self.events.is_empty() {
            return Ok(());
        }
        loop {
            // A rank killed externally (a node crash fired by a co-located victim)
            // acknowledges its death at its next iteration top.
            if !ctx.is_self_alive() {
                return Err(ctx.acknowledge_killed());
            }
            // Shrinking recoveries permanently retire the dead instead of reviving
            // them. Each retired rank spent exactly one count of the failure-event
            // counter when it was first killed, and retired victims of later events
            // can never be killed again — so both the fired count and the per-event
            // thresholds are adjusted to the still-killable victims. While nobody is
            // retired (every non-shrinking design) `retired` is 0 and this reduces
            // exactly to the precomputed thresholds. The retired set only changes
            // inside the shrink rendezvous, which cannot complete while this rank is
            // here, so the count and the victims' states are stable for the whole
            // loop body.
            let retired = ctx.retired_count() as u64;
            let adjusted_fired = ctx.failure_events() - retired;
            let mut killable_cum = 0u64;
            let mut pending = None;
            for (i, victims) in self.victims.iter().enumerate() {
                killable_cum += victims.iter().filter(|&&v| !ctx.is_retired(v)).count() as u64;
                if adjusted_fired < killable_cum {
                    pending = Some((i, killable_cum));
                    break;
                }
            }
            let Some((i, killable_cum)) = pending else {
                return Self::ok_if_alive(ctx); // every event is spent
            };
            if iteration < self.events[i].at_iteration {
                return Self::ok_if_alive(ctx); // the next event is not due yet
            }
            if self.victims[i].contains(&ctx.rank()) {
                return Err(self.fire(ctx, i));
            }
            // Detection barrier: wait (host time, no virtual cost) until the event has
            // fired, so its virtual timestamp is published before this rank runs any
            // further operation. The wait also releases while a disruption epoch is in
            // progress — then the event cannot fire until the job is repaired and the
            // victim replays the iteration, and this rank proceeds into the epoch's
            // deterministic abort protocol instead.
            let raw_target = killable_cum + retired;
            ctx.wait_for_failure_events(raw_target);
            if ctx.failure_events() < raw_target {
                return Self::ok_if_alive(ctx);
            }
        }
    }

    /// Final self-liveness re-check on every `Ok` path: the failure-event counter is
    /// read *after* the liveness flag is set (both are sequentially consistent), so a
    /// rank that observes an event as spent also observes its own death by it.
    fn ok_if_alive(ctx: &mut RankCtx) -> Result<(), MpiError> {
        if ctx.is_self_alive() {
            Ok(())
        } else {
            Err(ctx.acknowledge_killed())
        }
    }

    /// Fires event `i`: kills every victim at this rank's current virtual time as one
    /// event burst. A node or rack crash additionally records the crashed node(s) so
    /// the recovery driver erases their checkpoint storage at the next repair
    /// rendezvous (while every rank is parked, so erasure never races in-flight
    /// checkpoint writes; without a driver the note is drained as a no-op).
    fn fire(&self, ctx: &mut RankCtx, i: usize) -> MpiError {
        for node in self.events[i].crashed_nodes(ctx.topology()) {
            ctx.note_node_failure(node);
        }
        ctx.kill_ranks(&self.victims[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Cluster, ClusterConfig};

    fn topo(nranks: usize, nnodes: usize) -> Topology {
        Topology::new(nranks, nnodes)
    }

    #[test]
    fn none_plan_never_fires() {
        assert!(!FaultPlan::none().injects_failure());
        assert_eq!(FaultPlan::none().resolve(64), None);
        assert!(!FailureTrace::none().injects_failure());
        assert!(FailureTrace::none()
            .resolve(&topo(8, 4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fixed_plan_resolves_to_itself() {
        let plan = FaultPlan::kill_rank_at(5, 12);
        assert!(plan.injects_failure());
        let spec = plan.resolve(64).unwrap();
        assert_eq!(spec, FailureSpec::kill_process(5, 12));
    }

    #[test]
    fn random_plan_is_deterministic_for_a_seed() {
        let a = FaultPlan::random(42, 100).resolve(64).unwrap();
        let b = FaultPlan::random(42, 100).resolve(64).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 100).resolve(64).unwrap();
        // Different seeds give a different victim/iteration pair (checked against the
        // deterministic generator's actual streams).
        assert_ne!(a, c);
        // The chosen values are in range.
        if let FailureKind::ProcessKill { rank } = a.kind {
            assert!(rank < 64);
        } else {
            panic!("random plan must kill a process");
        }
        assert!(a.at_iteration >= 1 && a.at_iteration <= 100);
    }

    #[test]
    fn out_of_range_victims_are_configuration_errors() {
        // Satellite bugfix: a victim rank >= nprocs (or node >= nnodes) used to
        // silently never fire; it now fails resolution loudly.
        let t = topo(8, 4);
        let trace: FailureTrace = FaultPlan::kill_rank_at(8, 3).into();
        assert!(matches!(
            trace.resolve(&t),
            Err(MpiError::InvalidArgument(_))
        ));
        let trace: FailureTrace = FaultPlan::crash_node_at(4, 3).into();
        assert!(matches!(
            FaultInjector::new(&trace, &t),
            Err(MpiError::InvalidArgument(_))
        ));
        // In-range victims stay fine.
        let trace: FailureTrace = FaultPlan::kill_rank_at(7, 3).into();
        assert!(FaultInjector::new(&trace, &t).is_ok());
    }

    #[test]
    fn schedules_are_sorted_and_overlaps_dropped() {
        let t = topo(8, 4);
        let trace = FailureTrace::schedule(vec![
            FailureSpec::kill_process(5, 9),
            FailureSpec::crash_node(0, 3),
            // Overlaps the node-0 crash at the same iteration (rank 1 lives there).
            FailureSpec::kill_process(1, 3),
            FailureSpec::kill_process(1, 6),
        ]);
        let events = trace.resolve(&t).unwrap();
        assert_eq!(
            events,
            vec![
                FailureSpec::crash_node(0, 3),
                FailureSpec::kill_process(1, 6),
                FailureSpec::kill_process(5, 9),
            ]
        );
    }

    #[test]
    fn sampled_traces_are_seed_deterministic_and_in_range() {
        let t = topo(16, 4);
        let model = ArrivalModel::exponential(99, 400.0, 50)
            .correlated(30, 50)
            .recovery_window(25);
        let a = FailureTrace::sampled(model).resolve(&t).unwrap();
        let b = FailureTrace::sampled(model).resolve(&t).unwrap();
        assert_eq!(a, b, "equal seeds must give equal schedules");
        for e in &a {
            assert!(e.at_iteration >= 1 && e.at_iteration <= 50);
            match e.kind {
                FailureKind::ProcessKill { rank } => assert!(rank < 16),
                FailureKind::NodeCrash { node } => assert!(node < 4),
                FailureKind::RackCrash { rack } => assert!(rack < 1),
            }
        }
        let c = FailureTrace::sampled(ArrivalModel::exponential(100, 400.0, 50))
            .resolve(&t)
            .unwrap();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn arrival_rate_scales_with_node_count() {
        // The same node-level MTBF produces more failures on a bigger cluster.
        let few = FailureTrace::sampled(ArrivalModel::exponential(7, 2000.0, 1000))
            .resolve(&topo(4, 2))
            .unwrap();
        let many = FailureTrace::sampled(ArrivalModel::exponential(7, 2000.0, 1000))
            .resolve(&topo(64, 32))
            .unwrap();
        assert!(
            many.len() > few.len(),
            "32 nodes must fail more often than 2 ({} vs {})",
            many.len(),
            few.len()
        );
    }

    #[test]
    fn rack_cascade_never_targets_the_victim_and_stays_in_rack() {
        // Satellite bugfix regression: the cascade used to target `(node + 1) %
        // nnodes`, which on a 1-node topology re-crashed the just-crashed node one
        // iteration later (burning a failure event on a dead node) and on multi-rack
        // topologies happily jumped the rack boundary.
        let mut rng = StdRng::seed_from_u64(7);
        // 1-node topology: no distinct neighbour exists, the cascade is skipped.
        let single = Topology::new(4, 1);
        for _ in 0..32 {
            assert_eq!(
                ArrivalModel::rack_cascade_target(&single, 0, &mut rng),
                None
            );
        }
        // Single-node racks: the rack offers no neighbour either.
        let lonely_racks = Topology::with_racks(8, 4, 4);
        for node in 0..4 {
            assert_eq!(
                ArrivalModel::rack_cascade_target(&lonely_racks, node, &mut rng),
                None
            );
        }
        // Multi-node racks: the cascade stays in the victim's rack and never
        // re-crashes the victim itself.
        let racked = Topology::with_racks(16, 8, 2);
        for node in 0..8 {
            for _ in 0..32 {
                let cascade = ArrivalModel::rack_cascade_target(&racked, node, &mut rng)
                    .expect("a four-node rack always has a neighbour");
                assert_ne!(cascade, node, "cascade re-crashed the victim");
                assert!(
                    racked.nodes_share_rack(cascade, node),
                    "cascade {cascade} left node {node}'s rack"
                );
            }
        }
    }

    #[test]
    fn sampled_cascades_stay_in_the_victims_rack() {
        // End-to-end over the sampler: with 100% node crashes and 100% cascades on a
        // two-rack topology, every event one iteration after a node crash is its
        // cascade and must name a different node of the same rack. Arrivals are
        // spaced ~1000 iterations apart so distance-1 pairs can only be cascades.
        let t = Topology::with_racks(16, 8, 2);
        let model = ArrivalModel::exponential(21, 8000.0, 60_000).correlated(100, 100);
        let events = FailureTrace::sampled(model).resolve(&t).unwrap();
        let mut cascades = 0;
        for pair in events.windows(2) {
            let (FailureKind::NodeCrash { node: first }, FailureKind::NodeCrash { node: second }) =
                (pair[0].kind, pair[1].kind)
            else {
                continue;
            };
            if pair[1].at_iteration == pair[0].at_iteration + 1 {
                cascades += 1;
                assert_ne!(second, first, "cascade re-crashed the victim");
                assert!(t.nodes_share_rack(first, second), "cascade left the rack");
            }
        }
        assert!(cascades >= 2, "the seed must actually produce cascades");
    }

    #[test]
    fn rack_crash_events_resolve_and_validate() {
        let t = Topology::with_racks(8, 4, 2);
        let trace: FailureTrace = FailureSpec::crash_rack(1, 3).into();
        let events = trace.resolve(&t).unwrap();
        assert_eq!(events, vec![FailureSpec::crash_rack(1, 3)]);
        // Out-of-range racks fail loudly, like ranks and nodes.
        let bad: FailureTrace = FailureSpec::crash_rack(2, 3).into();
        assert!(matches!(bad.resolve(&t), Err(MpiError::InvalidArgument(_))));
    }

    #[test]
    fn rack_crash_kills_every_rank_of_the_rack_as_one_event() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(8).nodes(4).racks(2));
        let outcome = cluster.run(|ctx| {
            let injector =
                FaultInjector::new(&FailureSpec::crash_rack(0, 1).into(), ctx.topology())?;
            let res = injector.maybe_fail(ctx, 1);
            if ctx.topology().rack_of(ctx.rank()) == 0 {
                assert!(res.is_err());
            } else {
                assert!(res.is_ok());
            }
            Ok((ctx.failed_ranks(), ctx.failure_events()))
        });
        for rank in 0..8 {
            let (failed, events) = outcome.value_of(rank);
            assert_eq!(
                failed,
                &vec![0, 1, 2, 3],
                "rank {rank} must see all victims"
            );
            assert_eq!(*events, 4, "one rack crash = one four-victim event burst");
        }
    }

    #[test]
    fn a_healthy_iteration_top_costs_no_per_rank_lock_or_scan() {
        // Every rank consults the injector every iteration. With an event pending but
        // not yet due and nobody failed or retired, that consultation — and the
        // liveness queries drivers make beside it — must be answered from the
        // cluster's counters: the casualty lists (the only per-rank state a query can
        // reach) are never locked, whatever the job's size.
        for nprocs in [8, 64] {
            let cluster = Cluster::new(ClusterConfig::with_ranks(nprocs));
            let outcome = cluster.run(|ctx| {
                let injector =
                    FaultInjector::new(&FaultPlan::kill_rank_at(3, 1000).into(), ctx.topology())?;
                for iteration in 1..=20 {
                    injector.maybe_fail(ctx, iteration)?;
                    assert!(ctx.failed_ranks().is_empty() && ctx.retired_count() == 0);
                    let world = ctx.world();
                    ctx.allreduce_sum_f64(&world, 1.0)?;
                }
                Ok(ctx.slow_liveness_queries())
            });
            for rank in 0..nprocs {
                assert_eq!(*outcome.value_of(rank), 0, "{nprocs} ranks, rank {rank}");
            }
        }
    }

    #[test]
    fn exponential_mean_matches_the_configured_mtbf() {
        // Average many gaps: the sample mean must track the requested mean within
        // sampling error.
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| ArrivalModel::draw_gap(&mut rng, 10.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "sample mean {mean} far from 10");
    }

    #[test]
    fn injector_kills_only_the_victim_at_the_right_iteration() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(|ctx| {
            let injector =
                FaultInjector::new(&FaultPlan::kill_rank_at(2, 3).into(), ctx.topology())?;
            for iteration in 1..=5u64 {
                match injector.maybe_fail(ctx, iteration) {
                    Ok(()) => {}
                    Err(MpiError::SelfFailed) => {
                        assert_eq!(ctx.rank(), 2);
                        assert_eq!(iteration, 3);
                        return Ok(true);
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(false)
        });
        let killed: Vec<bool> = outcome
            .results()
            .iter()
            .map(|r| *r.as_ref().unwrap())
            .collect();
        assert_eq!(killed, vec![false, false, true, false]);
    }

    #[test]
    fn injector_fires_at_most_once_per_job() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(|ctx| {
            let injector =
                FaultInjector::new(&FaultPlan::kill_rank_at(0, 1).into(), ctx.topology())?;
            let mut kills = 0;
            for attempt in 0..3 {
                for iteration in 1..=2u64 {
                    if injector.maybe_fail(ctx, iteration).is_err() {
                        kills += 1;
                        assert_eq!(
                            attempt, 0,
                            "the failure must only fire on the first attempt"
                        );
                        break;
                    }
                }
                // Both ranks join the recovery that revives the job between attempts
                // (the rendezvous spans every rank of the job).
                ctx.recovery_rendezvous(mpisim::SimTime::ZERO, |_| {})?;
            }
            Ok(kills)
        });
        assert_eq!(*outcome.value_of(0), 1);
        assert_eq!(*outcome.value_of(1), 0);
    }

    #[test]
    fn node_crash_kills_co_located_ranks_as_one_event() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(2));
        let outcome = cluster.run(|ctx| {
            let injector =
                FaultInjector::new(&FaultPlan::crash_node_at(0, 1).into(), ctx.topology())?;
            let res = injector.maybe_fail(ctx, 1);
            if ctx.topology().node_of(ctx.rank()) == 0 {
                // Victims observe their own death; the whole node died as one burst,
                // so both co-located failures are visible immediately.
                assert!(res.is_err());
                return Ok((ctx.failed_ranks().len(), ctx.failure_events()));
            }
            // Survivors were held at the detection barrier until the event fired.
            Ok((ctx.failed_ranks().len(), ctx.failure_events()))
        });
        for rank in 0..4 {
            let (failed, events) = *outcome.value_of(rank);
            assert_eq!(failed, 2, "rank {rank} must see both victims");
            assert_eq!(events, 2, "one node crash = one two-victim event burst");
        }
    }

    #[test]
    fn respawned_rank_on_crashed_node_is_not_rekilled() {
        // Satellite bugfix: after recovery, the victims replay the injection
        // iteration on the same (crashed, now repaired) node; the spent event must
        // not fire again — and the crash counts as ONE spent event even though it
        // killed two ranks.
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(2));
        let outcome = cluster.run(|ctx| {
            let injector =
                FaultInjector::new(&FaultPlan::crash_node_at(0, 2).into(), ctx.topology())?;
            let mut deaths = 0u32;
            for attempt in 0..2 {
                let mut failed = false;
                for iteration in 1..=3u64 {
                    match injector.maybe_fail(ctx, iteration) {
                        Ok(()) => {}
                        Err(MpiError::SelfFailed) => {
                            deaths += 1;
                            failed = true;
                            assert_eq!(attempt, 0, "no re-kill on the replay attempt");
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                // Global-restart recovery revives everyone; the next attempt replays
                // the same iterations.
                if failed || ctx.failed_count() > 0 {
                    ctx.recovery_rendezvous(mpisim::SimTime::ZERO, |_| {})?;
                } else if attempt == 0 {
                    // Survivors wait for the epoch before joining recovery.
                    ctx.wait_for_failure_events(1);
                    ctx.recovery_rendezvous(mpisim::SimTime::ZERO, |_| {})?;
                }
            }
            Ok(deaths)
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(*outcome.value_of(0), 1);
        assert_eq!(*outcome.value_of(1), 1);
        assert_eq!(*outcome.value_of(2), 0);
        assert_eq!(*outcome.value_of(3), 0);
    }

    #[test]
    fn multi_event_schedules_fire_in_order_across_epochs() {
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let trace = FailureTrace::schedule(vec![
            FailureSpec::kill_process(0, 2),
            FailureSpec::kill_process(1, 4),
        ]);
        let outcome = cluster.run(move |ctx| {
            let injector = FaultInjector::new(&trace, ctx.topology())?;
            let mut deaths = Vec::new();
            for _attempt in 0..3 {
                let mut failed = false;
                for iteration in 1..=5u64 {
                    match injector.maybe_fail(ctx, iteration) {
                        Ok(()) => {}
                        Err(MpiError::SelfFailed) => {
                            deaths.push(iteration);
                            failed = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if !failed {
                    // A survivor of this epoch waits until the scheduled victim died
                    // (or no event is pending at all).
                    if ctx.failure_events() < 2 {
                        ctx.wait_for_failure_events(ctx.failure_events() + 1);
                    }
                }
                if ctx.failed_count() > 0 {
                    ctx.recovery_rendezvous(mpisim::SimTime::ZERO, |_| {})?;
                }
            }
            Ok(deaths)
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        assert_eq!(*outcome.value_of(0), vec![2]);
        assert_eq!(*outcome.value_of(1), vec![4]);
    }

    #[test]
    fn disabled_injector_has_no_spec() {
        assert!(FaultInjector::disabled().events().is_empty());
    }
}

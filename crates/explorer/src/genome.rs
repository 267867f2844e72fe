//! The explorer's search space: explicit, mutable failure traces.
//!
//! A [`TraceGenome`] is everything one explored run needs beyond the design under
//! test: the scale, the FTI configuration axis the search varies (checkpoint level
//! and interval) and an explicit multi-event failure schedule. Mutation operators
//! cover every axis the tentpole names — event kind, victim rank/node/rack,
//! iteration alignment against checkpoint and recovery windows, and growing or
//! pruning multi-event chains — and are driven by the deterministic
//! [`proptest::TestRng`], so a (seed, budget) pair always explores the same
//! sequence of candidates.

use match_core::fti::{CheckpointLevel, FtiConfig};
use match_core::mpisim::{FailureKind, FailureSpec, Topology};
use match_core::persist::{Dec, Enc};
use match_core::recovery::{FailureTrace, RecoveryStrategy};
use match_core::runner::experiment_layout;
use match_core::TraceRunSpec;
use proptest::TestRng;

/// The longest event chain the mutator grows. Three correlated events already
/// reach every compound path (erase a set, then its fallback) while staying far
/// below the driver's restart bound.
pub const MAX_EVENTS: usize = 3;

/// One point of the fault space: a design-independent trace the explorer runs
/// under each enabled design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceGenome {
    /// Ranks of the simulated job.
    pub nprocs: usize,
    /// Main-loop iterations of the synthetic workload.
    pub iterations: u64,
    /// The configured checkpoint level.
    pub level: CheckpointLevel,
    /// The checkpoint interval in iterations.
    pub interval: u64,
    /// The failure schedule (possibly empty: the failure-free trace).
    pub events: Vec<FailureSpec>,
}

impl TraceGenome {
    /// The failure-free genome at the given scale.
    pub fn baseline(nprocs: usize, iterations: u64) -> Self {
        TraceGenome {
            nprocs,
            iterations,
            level: CheckpointLevel::L1,
            interval: 3,
            events: Vec::new(),
        }
    }

    /// The deterministic seed corpus: per checkpoint level one mid-run process
    /// kill and one mid-run node crash (the primary-restore and redundancy-restore
    /// paths), plus a pre-checkpoint kill (the `scratch` path) and the failure-free
    /// baseline (the `fresh` path). Together the seeds already reach the full
    /// single-event taxonomy; mutation explores alignments, racks and chains.
    pub fn seeds(nprocs: usize, iterations: u64, topology: &Topology) -> Vec<TraceGenome> {
        let mid = (iterations / 2).max(2);
        let node = 1usize.min(topology.nnodes().saturating_sub(1));
        let mut seeds = vec![TraceGenome::baseline(nprocs, iterations)];
        for level in CheckpointLevel::ALL {
            let base = TraceGenome {
                nprocs,
                iterations,
                level,
                interval: 3,
                events: Vec::new(),
            };
            let mut kill = base.clone();
            kill.events = vec![FailureSpec::kill_process(1 % nprocs, mid)];
            seeds.push(kill);
            let mut crash = base.clone();
            crash.events = vec![FailureSpec::crash_node(node, mid)];
            seeds.push(crash);
        }
        let mut early = TraceGenome::baseline(nprocs, iterations);
        // Interval 3, event at iteration 1: nothing has been checkpointed yet, so
        // the respawned world restarts from scratch.
        early.events = vec![FailureSpec::kill_process(0, 1)];
        seeds.push(early);
        seeds
    }

    /// The concrete run this genome describes under `strategy`.
    pub fn spec(&self, strategy: RecoveryStrategy) -> TraceRunSpec {
        let trace = if self.events.is_empty() {
            FailureTrace::none()
        } else {
            FailureTrace::schedule(self.events.clone())
        };
        TraceRunSpec {
            nprocs: self.nprocs,
            iterations: self.iterations,
            strategy,
            fti: FtiConfig::level(self.level).interval(self.interval),
            trace,
        }
    }

    /// The topology this genome's runs are laid out on (victim index bounds for
    /// the mutation operators).
    pub fn topology(&self) -> Topology {
        let (nnodes, nracks) = experiment_layout(self.nprocs);
        Topology::with_racks(self.nprocs, nnodes, nracks)
    }

    /// Whether every configured checkpoint of this genome survives every event of
    /// its schedule: L4 checkpoints live on the parallel file system, which no
    /// process kill, node crash or rack crash destroys. When additionally at least
    /// one checkpoint completes before the first event fires, a `scratch` restart
    /// is a bug, not a legitimate path — the explorer's survivability property.
    pub fn survivability_expected(&self) -> bool {
        self.level == CheckpointLevel::L4
            && !self.events.is_empty()
            && self.interval < self.iterations
            && self.events.iter().all(|e| e.at_iteration > self.interval)
    }

    /// One mutated copy. Exactly one operator is applied; operators that do not
    /// apply (removing from a single-event chain, …) fall through to retiming.
    pub fn mutate(&self, rng: &mut TestRng, topology: &Topology) -> TraceGenome {
        let mut next = self.clone();
        match rng.below(8) {
            // Retarget a random event at a random valid victim of its kind.
            0 if !next.events.is_empty() => {
                let i = rng.below(next.events.len());
                let bound = match next.events[i].kind {
                    FailureKind::ProcessKill { .. } => self.nprocs,
                    FailureKind::NodeCrash { .. } => topology.nnodes(),
                    FailureKind::RackCrash { .. } => topology.nracks(),
                };
                next.events[i] = next.events[i].with_victim(rng.below(bound));
            }
            // Move a random event to a uniformly random iteration.
            1 if !next.events.is_empty() => {
                let i = rng.below(next.events.len());
                let at = 1 + rng.below(self.iterations as usize) as u64;
                next.events[i] = next.events[i].with_iteration(at);
            }
            // Flip a random event's kind (rebuilding a valid victim).
            2 if !next.events.is_empty() => {
                let i = rng.below(next.events.len());
                let at = next.events[i].at_iteration;
                next.events[i] = match rng.below(3) {
                    0 => FailureSpec::kill_process(rng.below(self.nprocs), at),
                    1 => FailureSpec::crash_node(rng.below(topology.nnodes()), at),
                    _ => FailureSpec::crash_rack(rng.below(topology.nracks()), at),
                };
            }
            // Grow the chain by one event.
            3 if next.events.len() < MAX_EVENTS => {
                let at = 1 + rng.below(self.iterations as usize) as u64;
                next.events
                    .push(FailureSpec::kill_process(rng.below(self.nprocs), at));
            }
            // Prune the chain by one event.
            4 if next.events.len() > 1 => {
                let i = rng.below(next.events.len());
                next.events.remove(i);
            }
            // Reconfigure the checkpoint level.
            5 => {
                next.level = CheckpointLevel::ALL[rng.below(CheckpointLevel::ALL.len())];
            }
            // Reconfigure the checkpoint interval.
            6 => {
                next.interval = 1 + rng.below(self.iterations as usize) as u64;
            }
            // Align a random event against a checkpoint window: exactly on a
            // checkpoint iteration, or in the first iteration after one (the
            // recovery-window edge where the freshest state is at stake).
            _ if !next.events.is_empty() => {
                let i = rng.below(next.events.len());
                let periods = (self.iterations / self.interval).max(1);
                let k = 1 + rng.below(periods as usize) as u64;
                let offset = rng.below(2) as u64;
                let at = (k * self.interval + offset).clamp(1, self.iterations);
                next.events[i] = next.events[i].with_iteration(at);
            }
            // Everything above fell through on an empty schedule: plant one event.
            _ => {
                let at = 1 + rng.below(self.iterations as usize) as u64;
                next.events = vec![FailureSpec::kill_process(rng.below(self.nprocs), at)];
            }
        }
        next
    }

    /// A copy with the events replaced (the shrinking hook).
    pub fn with_events(&self, events: Vec<FailureSpec>) -> TraceGenome {
        TraceGenome {
            events,
            ..self.clone()
        }
    }

    /// The canonical little-endian byte encoding (the corpus entry body; also the
    /// genome's content address input). The inverse is [`TraceGenome::decode`].
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.usize(self.nprocs);
        enc.u64(self.iterations);
        enc.u8(self.level.index());
        enc.u64(self.interval);
        enc.u32(self.events.len() as u32);
        for event in &self.events {
            enc.u8(event_kind_tag(event.kind));
            enc.usize(event.victim_index());
            enc.u64(event.at_iteration);
        }
        enc.into_bytes()
    }

    /// Decodes [`TraceGenome::canonical_bytes`]. Any malformation — truncation,
    /// unknown tags, trailing bytes — is `None`, never a panic: a corrupt corpus
    /// entry degrades to re-exploration.
    pub fn decode(bytes: &[u8]) -> Option<TraceGenome> {
        let mut dec = Dec::new(bytes);
        let nprocs = dec.usize().ok()?;
        let iterations = dec.u64().ok()?;
        let level = CheckpointLevel::from_index(dec.u8().ok()?)?;
        let interval = dec.u64().ok()?;
        let nevents = dec.u32().ok()? as usize;
        if nevents > MAX_EVENTS {
            return None;
        }
        let mut events = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            let tag = dec.u8().ok()?;
            let victim = dec.usize().ok()?;
            let at = dec.u64().ok()?;
            events.push(event_from_tag(tag, victim, at)?);
        }
        dec.finish().ok()?;
        let genome = TraceGenome {
            nprocs,
            iterations,
            level,
            interval,
            events,
        };
        genome.runnable().then_some(genome)
    }

    /// Whether the simulator accepts this genome's job: at least two ranks, one
    /// iteration and a positive checkpoint interval. Decoded corpus entries and
    /// replayed artifacts are checked, so neither can make a run panic.
    pub(crate) fn runnable(&self) -> bool {
        self.nprocs >= 2 && self.iterations > 0 && self.interval > 0
    }
}

/// Event kind names by corpus tag: the replay-artifact spelling.
const EVENT_KINDS: [&str; 3] = ["kill", "node", "rack"];

/// Stable corpus tag of an event kind (0 kill, 1 node, 2 rack).
pub fn event_kind_tag(kind: FailureKind) -> u8 {
    match kind {
        FailureKind::ProcessKill { .. } => 0,
        FailureKind::NodeCrash { .. } => 1,
        FailureKind::RackCrash { .. } => 2,
    }
}

/// The human-readable name of an event kind (the replay-artifact spelling).
pub fn event_kind_name(kind: FailureKind) -> &'static str {
    EVENT_KINDS[event_kind_tag(kind) as usize]
}

/// The inverse of [`event_kind_tag`] (`None` for unknown tags).
pub fn event_from_tag(tag: u8, victim: usize, at_iteration: u64) -> Option<FailureSpec> {
    match tag {
        0 => Some(FailureSpec::kill_process(victim, at_iteration)),
        1 => Some(FailureSpec::crash_node(victim, at_iteration)),
        2 => Some(FailureSpec::crash_rack(victim, at_iteration)),
        _ => None,
    }
}

/// The inverse of [`event_kind_name`] (`None` for unknown names).
pub fn event_from_name(name: &str, victim: usize, at_iteration: u64) -> Option<FailureSpec> {
    let tag = EVENT_KINDS.iter().position(|&kind| kind == name)?;
    event_from_tag(tag as u8, victim, at_iteration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome() -> TraceGenome {
        let mut g = TraceGenome::baseline(8, 12);
        g.level = CheckpointLevel::L3;
        g.events = vec![
            FailureSpec::crash_node(1, 7),
            FailureSpec::kill_process(3, 9),
        ];
        g
    }

    #[test]
    fn canonical_bytes_round_trip() {
        let g = genome();
        assert_eq!(TraceGenome::decode(&g.canonical_bytes()), Some(g));
        let empty = TraceGenome::baseline(4, 6);
        assert_eq!(TraceGenome::decode(&empty.canonical_bytes()), Some(empty));
    }

    #[test]
    fn every_truncation_decodes_to_none() {
        let bytes = genome().canonical_bytes();
        for len in 0..bytes.len() {
            assert!(TraceGenome::decode(&bytes[..len]).is_none(), "prefix {len}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(TraceGenome::decode(&trailing).is_none());
    }

    #[test]
    fn bad_tags_decode_to_none() {
        let mut bytes = genome().canonical_bytes();
        bytes[16] = 9; // the level index
        assert!(TraceGenome::decode(&bytes).is_none());
    }

    #[test]
    fn seeds_cover_every_level_and_both_extremes() {
        let g = TraceGenome::baseline(8, 12);
        let seeds = TraceGenome::seeds(8, 12, &g.topology());
        // Baseline + 2 per level + the pre-checkpoint kill.
        assert_eq!(seeds.len(), 2 + 2 * CheckpointLevel::ALL.len());
        assert!(seeds.iter().any(|s| s.events.is_empty()));
        assert!(seeds
            .iter()
            .any(|s| s.events.iter().any(|e| e.at_iteration <= s.interval)));
        for level in CheckpointLevel::ALL {
            assert!(seeds
                .iter()
                .any(|s| s.level == level && !s.events.is_empty()));
        }
    }

    #[test]
    fn mutation_is_deterministic_and_stays_in_bounds() {
        let base = genome();
        let topology = base.topology();
        let mut a = proptest::TestRng::deterministic("mutate", 0);
        let mut b = proptest::TestRng::deterministic("mutate", 0);
        let mut ga = base.clone();
        let mut gb = base.clone();
        for _ in 0..200 {
            ga = ga.mutate(&mut a, &topology);
            gb = gb.mutate(&mut b, &topology);
            assert_eq!(ga, gb);
            assert!(ga.events.len() <= MAX_EVENTS);
            assert!(ga.interval >= 1 && ga.interval <= ga.iterations);
            for e in &ga.events {
                assert!(e.at_iteration >= 1 && e.at_iteration <= ga.iterations);
                let bound = match e.kind {
                    FailureKind::ProcessKill { .. } => ga.nprocs,
                    FailureKind::NodeCrash { .. } => topology.nnodes(),
                    FailureKind::RackCrash { .. } => topology.nracks(),
                };
                assert!(e.victim_index() < bound);
            }
        }
    }

    #[test]
    fn survivability_expectation_is_l4_after_first_checkpoint() {
        let mut g = TraceGenome::baseline(8, 12);
        g.level = CheckpointLevel::L4;
        g.events = vec![FailureSpec::crash_rack(0, 7)];
        assert!(g.survivability_expected());
        g.events[0] = g.events[0].with_iteration(2); // before the first checkpoint
        assert!(!g.survivability_expected());
        g.events[0] = g.events[0].with_iteration(7);
        g.level = CheckpointLevel::L1;
        assert!(!g.survivability_expected());
    }
}

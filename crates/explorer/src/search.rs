//! The coverage-guided search loop, property checks and trace shrinking.
//!
//! Per enabled design, the [`Explorer`] evaluates a fixed budget of traces: the
//! deterministic seed corpus first, then mutations of previously-kept traces. A
//! trace is kept exactly when its run reaches a *novel* recovery-path signature
//! (the ordered [`CoveragePath`](match_core::recovery::CoveragePath) labels of its
//! attempts). The first violation of each property per design is shrunk (event
//! removal and value bisection through [`proptest::shrink`]) to a 1-minimal
//! reproducer.
//!
//! Cost model: each round simulates its trace **once**, and the oracle,
//! survivability and assertion properties are [`judge`]d on that run. Determinism
//! adds exactly one replay, compared bit-for-bit against the round's run, and only
//! when the run reached a novel signature. So a round costs one simulation, two when
//! it is novel; shrinking a violation costs one [`check_property`] per candidate.

use std::collections::BTreeSet;

use match_core::enabled_designs;
use match_core::recovery::RecoveryStrategy;
use match_core::{run_trace, SuiteError, TraceRunOutcome};
use proptest::{shrink, TestRng};

use crate::genome::TraceGenome;
use crate::report::{DesignSummary, ExploreReport};
use crate::{corpus, ExploreConfig};

/// The properties the explorer checks on every evaluated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Property {
    /// Replaying the same trace must reproduce the identical report and values.
    Determinism,
    /// A completed non-shrinking run must compute the failure-free answer.
    Oracle,
    /// A trace whose checkpoints outlive all its failures must never restart from
    /// scratch (see [`TraceGenome::survivability_expected`]).
    Survivability,
    /// No reached path label may contain the `MATCH_EXPLORE_ASSERT` substring —
    /// the seeded-violation mechanism CI drives the shrink → replay pipeline with.
    AssertLabel,
}

impl Property {
    /// The stable artifact spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Property::Determinism => "determinism",
            Property::Oracle => "oracle",
            Property::Survivability => "survivability",
            Property::AssertLabel => "assert-label",
        }
    }

    /// The inverse of [`Property::name`].
    pub fn from_name(name: &str) -> Option<Property> {
        use Property::*;
        [Determinism, Oracle, Survivability, AssertLabel]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// A property violation, shrunk to a 1-minimal reproducing trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The design the violating trace ran under.
    pub strategy: RecoveryStrategy,
    /// The violated property.
    pub property: Property,
    /// The asserted-unreachable substring ([`Property::AssertLabel`] only) — kept
    /// in the artifact so a replay needs no environment.
    pub assert_label: Option<String>,
    /// The minimal reproducing trace.
    pub genome: TraceGenome,
    /// The recovery-path labels the minimal trace reaches (empty when the
    /// violation is that the run fails outright).
    pub labels: Vec<String>,
    /// What the violation looked like, for humans.
    pub detail: String,
}

/// What checking one property against one trace found.
#[derive(Debug, Clone)]
pub struct PropertyCheck {
    /// Whether the property was violated.
    pub violated: bool,
    /// The path labels the run reached (empty when the run failed outright).
    pub labels: Vec<String>,
    /// Violation details, empty otherwise.
    pub detail: String,
}

/// A finished (or failed) simulation of one trace under one design.
pub type TraceRun = Result<TraceRunOutcome, SuiteError>;

#[cfg(test)]
thread_local! {
    /// `(simulations, Determinism replays)` this thread has run, for the cost-model
    /// test; a replay is also counted as a simulation.
    static SIMULATIONS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Simulates `genome` under `strategy`: the one path every explorer run takes.
fn simulate(strategy: RecoveryStrategy, genome: &TraceGenome) -> TraceRun {
    #[cfg(test)]
    SIMULATIONS.with(|c| c.set((c.get().0 + 1, c.get().1)));
    run_trace(&genome.spec(strategy))
}

/// Simulates `genome` under `strategy` again, for the Determinism property.
fn replay(strategy: RecoveryStrategy, genome: &TraceGenome) -> TraceRun {
    #[cfg(test)]
    SIMULATIONS.with(|c| c.set((c.get().0, c.get().1 + 1)));
    simulate(strategy, genome)
}

/// Checks a single property of one trace under one design: one simulation, then
/// [`judge`]. This is the exact predicate the shrinker minimises against and the
/// replayer re-runs; the search loop calls [`judge`] on the run it already has —
/// one definition, three users.
pub fn check_property(
    strategy: RecoveryStrategy,
    genome: &TraceGenome,
    property: Property,
    assert_label: Option<&str>,
) -> PropertyCheck {
    judge(
        strategy,
        genome,
        property,
        assert_label,
        &simulate(strategy, genome),
    )
}

/// Judges `property` on `run`, a simulation of `genome` under `strategy`. Pure for
/// every property but [`Property::Determinism`], which replays the trace once and
/// compares the replay against `run`.
pub fn judge(
    strategy: RecoveryStrategy,
    genome: &TraceGenome,
    property: Property,
    assert_label: Option<&str>,
    run: &TraceRun,
) -> PropertyCheck {
    match property {
        Property::Determinism => match (run, replay(strategy, genome)) {
            (Ok(first), Ok(second)) => {
                let same = *first == second;
                PropertyCheck {
                    violated: !same,
                    labels: first.report.path_labels(),
                    detail: if same {
                        String::new()
                    } else {
                        "replaying the identical trace produced a different report".into()
                    },
                }
            }
            (Err(first), Err(second)) => {
                let (first, second) = (first.to_string(), second.to_string());
                PropertyCheck {
                    violated: first != second,
                    labels: Vec::new(),
                    detail: if first == second {
                        String::new()
                    } else {
                        format!("replay failed differently: {first} vs {second}")
                    },
                }
            }
            _ => PropertyCheck {
                violated: true,
                labels: Vec::new(),
                detail: "one replay of the trace completed, the other failed".into(),
            },
        },
        Property::Oracle => match run {
            // Shrinking recovery legitimately changes the answer (the survivors
            // continue without the casualties' contributions), so the oracle only
            // binds the non-shrinking designs.
            _ if strategy == RecoveryStrategy::Shrink => no_violation(run),
            Ok(outcome) => {
                let expected = oracle_value(genome);
                let wrong: Vec<String> = outcome
                    .values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v != Some(expected))
                    .map(|(rank, v)| format!("rank {rank}: {v:?}"))
                    .collect();
                PropertyCheck {
                    violated: !wrong.is_empty(),
                    labels: outcome.report.path_labels(),
                    detail: if wrong.is_empty() {
                        String::new()
                    } else {
                        format!("expected {expected} on every rank; {}", wrong.join(", "))
                    },
                }
            }
            Err(_) => no_violation(run),
        },
        Property::Survivability => {
            if !genome.survivability_expected() {
                return no_violation(run);
            }
            match run {
                Ok(outcome) => {
                    let labels = outcome.report.path_labels();
                    let scratched = labels.iter().any(|l| l.starts_with("scratch"));
                    PropertyCheck {
                        violated: scratched,
                        detail: if scratched {
                            format!(
                                "L4 checkpoints survive every injected failure, yet the run \
                                 restarted from scratch (paths: {})",
                                labels.join(" ")
                            )
                        } else {
                            String::new()
                        },
                        labels,
                    }
                }
                Err(error) => PropertyCheck {
                    violated: true,
                    labels: Vec::new(),
                    detail: format!(
                        "L4 checkpoints survive every injected failure, yet the run failed: \
                         {error}"
                    ),
                },
            }
        }
        Property::AssertLabel => {
            let Some(needle) = assert_label else {
                return no_violation(run);
            };
            match run {
                Ok(outcome) => {
                    let labels = outcome.report.path_labels();
                    let hit = labels.iter().any(|l| l.contains(needle));
                    PropertyCheck {
                        violated: hit,
                        detail: if hit {
                            format!("reached a path labelled *{needle}*: {}", labels.join(" "))
                        } else {
                            String::new()
                        },
                        labels,
                    }
                }
                Err(_) => no_violation(run),
            }
        }
    }
}

fn no_violation(run: &TraceRun) -> PropertyCheck {
    PropertyCheck {
        violated: false,
        labels: run
            .as_ref()
            .map(|o| o.report.path_labels())
            .unwrap_or_default(),
        detail: String::new(),
    }
}

/// The closed-form failure-free answer of the synthetic workload: each iteration
/// all-reduces `rank + 1` over the world, so every rank accumulates
/// `iterations * nprocs * (nprocs + 1) / 2`. Exact in f64 at explorer scales.
pub fn oracle_value(genome: &TraceGenome) -> f64 {
    let per_iteration = (genome.nprocs * (genome.nprocs + 1) / 2) as f64;
    genome.iterations as f64 * per_iteration
}

/// What [`Explorer::run`] returns: the coverage report and every (shrunk)
/// violation.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The per-design recovery-path coverage matrix.
    pub report: ExploreReport,
    /// The violations found, shrunk to minimal reproducers (first violation of
    /// each property per design).
    pub violations: Vec<Violation>,
}

/// The coverage-guided fault-space explorer. See the crate docs for the search
/// loop; construction is cheap, all work happens in [`Explorer::run`].
#[derive(Debug, Clone)]
pub struct Explorer {
    config: ExploreConfig,
}

impl Explorer {
    /// An explorer over the given configuration.
    pub fn new(config: ExploreConfig) -> Self {
        Explorer { config }
    }

    /// Explores every enabled design (sequentially, in registry order — the
    /// output is a pure function of the configuration, never of `MATCH_JOBS` or
    /// the scheduler backend).
    pub fn run(&self) -> ExploreOutcome {
        let mut designs = Vec::new();
        let mut violations = Vec::new();
        for &strategy in enabled_designs() {
            let (summary, mut found) = self.explore_design(strategy);
            designs.push(summary);
            violations.append(&mut found);
        }
        ExploreOutcome {
            report: ExploreReport {
                nprocs: self.config.nprocs,
                iterations: self.config.iterations,
                budget: self.config.budget,
                seed: self.config.seed,
                designs,
            },
            violations,
        }
    }

    fn explore_design(&self, strategy: RecoveryStrategy) -> (DesignSummary, Vec<Violation>) {
        let baseline = TraceGenome::baseline(self.config.nprocs, self.config.iterations);
        let topology = baseline.topology();
        let mut pending = TraceGenome::seeds(self.config.nprocs, self.config.iterations, &topology);
        let corpus_dir = self
            .config
            .corpus
            .as_ref()
            .map(|root| root.join(strategy.short_name()));
        if let Some(dir) = &corpus_dir {
            for reloaded in corpus::load(dir) {
                if !pending.contains(&reloaded) {
                    pending.push(reloaded);
                }
            }
        }

        let mut rng = TestRng::deterministic(strategy.design_name(), self.config.seed as u32);
        let mut kept: Vec<TraceGenome> = Vec::new();
        let mut paths: BTreeSet<String> = BTreeSet::new();
        let mut signatures: BTreeSet<String> = BTreeSet::new();
        let mut violated: BTreeSet<&'static str> = BTreeSet::new();
        let mut violations = Vec::new();
        let mut dead_ends = 0u32;

        for round in 0..self.config.budget {
            let genome = match pending.get(round as usize) {
                Some(seed) => seed.clone(),
                None => {
                    // Mutate a kept trace (the coverage-guided step); before
                    // anything is kept, mutate the baseline.
                    let parent = if kept.is_empty() {
                        &baseline
                    } else {
                        &kept[rng.below(kept.len())]
                    };
                    parent.mutate(&mut rng, &topology)
                }
            };

            let run = simulate(strategy, &genome);
            let labels = match &run {
                Ok(outcome) => outcome.report.path_labels(),
                Err(_) => {
                    dead_ends += 1;
                    Vec::new()
                }
            };

            // Coverage: keep the genome exactly when its path signature is novel.
            let novel = run.is_ok() && signatures.insert(labels.join("|"));
            if novel {
                paths.extend(labels.iter().cloned());
                if let Some(dir) = &corpus_dir {
                    corpus::save(dir, &genome);
                }
                kept.push(genome.clone());
            }

            // Properties, judged on this round's run. Determinism replays the trace
            // once, and only on novel signatures (one extra run per distinct path,
            // not per trace).
            let mut candidates = vec![Property::Survivability, Property::Oracle];
            if self.config.assert_label.is_some() {
                candidates.push(Property::AssertLabel);
            }
            if novel {
                candidates.push(Property::Determinism);
            }
            for property in candidates {
                if violated.contains(property.name()) {
                    continue;
                }
                let check = judge(
                    strategy,
                    &genome,
                    property,
                    self.config.assert_label.as_deref(),
                    &run,
                );
                if check.violated {
                    violated.insert(property.name());
                    violations.push(self.shrink_violation(strategy, property, &genome));
                }
            }
        }

        (
            DesignSummary {
                design: strategy.design_name().to_string(),
                paths: paths.into_iter().collect(),
                runs: self.config.budget,
                dead_ends,
                violations: violations.len() as u32,
            },
            violations,
        )
    }

    /// Shrinks a violating trace to a 1-minimal reproducer: first delta-debugging
    /// the event chain, then bisecting each event's iteration and victim and the
    /// run length — every step through [`proptest::shrink`], every candidate
    /// accepted only if the *same* property still fails.
    fn shrink_violation(
        &self,
        strategy: RecoveryStrategy,
        property: Property,
        genome: &TraceGenome,
    ) -> Violation {
        let assert_label = self.config.assert_label.as_deref();
        let fails = |g: &TraceGenome| check_property(strategy, g, property, assert_label).violated;

        let events = shrink::minimize_vec(&genome.events, |evs| {
            fails(&genome.with_events(evs.to_vec()))
        });
        let mut minimal = genome.with_events(events);
        for i in 0..minimal.events.len() {
            let at = shrink::minimize_u64(minimal.events[i].at_iteration, 1, |at| {
                let mut c = minimal.clone();
                c.events[i] = c.events[i].with_iteration(at);
                fails(&c)
            });
            minimal.events[i] = minimal.events[i].with_iteration(at);
            let victim = shrink::minimize_usize(minimal.events[i].victim_index(), 0, |v| {
                let mut c = minimal.clone();
                c.events[i] = c.events[i].with_victim(v);
                fails(&c)
            });
            minimal.events[i] = minimal.events[i].with_victim(victim);
        }
        // Shorten the run, but never below the last event (it must still fire).
        let floor = minimal
            .events
            .iter()
            .map(|e| e.at_iteration)
            .max()
            .unwrap_or(1)
            .max(2);
        minimal.iterations = shrink::minimize_u64(minimal.iterations, floor, |n| {
            let mut c = minimal.clone();
            c.iterations = n;
            fails(&c)
        });

        let check = check_property(strategy, &minimal, property, assert_label);
        Violation {
            strategy,
            property,
            assert_label: if property == Property::AssertLabel {
                self.config.assert_label.clone()
            } else {
                None
            },
            genome: minimal,
            labels: check.labels,
            detail: check.detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::fti::CheckpointLevel;
    use match_core::mpisim::FailureSpec;

    fn tiny() -> ExploreConfig {
        ExploreConfig {
            nprocs: 4,
            iterations: 8,
            budget: 10,
            seed: 1,
            corpus: None,
            assert_label: None,
        }
    }

    #[test]
    fn properties_hold_on_the_seed_corpus() {
        let genome = TraceGenome::baseline(4, 8);
        for property in [
            Property::Determinism,
            Property::Oracle,
            Property::Survivability,
        ] {
            let check = check_property(RecoveryStrategy::Reinit, &genome, property, None);
            assert!(!check.violated, "{property:?}: {}", check.detail);
        }
        let unset = check_property(
            RecoveryStrategy::Reinit,
            &genome,
            Property::AssertLabel,
            None,
        );
        assert!(!unset.violated, "assert property is inert when unset");
    }

    #[test]
    fn each_round_simulates_its_trace_once_and_replays_only_novel_ones() {
        let config = tiny();
        SIMULATIONS.with(|c| c.set((0, 0)));
        let outcome = Explorer::new(config.clone()).run();
        let (simulations, replays) = SIMULATIONS.with(|c| c.get());
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        let rounds = enabled_designs().len() as u64 * u64::from(config.budget);
        assert_eq!(simulations - replays, rounds, "one simulation per round");
        assert!(
            (1..=rounds).contains(&replays),
            "{replays} Determinism replays over {rounds} rounds"
        );
    }

    #[test]
    fn oracle_value_matches_a_failure_free_run() {
        let genome = TraceGenome::baseline(4, 8);
        let outcome = run_trace(&genome.spec(RecoveryStrategy::Restart)).expect("runs");
        for v in outcome.values {
            assert_eq!(v, Some(oracle_value(&genome)));
        }
    }

    #[test]
    fn assert_label_violations_shrink_to_one_event() {
        // Assert "L2-partner" unreachable; a noisy 3-event L2 trace reaches it.
        // The shrinker must strip the irrelevant events and bisect the rest.
        let mut config = tiny();
        config.assert_label = Some("L2-partner".to_string());
        let explorer = Explorer::new(config);
        let mut noisy = TraceGenome::baseline(4, 8);
        noisy.level = CheckpointLevel::L2;
        noisy.events = vec![
            FailureSpec::kill_process(3, 7),
            FailureSpec::crash_node(1, 6),
            FailureSpec::kill_process(2, 8),
        ];
        let check = check_property(
            RecoveryStrategy::Reinit,
            &noisy,
            Property::AssertLabel,
            Some("L2-partner"),
        );
        assert!(check.violated, "seed trace must reach L2-partner");
        let violation =
            explorer.shrink_violation(RecoveryStrategy::Reinit, Property::AssertLabel, &noisy);
        assert_eq!(violation.genome.events.len(), 1, "{:?}", violation.genome);
        assert!(violation.labels.iter().any(|l| l.contains("L2-partner")));
        // The shrunk repro still fails, by construction — re-verify end to end.
        let recheck = check_property(
            RecoveryStrategy::Reinit,
            &violation.genome,
            Property::AssertLabel,
            Some("L2-partner"),
        );
        assert!(recheck.violated);
        assert_eq!(recheck.labels, violation.labels);
    }
}

//! FTI configuration.

/// The four checkpoint levels offered by FTI, in increasing order of resilience and
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckpointLevel {
    /// Node-local checkpoints on the RAM disk. Cheapest; lost if the node fails.
    L1,
    /// L1 plus a copy on a partner node; survives a single node failure.
    L2,
    /// Reed–Solomon erasure-coded checkpoints across an encoding group; survives the
    /// loss of up to half of the group.
    L3,
    /// Checkpoints flushed to the parallel file system; survives anything the file
    /// system survives. Supports differential checkpointing.
    L4,
}

impl CheckpointLevel {
    /// All levels, in order.
    pub const ALL: [CheckpointLevel; 4] = [
        CheckpointLevel::L1,
        CheckpointLevel::L2,
        CheckpointLevel::L3,
        CheckpointLevel::L4,
    ];

    /// The level's conventional name (`"L1"` .. `"L4"`).
    pub fn name(&self) -> &'static str {
        match self {
            CheckpointLevel::L1 => "L1",
            CheckpointLevel::L2 => "L2",
            CheckpointLevel::L3 => "L3",
            CheckpointLevel::L4 => "L4",
        }
    }

    /// The level's conventional number (1..=4), the stable on-disk encoding used by
    /// the persistent result cache.
    pub fn index(&self) -> u8 {
        match self {
            CheckpointLevel::L1 => 1,
            CheckpointLevel::L2 => 2,
            CheckpointLevel::L3 => 3,
            CheckpointLevel::L4 => 4,
        }
    }

    /// The inverse of [`CheckpointLevel::index`]; `None` for anything outside 1..=4.
    pub fn from_index(index: u8) -> Option<Self> {
        match index {
            1 => Some(CheckpointLevel::L1),
            2 => Some(CheckpointLevel::L2),
            3 => Some(CheckpointLevel::L3),
            4 => Some(CheckpointLevel::L4),
            _ => None,
        }
    }
}

impl std::fmt::Display for CheckpointLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reed–Solomon data shards `k` of every L3 checkpoint.
pub const L3_DATA_SHARDS: usize = 2;

/// Reed–Solomon parity shards `m` of every L3 checkpoint: an encoding group survives
/// the loss of any `m` of its nodes.
pub const L3_PARITY_SHARDS: usize = 2;

/// Nodes in one L3 encoding group, `k + m`: with at least this many nodes every shard
/// of a checkpoint lands on a distinct node (see [`crate::placement`]).
pub const L3_GROUP_NODES: usize = L3_DATA_SHARDS + L3_PARITY_SHARDS;

/// Block size in bytes of L4 differential checkpointing.
pub const DIFF_BLOCK_BYTES: usize = 4096;

/// Configuration of an FTI instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FtiConfig {
    /// The checkpoint level to use.
    pub level: CheckpointLevel,
    /// Checkpoint every `interval` iterations of the main loop (the paper checkpoints
    /// every ten iterations).
    pub interval: u64,
    /// Whether L4 uses differential checkpointing.
    pub differential: bool,
    /// When set, every `l2_interval`-th iteration's checkpoint is promoted to at
    /// least L2 (a partner copy leaves the node), regardless of the base `level` —
    /// FTI's classic multi-level schedule.
    pub l2_interval: Option<u64>,
    /// When set, every `l4_interval`-th iteration's checkpoint is promoted to L4 (a
    /// parallel-file-system flush).
    pub l4_interval: Option<u64>,
}

impl Default for FtiConfig {
    fn default() -> Self {
        FtiConfig {
            level: CheckpointLevel::L1,
            interval: 10,
            differential: true,
            l2_interval: None,
            l4_interval: None,
        }
    }
}

impl FtiConfig {
    /// A default configuration at the given level.
    pub fn level(level: CheckpointLevel) -> Self {
        FtiConfig {
            level,
            ..Default::default()
        }
    }

    /// Sets the checkpoint interval (in iterations).
    pub fn interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        self.interval = interval;
        self
    }

    /// Enables or disables L4 differential checkpointing.
    pub fn differential(mut self, on: bool) -> Self {
        self.differential = on;
        self
    }

    /// Promotes every `n`-th iteration's checkpoint to at least L2.
    pub fn l2_every(mut self, n: u64) -> Self {
        assert!(n > 0, "L2 promotion interval must be positive");
        self.l2_interval = Some(n);
        self
    }

    /// Promotes every `n`-th iteration's checkpoint to L4.
    pub fn l4_every(mut self, n: u64) -> Self {
        assert!(n > 0, "L4 promotion interval must be positive");
        self.l4_interval = Some(n);
        self
    }

    /// The level at which iteration `iteration`'s checkpoint is written under this
    /// configuration's multi-level schedule.
    pub fn level_for_iteration(&self, iteration: u64) -> CheckpointLevel {
        let mut level = self.level;
        if let Some(n) = self.l2_interval {
            if iteration.is_multiple_of(n) && level < CheckpointLevel::L2 {
                level = CheckpointLevel::L2;
            }
        }
        if let Some(n) = self.l4_interval {
            if iteration.is_multiple_of(n) {
                level = CheckpointLevel::L4;
            }
        }
        level
    }

    /// Whether iteration `iteration` is a checkpointing iteration under this
    /// configuration (the paper checkpoints when `iteration % interval == 0`, skipping
    /// iteration 0 which has nothing worth saving yet).
    pub fn is_checkpoint_iteration(&self, iteration: u64) -> bool {
        iteration > 0 && iteration.is_multiple_of(self.interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = FtiConfig::default();
        assert_eq!(c.level, CheckpointLevel::L1);
        assert_eq!(c.interval, 10);
        assert!(c.differential);
    }

    #[test]
    fn checkpoint_iterations() {
        let c = FtiConfig::default().interval(10);
        assert!(!c.is_checkpoint_iteration(0));
        assert!(!c.is_checkpoint_iteration(5));
        assert!(c.is_checkpoint_iteration(10));
        assert!(c.is_checkpoint_iteration(20));
        let c3 = FtiConfig::default().interval(3);
        assert!(c3.is_checkpoint_iteration(3));
        assert!(!c3.is_checkpoint_iteration(4));
    }

    #[test]
    fn builder_methods() {
        let c = FtiConfig::level(CheckpointLevel::L3)
            .interval(5)
            .differential(false);
        assert_eq!(c.level, CheckpointLevel::L3);
        assert_eq!(c.interval, 5);
        assert!(!c.differential);
    }

    #[test]
    fn level_names() {
        assert_eq!(CheckpointLevel::L1.name(), "L1");
        assert_eq!(CheckpointLevel::L4.to_string(), "L4");
        assert_eq!(CheckpointLevel::ALL.len(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        let _ = FtiConfig::default().interval(0);
    }
}

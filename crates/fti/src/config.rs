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

/// Configuration of an FTI instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FtiConfig {
    /// The checkpoint level to use.
    pub level: CheckpointLevel,
    /// Checkpoint every `interval` iterations of the main loop (the paper checkpoints
    /// every ten iterations).
    pub interval: u64,
    /// Size of the Reed–Solomon encoding group used by L3: the number of **nodes**
    /// each group's shards are scattered over (see [`crate::placement`]). Groups map
    /// onto disjoint node blocks; with at least `group_size` nodes every shard of a
    /// checkpoint lands on a distinct node, so the group survives the loss of up to
    /// [`FtiConfig::parity_shards`] nodes. Must be at least 2.
    pub group_size: usize,
    /// Number of parity shards per group for L3 (the group survives the loss of up to
    /// this many members).
    pub parity_shards: usize,
    /// Block size in bytes for L4 differential checkpointing.
    pub diff_block_size: usize,
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
            group_size: 4,
            parity_shards: 2,
            diff_block_size: 4096,
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

    /// Sets the L3 encoding group size.
    pub fn group_size(mut self, group_size: usize) -> Self {
        assert!(group_size >= 2, "encoding group needs at least two members");
        self.group_size = group_size;
        self
    }

    /// Sets the number of L3 parity shards.
    pub fn parity_shards(mut self, parity: usize) -> Self {
        assert!(parity >= 1, "need at least one parity shard");
        self.parity_shards = parity;
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

    /// The Reed–Solomon data-shard count `k` implied by this configuration (used by
    /// the L3 encode/decode paths and the recoverability checks).
    pub fn rs_data_shards(&self) -> usize {
        let group = self.group_size.max(2);
        group - self.parity_shards.min(group - 1)
    }

    /// The Reed–Solomon parity-shard count `m` implied by this configuration.
    pub fn rs_parity_shards(&self) -> usize {
        let group = self.group_size.max(2);
        self.parity_shards.min(group - 1).max(1)
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
            .group_size(8)
            .parity_shards(3)
            .differential(false);
        assert_eq!(c.level, CheckpointLevel::L3);
        assert_eq!(c.interval, 5);
        assert_eq!(c.group_size, 8);
        assert_eq!(c.parity_shards, 3);
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

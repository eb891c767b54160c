//! Machine configuration: clusters, function units, interconnect scheme,
//! memory model and arbitration policy.
//!
//! The paper's compiler and simulator communicate through a *configuration
//! file* describing "the number and type of function units, each function
//! unit's pipeline latency, and the grouping of function units into
//! clusters". [`MachineConfig`] is that file.

use crate::reg::ClusterId;
use std::fmt;

/// The class of a function unit, determining which opcodes it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitClass {
    /// Integer ALU.
    Integer,
    /// Floating-point unit.
    Float,
    /// Memory (load/store + address calculation) unit.
    Memory,
    /// Branch calculation unit (also executes `fork`/`halt`/`probe`).
    Branch,
}

impl UnitClass {
    /// All unit classes, in display order.
    pub fn all() -> [UnitClass; 4] {
        [
            UnitClass::Integer,
            UnitClass::Float,
            UnitClass::Memory,
            UnitClass::Branch,
        ]
    }

    /// Short label used in reports ("IU", "FPU", "MEM", "BR").
    pub fn label(self) -> &'static str {
        match self {
            UnitClass::Integer => "IU",
            UnitClass::Float => "FPU",
            UnitClass::Memory => "MEM",
            UnitClass::Branch => "BR",
        }
    }
}

impl fmt::Display for UnitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One function unit within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitConfig {
    /// What the unit executes.
    pub class: UnitClass,
    /// Execution pipeline latency in cycles (issue → writeback); the
    /// baseline machine uses 1 for every unit. Must be ≥ 1.
    pub latency: u32,
}

impl UnitConfig {
    /// A unit of `class` with single-cycle latency.
    pub fn new(class: UnitClass) -> Self {
        UnitConfig { class, latency: 1 }
    }

    /// Sets the pipeline latency.
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }
}

/// One cluster: a set of function units sharing a register file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterConfig {
    /// The units in the cluster.
    pub units: Vec<UnitConfig>,
}

impl ClusterConfig {
    /// An arithmetic cluster as in the paper's baseline: one integer unit,
    /// one floating-point unit, one memory unit (plus the shared register
    /// file, which is implicit).
    pub fn arithmetic() -> Self {
        ClusterConfig {
            units: vec![
                UnitConfig::new(UnitClass::Integer),
                UnitConfig::new(UnitClass::Float),
                UnitConfig::new(UnitClass::Memory),
            ],
        }
    }

    /// A branch cluster: a single branch unit and a register file.
    pub fn branch() -> Self {
        ClusterConfig {
            units: vec![UnitConfig::new(UnitClass::Branch)],
        }
    }

    /// True if the cluster contains a unit of `class`.
    pub fn has_class(&self, class: UnitClass) -> bool {
        self.units.iter().any(|u| u.class == class)
    }
}

/// Identifies one function unit instance across the whole machine
/// (an index into [`MachineConfig::units`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuId(pub u16);

impl fmt::Display for FuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Resolved description of one function unit instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuInfo {
    /// The unit's global id.
    pub id: FuId,
    /// The cluster it belongs to (whose register file it reads).
    pub cluster: ClusterId,
    /// The unit class.
    pub class: UnitClass,
    /// Pipeline latency in cycles.
    pub latency: u32,
}

/// Register-file write-port / bus budget between clusters — the five
/// schemes of the paper's restricted-communication study (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectScheme {
    /// Fully connected: unlimited buses and register write ports.
    Full,
    /// Three write ports per register file: one local, two global with
    /// dedicated buses.
    TriPort,
    /// Two write ports: one local, one global with a dedicated bus.
    DualPort,
    /// A single write port (with its own bus) per register file, shared by
    /// local and remote writers.
    SinglePort,
    /// Two ports: one local, one connected to a single globally shared bus
    /// arbitrated among all clusters.
    SharedBus,
}

impl InterconnectScheme {
    /// All schemes, in the order plotted by Figure 6.
    pub fn all() -> [InterconnectScheme; 5] {
        [
            InterconnectScheme::Full,
            InterconnectScheme::TriPort,
            InterconnectScheme::DualPort,
            InterconnectScheme::SinglePort,
            InterconnectScheme::SharedBus,
        ]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            InterconnectScheme::Full => "Full",
            InterconnectScheme::TriPort => "Tri-Port",
            InterconnectScheme::DualPort => "Dual-Port",
            InterconnectScheme::SinglePort => "Single-Port",
            InterconnectScheme::SharedBus => "Shared-Bus",
        }
    }
}

impl fmt::Display for InterconnectScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Statistical memory model: hit latency, miss rate, and a uniformly
/// distributed miss penalty (the paper's Min / Mem1 / Mem2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Cycles for a hit (1 in all of the paper's models).
    pub hit_latency: u32,
    /// Probability a reference misses the on-chip cache.
    pub miss_rate: f64,
    /// Inclusive range of extra cycles charged on a miss.
    pub miss_penalty: (u32, u32),
    /// Interleaved banks accepting one reference per cycle each, or 0 to
    /// model no bank conflicts (the paper's simplification — "a memory
    /// operation can always access the necessary bank"). Address `a` maps
    /// to bank `a % banks`.
    pub banks: u32,
}

impl MemoryModel {
    /// `Min`: every reference completes in a single cycle.
    pub fn min() -> Self {
        MemoryModel {
            hit_latency: 1,
            miss_rate: 0.0,
            miss_penalty: (0, 0),
            banks: 0,
        }
    }

    /// `Mem1`: 1-cycle hits, 5% miss rate, 20–100 cycle miss penalty.
    pub fn mem1() -> Self {
        MemoryModel {
            hit_latency: 1,
            miss_rate: 0.05,
            miss_penalty: (20, 100),
            banks: 0,
        }
    }

    /// `Mem2`: like `Mem1` with a 10% miss rate.
    pub fn mem2() -> Self {
        MemoryModel {
            hit_latency: 1,
            miss_rate: 0.10,
            miss_penalty: (20, 100),
            banks: 0,
        }
    }

    /// Returns the model with `banks` interleaved banks (0 = unlimited).
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self
    }

    /// Report label ("Min", "Mem1", "Mem2", or "Custom").
    pub fn label(&self) -> &'static str {
        if *self == MemoryModel::min() {
            "Min"
        } else if *self == MemoryModel::mem1() {
            "Mem1"
        } else if *self == MemoryModel::mem2() {
            "Mem2"
        } else {
            "Custom"
        }
    }
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel::min()
    }
}

/// How a function unit chooses among ready operations of different threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbitrationPolicy {
    /// Rotating round-robin: fair interleaving (the default).
    #[default]
    RoundRobin,
    /// Fixed priority by thread id (lower id wins) — used by the Table 3
    /// interference study.
    FixedPriority,
}

/// Complete machine description, shared by compiler and simulator.
///
/// ```
/// use pc_isa::{MachineConfig, InterconnectScheme, MemoryModel};
///
/// let mc = MachineConfig::baseline()
///     .with_interconnect(InterconnectScheme::TriPort)
///     .with_memory(MemoryModel::mem1())
///     .with_seed(42);
/// assert_eq!(mc.arith_clusters().count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    clusters: Vec<ClusterConfig>,
    units: Vec<FuInfo>,
    /// Maximum simultaneous register destinations per operation (baseline 2).
    pub max_dsts: usize,
    /// Inter-cluster write-port/bus budget.
    pub interconnect: InterconnectScheme,
    /// Memory latency model.
    pub memory: MemoryModel,
    /// FU arbitration among threads.
    pub arbitration: ArbitrationPolicy,
    /// Seed for the simulator's latency RNG (runs are deterministic per
    /// seed).
    pub seed: u64,
    /// Maximum threads simultaneously resident (the paper assumes all
    /// spawned threads fit the active set; 64 is ample for the benchmarks).
    pub max_threads: usize,
    /// Disable intra-row slip: a row's operations must all issue in the
    /// same cycle (a strict-VLIW ablation of the paper's Figure 1
    /// discipline). Off by default.
    pub lockstep_issue: bool,
    /// Writeback-buffer entries per function unit before port denial
    /// stalls issue.
    pub wb_buffer: usize,
}

impl MachineConfig {
    /// Builds a configuration from explicit clusters.
    pub fn new(clusters: Vec<ClusterConfig>) -> Self {
        let mut units = Vec::new();
        for (ci, cl) in clusters.iter().enumerate() {
            for u in &cl.units {
                units.push(FuInfo {
                    id: FuId(units.len() as u16),
                    cluster: ClusterId(ci as u16),
                    class: u.class,
                    latency: u.latency.max(1),
                });
            }
        }
        MachineConfig {
            clusters,
            units,
            max_dsts: 2,
            interconnect: InterconnectScheme::Full,
            memory: MemoryModel::min(),
            arbitration: ArbitrationPolicy::RoundRobin,
            seed: 0,
            max_threads: 64,
            lockstep_issue: false,
            wb_buffer: 4,
        }
    }

    /// The paper's baseline machine: four arithmetic clusters (integer +
    /// float + memory unit each) and two branch clusters, all units
    /// single-cycle, fully connected, `Min` memory.
    pub fn baseline() -> Self {
        let mut clusters = vec![ClusterConfig::arithmetic(); 4];
        clusters.push(ClusterConfig::branch());
        clusters.push(ClusterConfig::branch());
        MachineConfig::new(clusters)
    }

    /// A single-cluster "workstation" node (the paper's intro: processor
    /// coupling "is useful in machines ranging from workstations based
    /// upon a single multi-ALU node …"): one arithmetic cluster plus one
    /// branch cluster.
    pub fn workstation() -> Self {
        MachineConfig::new(vec![ClusterConfig::arithmetic(), ClusterConfig::branch()])
    }

    /// A machine for the Figure 8 function-unit-mix study: four clusters
    /// each holding a memory unit, with `n_iu` integer units and `n_fpu`
    /// float units distributed one-per-cluster across the first clusters,
    /// plus one branch cluster.
    ///
    /// # Panics
    /// Panics if `n_iu` or `n_fpu` is 0 or exceeds 4.
    pub fn with_mix(n_iu: usize, n_fpu: usize) -> Self {
        assert!((1..=4).contains(&n_iu), "n_iu must be 1..=4");
        assert!((1..=4).contains(&n_fpu), "n_fpu must be 1..=4");
        let mut clusters = Vec::new();
        for i in 0..4 {
            let mut units = Vec::new();
            if i < n_iu {
                units.push(UnitConfig::new(UnitClass::Integer));
            }
            if i < n_fpu {
                units.push(UnitConfig::new(UnitClass::Float));
            }
            units.push(UnitConfig::new(UnitClass::Memory));
            clusters.push(ClusterConfig { units });
        }
        clusters.push(ClusterConfig::branch());
        MachineConfig::new(clusters)
    }

    /// Sets the interconnect scheme.
    pub fn with_interconnect(mut self, scheme: InterconnectScheme) -> Self {
        self.interconnect = scheme;
        self
    }

    /// Sets the memory model.
    pub fn with_memory(mut self, memory: MemoryModel) -> Self {
        self.memory = memory;
        self
    }

    /// Sets the arbitration policy.
    pub fn with_arbitration(mut self, policy: ArbitrationPolicy) -> Self {
        self.arbitration = policy;
        self
    }

    /// Sets the latency-model RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-operation destination-register budget.
    pub fn with_max_dsts(mut self, max_dsts: usize) -> Self {
        self.max_dsts = max_dsts.max(1);
        self
    }

    /// Sets the pipeline latency of every unit of `class` ("a unit may be
    /// pipelined to arbitrary depth"). Rebuilds the unit table; all other
    /// settings are preserved.
    pub fn with_unit_latency(self, class: UnitClass, latency: u32) -> Self {
        let clusters: Vec<ClusterConfig> = self
            .clusters
            .iter()
            .map(|c| ClusterConfig {
                units: c
                    .units
                    .iter()
                    .map(|u| {
                        if u.class == class {
                            u.with_latency(latency)
                        } else {
                            *u
                        }
                    })
                    .collect(),
            })
            .collect();
        let rebuilt = MachineConfig::new(clusters);
        MachineConfig {
            clusters: rebuilt.clusters,
            units: rebuilt.units,
            ..self
        }
    }

    /// Disables (or re-enables) intra-row slip — the strict-VLIW issue
    /// ablation.
    pub fn with_lockstep_issue(mut self, lockstep: bool) -> Self {
        self.lockstep_issue = lockstep;
        self
    }

    /// Sets the per-unit writeback buffer depth (≥ 1).
    pub fn with_wb_buffer(mut self, depth: usize) -> Self {
        self.wb_buffer = depth.max(1);
        self
    }

    /// The clusters.
    pub fn clusters(&self) -> &[ClusterConfig] {
        &self.clusters
    }

    /// All function units, flattened in `(cluster, position)` order.
    pub fn units(&self) -> &[FuInfo] {
        &self.units
    }

    /// Looks up one unit.
    ///
    /// # Panics
    /// Panics if `id` is out of range for this machine.
    pub fn fu(&self, id: FuId) -> &FuInfo {
        &self.units[id.0 as usize]
    }

    /// Units of one class.
    pub fn units_of_class(&self, class: UnitClass) -> impl Iterator<Item = &FuInfo> {
        self.units.iter().filter(move |u| u.class == class)
    }

    /// Units living in one cluster.
    pub fn units_in_cluster(&self, cluster: ClusterId) -> impl Iterator<Item = &FuInfo> {
        self.units.iter().filter(move |u| u.cluster == cluster)
    }

    /// Ids of clusters containing at least one non-branch unit (the
    /// clusters the compiler schedules computation onto).
    pub fn arith_clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.clusters.iter().enumerate().filter_map(|(i, c)| {
            if c.units.iter().any(|u| u.class != UnitClass::Branch) {
                Some(ClusterId(i as u16))
            } else {
                None
            }
        })
    }

    /// Ids of clusters containing a branch unit.
    pub fn branch_clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.clusters.iter().enumerate().filter_map(|(i, c)| {
            if c.has_class(UnitClass::Branch) {
                Some(ClusterId(i as u16))
            } else {
                None
            }
        })
    }

    /// Total number of units of `class`.
    pub fn count_class(&self, class: UnitClass) -> usize {
        self.units_of_class(class).count()
    }

    /// The part of the configuration the compiler reads — the clusters,
    /// their units and latencies, and `max_dsts` — with every field that
    /// only the simulator reads reset to its default. Two configurations
    /// with equal compile targets compile any source to the same program,
    /// so a sweep compiles once per target and simulates the image under
    /// each full configuration.
    ///
    /// The runtime-only fields are listed explicitly, so a field added
    /// later stays part of the target until someone resets it here: a
    /// new field can only cost reuse, never serve a stale program.
    ///
    /// ```
    /// use pc_isa::{InterconnectScheme, MachineConfig, MemoryModel};
    ///
    /// let a = MachineConfig::baseline().with_memory(MemoryModel::mem2());
    /// let b = MachineConfig::baseline().with_interconnect(InterconnectScheme::SharedBus);
    /// assert_eq!(a.compile_target(), b.compile_target());
    /// assert_ne!(a.compile_target(), MachineConfig::with_mix(2, 3).compile_target());
    /// ```
    pub fn compile_target(&self) -> MachineConfig {
        let defaults = MachineConfig::new(Vec::new());
        MachineConfig {
            interconnect: defaults.interconnect,
            memory: defaults.memory,
            arbitration: defaults.arbitration,
            seed: defaults.seed,
            max_threads: defaults.max_threads,
            lockstep_issue: defaults.lockstep_issue,
            wb_buffer: defaults.wb_buffer,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_shape() {
        let mc = MachineConfig::baseline();
        assert_eq!(mc.clusters().len(), 6);
        assert_eq!(mc.count_class(UnitClass::Integer), 4);
        assert_eq!(mc.count_class(UnitClass::Float), 4);
        assert_eq!(mc.count_class(UnitClass::Memory), 4);
        assert_eq!(mc.count_class(UnitClass::Branch), 2);
        assert_eq!(mc.units().len(), 14);
        assert_eq!(mc.arith_clusters().count(), 4);
        assert_eq!(mc.branch_clusters().count(), 2);
        assert_eq!(mc.max_dsts, 2);
    }

    #[test]
    fn unit_ids_are_dense_and_ordered() {
        let mc = MachineConfig::baseline();
        for (i, u) in mc.units().iter().enumerate() {
            assert_eq!(u.id.0 as usize, i);
            assert_eq!(mc.fu(u.id), u);
        }
        // Units of cluster 0 come first.
        assert!(mc.units()[0].cluster == ClusterId(0));
        assert!(mc.units()[3].cluster == ClusterId(1));
    }

    #[test]
    fn workstation_is_one_arith_one_branch() {
        let mc = MachineConfig::workstation();
        assert_eq!(mc.arith_clusters().count(), 1);
        assert_eq!(mc.branch_clusters().count(), 1);
        assert_eq!(mc.units().len(), 4);
    }

    #[test]
    fn mix_configs() {
        let mc = MachineConfig::with_mix(2, 3);
        assert_eq!(mc.count_class(UnitClass::Integer), 2);
        assert_eq!(mc.count_class(UnitClass::Float), 3);
        assert_eq!(mc.count_class(UnitClass::Memory), 4);
        assert_eq!(mc.count_class(UnitClass::Branch), 1);
        // Every arithmetic cluster has a memory unit.
        for c in mc.arith_clusters() {
            assert!(mc.units_in_cluster(c).any(|u| u.class == UnitClass::Memory));
        }
    }

    #[test]
    #[should_panic(expected = "n_iu")]
    fn mix_rejects_zero_iu() {
        let _ = MachineConfig::with_mix(0, 1);
    }

    #[test]
    fn builder_methods() {
        let mc = MachineConfig::baseline()
            .with_interconnect(InterconnectScheme::SharedBus)
            .with_memory(MemoryModel::mem2())
            .with_arbitration(ArbitrationPolicy::FixedPriority)
            .with_seed(7)
            .with_max_dsts(3);
        assert_eq!(mc.interconnect, InterconnectScheme::SharedBus);
        assert_eq!(mc.memory, MemoryModel::mem2());
        assert_eq!(mc.arbitration, ArbitrationPolicy::FixedPriority);
        assert_eq!(mc.seed, 7);
        assert_eq!(mc.max_dsts, 3);
    }

    #[test]
    fn memory_model_labels() {
        assert_eq!(MemoryModel::min().label(), "Min");
        assert_eq!(MemoryModel::mem1().label(), "Mem1");
        assert_eq!(MemoryModel::mem2().label(), "Mem2");
        let custom = MemoryModel {
            hit_latency: 2,
            miss_rate: 0.5,
            miss_penalty: (1, 2),
            banks: 0,
        };
        assert_eq!(custom.label(), "Custom");
    }

    #[test]
    fn with_unit_latency_rebuilds_units() {
        let mc = MachineConfig::baseline()
            .with_seed(9)
            .with_unit_latency(UnitClass::Float, 3);
        for u in mc.units_of_class(UnitClass::Float) {
            assert_eq!(u.latency, 3);
        }
        for u in mc.units_of_class(UnitClass::Integer) {
            assert_eq!(u.latency, 1);
        }
        // Other settings survive the rebuild.
        assert_eq!(mc.seed, 9);
        assert_eq!(mc.units().len(), 14);
    }

    #[test]
    fn with_banks_keeps_other_fields() {
        let m = MemoryModel::mem1().with_banks(4);
        assert_eq!(m.banks, 4);
        assert_eq!(m.miss_rate, 0.05);
        // A banked model is no longer the canonical labelled one.
        assert_eq!(m.label(), "Custom");
        assert_eq!(MemoryModel::mem1().label(), "Mem1");
    }

    #[test]
    fn latency_clamped_to_one() {
        let mc = MachineConfig::new(vec![ClusterConfig {
            units: vec![UnitConfig::new(UnitClass::Integer).with_latency(0)],
        }]);
        assert_eq!(mc.units()[0].latency, 1);
    }

    #[test]
    fn compile_target_ignores_runtime_fields_only() {
        let base = MachineConfig::baseline();
        let target = base.compile_target();
        let runtime_variants = InterconnectScheme::all()
            .into_iter()
            .map(|s| base.clone().with_interconnect(s))
            .chain(
                [
                    MemoryModel::min(),
                    MemoryModel::mem1(),
                    MemoryModel::mem2(),
                    MemoryModel::mem1().with_banks(4),
                ]
                .into_iter()
                .map(|m| base.clone().with_memory(m)),
            )
            .chain([1, 97, u64::MAX].map(|s| base.clone().with_seed(s)))
            .chain([
                base.clone()
                    .with_arbitration(ArbitrationPolicy::FixedPriority),
                base.clone().with_wb_buffer(1),
                base.clone().with_lockstep_issue(true),
                MachineConfig {
                    max_threads: 3,
                    ..base.clone()
                },
            ]);
        for mc in runtime_variants {
            assert_eq!(mc.compile_target(), target, "{mc:?}");
        }
        for mc in [
            MachineConfig::with_mix(2, 3),
            MachineConfig::with_mix(4, 4),
            base.clone().with_unit_latency(UnitClass::Float, 3),
            base.clone().with_max_dsts(1),
            MachineConfig::workstation(),
        ] {
            assert_ne!(mc.compile_target(), target, "{mc:?}");
        }
        // Idempotent, and the compile-relevant fields survive.
        assert_eq!(target.compile_target(), target);
        let mix = MachineConfig::with_mix(2, 3).with_seed(5);
        assert_eq!(mix.compile_target().units(), mix.units());
        assert_eq!(mix.compile_target().clusters(), mix.clusters());
        assert_eq!(mix.compile_target().max_dsts, mix.max_dsts);
    }

    #[test]
    fn scheme_labels_are_unique() {
        let labels: std::collections::HashSet<_> = InterconnectScheme::all()
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(labels.len(), 5);
    }
}

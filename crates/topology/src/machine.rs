//! The cache hierarchy tree of a multicore machine.

use std::fmt;

use crate::params::CacheParams;

/// Identifier of a node in a [`Machine`]'s cache hierarchy tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The virtual off-chip-memory root node, present in every machine.
    pub const ROOT: NodeId = NodeId(0);

    /// The raw index of the node in the machine's arena.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Identifier of a core. Cores are numbered densely from 0 in the order they
/// were added to the builder, matching the left-to-right order of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(usize);

impl CoreId {
    /// The raw core index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl From<usize> for CoreId {
    fn from(i: usize) -> Self {
        CoreId(i)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// What a tree node is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// The virtual off-chip memory root (always node 0). The paper: "off-chip
    /// memory is treated as the root if there are more than one last level
    /// caches"; we use it uniformly.
    Memory,
    /// A cache at the given level (1 = closest to the core).
    Cache {
        /// Cache level: 1 for L1, 2 for L2, ...
        level: u8,
        /// Geometry and latency.
        params: CacheParams,
    },
    /// A leaf processor core.
    Core(CoreId),
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// A multicore machine: name, clock, memory latency, and the cache hierarchy
/// tree (arena-backed; node 0 is the virtual memory root).
///
/// Construct with [`MachineBuilder`] or take one from [`crate::catalog`].
///
/// Equality is structural: two machines are equal when they have the same
/// name, clock, memory latency and arena-identical trees (same node ids,
/// same insertion order). [`crate::spec::parse_machine`] and
/// [`Machine::to_spec`] both produce trees in the same depth-first order,
/// so round-tripping preserves equality.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    name: String,
    clock_ghz: f64,
    memory_latency: u32,
    nodes: Vec<Node>,
    /// Node id of each core, indexed by `CoreId`.
    core_nodes: Vec<NodeId>,
}

impl Machine {
    /// Starts building a machine. `memory_latency` is in cycles.
    pub fn builder(name: &str, clock_ghz: f64, memory_latency: u32) -> MachineBuilder {
        MachineBuilder {
            name: name.to_owned(),
            clock_ghz,
            memory_latency,
            nodes: vec![Node {
                kind: NodeKind::Memory,
                parent: None,
                children: Vec::new(),
            }],
            core_nodes: Vec::new(),
        }
    }

    /// Machine name (e.g. "Dunnington").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy with a different display name (used for derived
    /// variants like "Dunnington/halved").
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Core clock in GHz (Table 1).
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Off-chip memory latency in cycles.
    pub fn memory_latency(&self) -> u32 {
        self.memory_latency
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.core_nodes.len()
    }

    /// All cores, in id order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_nodes.len()).map(CoreId)
    }

    /// The kind of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0].kind
    }

    /// Children of a node, in insertion order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.0].children
    }

    /// Parent of a node (`None` for the memory root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.0].parent
    }

    /// The tree node that holds `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_node(&self, core: CoreId) -> NodeId {
        self.core_nodes[core.0]
    }

    /// The caches a memory access from `core` traverses, private L1 first,
    /// last-level cache last (the memory root is excluded).
    pub fn lookup_path(&self, core: CoreId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = self.parent(self.core_node(core));
        while let Some(n) = cur {
            if matches!(self.kind(n), NodeKind::Cache { .. }) {
                path.push(n);
            }
            cur = self.parent(n);
        }
        path
    }

    /// The deepest (closest-to-core, smallest-level) cache shared by both
    /// cores — the paper's "affinity at cache L". `None` when the cores only
    /// meet at off-chip memory (different sockets).
    pub fn affinity_level(&self, a: CoreId, b: CoreId) -> Option<u8> {
        if a == b {
            // A core trivially has affinity with itself at its private L1.
            return self
                .lookup_path(a)
                .first()
                .and_then(|&n| match self.kind(n) {
                    NodeKind::Cache { level, .. } => Some(level),
                    _ => None,
                });
        }
        let path_b: Vec<NodeId> = self.lookup_path(b);
        for n in self.lookup_path(a) {
            if path_b.contains(&n) {
                if let NodeKind::Cache { level, .. } = self.kind(n) {
                    return Some(level);
                }
            }
        }
        None
    }

    /// All cores in the subtree rooted at `node`, in core-id order.
    pub fn cores_under(&self, node: NodeId) -> Vec<CoreId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            match self.kind(n) {
                NodeKind::Core(c) => out.push(c),
                _ => stack.extend(self.children(n).iter().copied()),
            }
        }
        out.sort();
        out
    }

    /// Distinct cache levels present, ascending (e.g. `[1, 2, 3]` for
    /// Dunnington).
    pub fn levels(&self) -> Vec<u8> {
        let mut ls: Vec<u8> = self
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Cache { level, .. } => Some(level),
                _ => None,
            })
            .collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// All cache nodes at `level`.
    pub fn caches_at(&self, level: u8) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| matches!(self.kind(n), NodeKind::Cache { level: l, .. } if l == level))
            .collect()
    }

    /// For each cache at `level`, the cores it serves: `(cache, cores)`.
    pub fn shared_domains(&self, level: u8) -> Vec<(NodeId, Vec<CoreId>)> {
        self.caches_at(level)
            .into_iter()
            .map(|n| (n, self.cores_under(n)))
            .collect()
    }

    /// The geometry of one cache node, or `None` for the memory root and
    /// core leaves.
    pub fn cache_params(&self, node: NodeId) -> Option<CacheParams> {
        match self.kind(node) {
            NodeKind::Cache { params, .. } => Some(params),
            _ => None,
        }
    }

    /// The finest line size among the caches at `level` — the granularity a
    /// line-level sharing analysis of that level must work at. `None` if the
    /// machine has no caches at `level`.
    pub fn line_bytes_at(&self, level: u8) -> Option<u32> {
        self.caches_at(level)
            .into_iter()
            .filter_map(|n| self.cache_params(n).map(|p| p.line_bytes()))
            .min()
    }

    /// The smallest cache level at which some cache is shared by more than
    /// one core — the "first shared cache level" of Figure 7. `None` for a
    /// single-core machine or all-private hierarchy.
    pub fn first_shared_level(&self) -> Option<u8> {
        self.levels()
            .into_iter()
            .find(|&l| self.shared_domains(l).iter().any(|(_, cs)| cs.len() > 1))
    }

    /// Total on-chip cache capacity in bytes, across all levels.
    pub fn total_cache_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.kind {
                NodeKind::Cache { params, .. } => params.size_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Returns a copy with every cache capacity halved (the reduced-capacity
    /// study of Figure 19).
    pub fn halved_capacities(&self) -> Machine {
        let mut m = self.clone();
        for n in &mut m.nodes {
            if let NodeKind::Cache { params, .. } = &mut n.kind {
                *params = params.halved();
            }
        }
        m.name = format!("{}/halved", self.name);
        m
    }

    /// Returns a *mapper view* of the machine that ignores cache levels above
    /// `max_level`: caches with `level > max_level` are removed and their
    /// subtrees re-parented to the memory root. Used for Figure 20's
    /// "L1+L2" and "L1+L2+L3" variants — the simulator still runs the full
    /// machine; only the mapping algorithm sees the truncated tree.
    pub fn truncated(&self, max_level: u8) -> Machine {
        let mut b = Machine::builder(
            &format!("{}(<=L{max_level})", self.name),
            self.clock_ghz,
            self.memory_latency,
        );
        b.copy_subtree(self, NodeId::ROOT, NodeId::ROOT, &mut |_, level, params| {
            (level <= max_level).then_some(params)
        });
        b.build()
    }

    /// A builder holding a copy of this machine's tree, arena order and
    /// all, to which more nodes can be added.
    pub(crate) fn to_builder(&self) -> MachineBuilder {
        MachineBuilder {
            name: self.name.clone(),
            clock_ghz: self.clock_ghz,
            memory_latency: self.memory_latency,
            nodes: self.nodes.clone(),
            core_nodes: self.core_nodes.clone(),
        }
    }

    /// A Table 1-style multi-line description.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{}: {} cores, {:.1}GHz, mem {} cycles\n",
            self.name,
            self.n_cores(),
            self.clock_ghz,
            self.memory_latency
        );
        for level in self.levels() {
            let caches = self.caches_at(level);
            let NodeKind::Cache { params, .. } = self.kind(caches[0]) else {
                unreachable!("caches_at returns cache nodes");
            };
            let widths: Vec<usize> = caches.iter().map(|&c| self.cores_under(c).len()).collect();
            let sharing = if widths.iter().all(|&w| w == 1) {
                "private".to_owned()
            } else {
                format!("shared by {} cores", widths[0])
            };
            out.push_str(&format!(
                "  L{level} x{}: {params} ({sharing})\n",
                caches.len()
            ));
        }
        out
    }
}

/// Builder for [`Machine`] (see [`Machine::builder`]).
///
/// # Example
///
/// ```
/// use ctam_topology::{CacheParams, Machine, NodeId, KB, MB};
///
/// // A 4-core machine: two L2s, each shared by two cores with private L1s.
/// let mut b = Machine::builder("toy", 2.0, 100);
/// let l1 = CacheParams::new(32 * KB, 8, 64, 3);
/// for _ in 0..2 {
///     let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(2 * MB, 8, 64, 12));
///     b.core_with_l1(l2, l1);
///     b.core_with_l1(l2, l1);
/// }
/// let m = b.build();
/// assert_eq!(m.n_cores(), 4);
/// assert_eq!(m.first_shared_level(), Some(2));
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    name: String,
    clock_ghz: f64,
    memory_latency: u32,
    nodes: Vec<Node>,
    core_nodes: Vec<NodeId>,
}

impl MachineBuilder {
    fn add_node(&mut self, kind: NodeKind, parent: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Adds a cache at `level` under `parent` and returns its node id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not the root or a cache with a higher level.
    pub fn cache(&mut self, parent: NodeId, level: u8, params: CacheParams) -> NodeId {
        match self.nodes[parent.0].kind {
            NodeKind::Memory => {}
            NodeKind::Cache { level: pl, .. } => {
                assert!(
                    pl > level,
                    "cache L{level} cannot be nested under L{pl}: levels must decrease toward cores"
                );
            }
            NodeKind::Core(_) => panic!("cannot nest a cache under a core"),
        }
        self.add_node(NodeKind::Cache { level, params }, parent)
    }

    /// Adds a private L1 under `parent` and a core under that L1; returns the
    /// new core's id. This is the common leaf pattern of every machine in
    /// Figure 1.
    pub fn core_with_l1(&mut self, parent: NodeId, l1: CacheParams) -> CoreId {
        let l1_node = self.cache(parent, 1, l1);
        self.raw_core(l1_node)
    }

    /// Adds a core directly under `parent` (which should be its private
    /// cache). Prefer [`Self::core_with_l1`].
    pub fn raw_core(&mut self, parent: NodeId) -> CoreId {
        let core = CoreId(self.core_nodes.len());
        let id = self.add_node(NodeKind::Core(core), parent);
        self.core_nodes.push(id);
        core
    }

    /// Copies `node` of `src` and its subtree under `parent`, depth first,
    /// so the copied cores are numbered in tree order. `edit` gets each
    /// cache's source node, level and parameters and returns the
    /// parameters to build it with, or `None` to drop that cache and hang
    /// its children on `parent` instead. The memory root is always
    /// dropped that way: copying it copies the whole tree.
    pub(crate) fn copy_subtree(
        &mut self,
        src: &Machine,
        node: NodeId,
        parent: NodeId,
        edit: &mut dyn FnMut(NodeId, u8, CacheParams) -> Option<CacheParams>,
    ) {
        let parent = match src.kind(node) {
            NodeKind::Memory => parent,
            NodeKind::Cache { level, params } => match edit(node, level, params) {
                Some(params) => self.cache(parent, level, params),
                None => parent,
            },
            NodeKind::Core(_) => {
                self.raw_core(parent);
                return;
            }
        };
        for &child in src.children(node) {
            self.copy_subtree(src, child, parent, edit);
        }
    }

    /// Finalizes the machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no cores or a cache node has neither caches
    /// nor a core beneath it.
    pub fn build(self) -> Machine {
        assert!(!self.core_nodes.is_empty(), "machine must have cores");
        for (i, n) in self.nodes.iter().enumerate() {
            if matches!(n.kind, NodeKind::Cache { .. }) {
                assert!(
                    !n.children.is_empty(),
                    "cache node {i} has no children; every cache must serve cores"
                );
            }
        }
        Machine {
            name: self.name,
            clock_ghz: self.clock_ghz,
            memory_latency: self.memory_latency,
            nodes: self.nodes,
            core_nodes: self.core_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KB, MB};

    fn toy() -> Machine {
        // 2 sockets x (1 L2 shared by 2 cores with private L1s)
        let mut b = Machine::builder("toy", 1.0, 100);
        let l1 = CacheParams::new(32 * KB, 8, 64, 3);
        for _ in 0..2 {
            let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(MB, 8, 64, 12));
            b.core_with_l1(l2, l1);
            b.core_with_l1(l2, l1);
        }
        b.build()
    }

    #[test]
    fn lookup_path_is_l1_then_l2() {
        let m = toy();
        let path = m.lookup_path(0.into());
        assert_eq!(path.len(), 2);
        assert!(matches!(m.kind(path[0]), NodeKind::Cache { level: 1, .. }));
        assert!(matches!(m.kind(path[1]), NodeKind::Cache { level: 2, .. }));
    }

    #[test]
    fn affinity_within_and_across_sockets() {
        let m = toy();
        assert_eq!(m.affinity_level(0.into(), 1.into()), Some(2));
        assert_eq!(m.affinity_level(0.into(), 2.into()), None);
        assert_eq!(m.affinity_level(0.into(), 0.into()), Some(1));
        // symmetric
        assert_eq!(
            m.affinity_level(1.into(), 0.into()),
            m.affinity_level(0.into(), 1.into())
        );
    }

    #[test]
    fn shared_domains_partition_cores() {
        let m = toy();
        let domains = m.shared_domains(2);
        assert_eq!(domains.len(), 2);
        let mut all: Vec<CoreId> = domains.iter().flat_map(|(_, cs)| cs.clone()).collect();
        all.sort();
        assert_eq!(all, m.cores().collect::<Vec<_>>());
    }

    #[test]
    fn first_shared_level_found() {
        assert_eq!(toy().first_shared_level(), Some(2));
    }

    #[test]
    fn truncation_flattens_upper_levels() {
        let m = toy();
        let t = m.truncated(1);
        assert_eq!(t.n_cores(), 4);
        assert_eq!(t.levels(), vec![1]);
        // All L1s now hang off the root.
        assert_eq!(t.children(NodeId::ROOT).len(), 4);
        // Core order is preserved.
        assert_eq!(t.first_shared_level(), None);
    }

    #[test]
    fn halved_capacities_halve_every_cache() {
        let m = toy();
        let h = m.halved_capacities();
        assert_eq!(h.total_cache_bytes(), m.total_cache_bytes() / 2);
        assert_eq!(h.n_cores(), m.n_cores());
    }

    #[test]
    fn cores_under_root_is_everyone() {
        let m = toy();
        assert_eq!(m.cores_under(NodeId::ROOT).len(), 4);
    }

    #[test]
    fn cache_params_and_line_bytes_queries() {
        let m = toy();
        let l2 = m.caches_at(2)[0];
        let p = m.cache_params(l2).expect("L2 has params");
        assert_eq!(p.size_bytes(), MB);
        assert_eq!(p.line_bytes(), 64);
        assert!(m.cache_params(NodeId::ROOT).is_none());
        let core_node = m.core_node(0.into());
        assert!(m.cache_params(core_node).is_none());
        assert_eq!(m.line_bytes_at(1), Some(64));
        assert_eq!(m.line_bytes_at(2), Some(64));
        assert_eq!(m.line_bytes_at(3), None);
    }

    #[test]
    fn line_bytes_at_takes_the_finest_line() {
        // Two L2s with different line sizes: the analysis granularity is
        // the finer one.
        let mut b = Machine::builder("mixed", 1.0, 100);
        let l2a = b.cache(NodeId::ROOT, 2, CacheParams::new(MB, 8, 128, 12));
        let l2b = b.cache(NodeId::ROOT, 2, CacheParams::new(MB, 8, 64, 12));
        b.core_with_l1(l2a, CacheParams::new(32 * KB, 8, 128, 3));
        b.core_with_l1(l2b, CacheParams::new(32 * KB, 8, 64, 3));
        let m = b.build();
        assert_eq!(m.line_bytes_at(2), Some(64));
        assert_eq!(m.line_bytes_at(1), Some(64));
    }

    #[test]
    fn describe_mentions_levels() {
        let d = toy().describe();
        assert!(d.contains("L1") && d.contains("L2"), "{d}");
    }

    #[test]
    #[should_panic(expected = "levels must decrease")]
    fn rejects_inverted_levels() {
        let mut b = Machine::builder("bad", 1.0, 10);
        let l1 = b.cache(NodeId::ROOT, 1, CacheParams::new(32 * KB, 8, 64, 3));
        let _ = b.cache(l1, 2, CacheParams::new(MB, 8, 64, 12));
    }

    #[test]
    #[should_panic(expected = "must have cores")]
    fn rejects_coreless_machine() {
        let _ = Machine::builder("empty", 1.0, 10).build();
    }
}

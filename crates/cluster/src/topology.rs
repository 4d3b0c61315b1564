//! Cluster topology: how the city grid, the published tasks, and the
//! node count determine which shard clears which bid.
//!
//! ## The unit of clearing is the *region shard*, not the node
//!
//! A topology partitions the [`CityGrid`] into regions and pins every
//! task to the region containing its cell. Each region is an independent
//! clearing shard with its own engine seed derived from
//! [`shard_seed`]; one extra virtual shard (index `regions.len()`)
//! clears cross-region straddlers in phase 2. Nodes are pure
//! *placement*: [`Topology::node_of_region`] maps region shards onto `N`
//! nodes in contiguous slices, and nothing downstream of placement can
//! observe it — which is exactly why a 1-node and an N-node deployment
//! of the same topology produce bitwise-identical outcomes (proven by
//! `tests/cluster_equivalence.rs`).

use std::collections::BTreeMap;
use std::fmt;

use mcs_core::types::Task;
use mcs_mobility::grid::{Cell, CityGrid, Region};
use mcs_obs::digest::mix64;

/// A published task pinned to the grid cell where it must be sensed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSite {
    /// The task (id + coverage requirement).
    pub task: Task,
    /// The grid cell the task is bound to.
    pub cell: Cell,
}

/// Why a topology could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// No regions were supplied.
    NoRegions,
    /// The regions do not tile the grid exactly (gap or overlap).
    NotAPartition,
    /// No task sites were supplied.
    NoTasks,
    /// A task's cell lies outside the grid.
    OffGrid {
        /// The offending task id.
        task: u32,
    },
    /// The same task id appears at two sites.
    DuplicateTask {
        /// The repeated task id.
        task: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoRegions => write!(f, "topology has no regions"),
            TopologyError::NotAPartition => {
                write!(f, "regions do not tile the grid exactly")
            }
            TopologyError::NoTasks => write!(f, "topology publishes no tasks"),
            TopologyError::OffGrid { task } => {
                write!(f, "task t{task} sits on a cell outside the grid")
            }
            TopologyError::DuplicateTask { task } => {
                write!(f, "task t{task} is published at two sites")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The cluster's sharding key: grid regions, task placement, and the
/// region → node map.
#[derive(Debug, Clone)]
pub struct Topology {
    grid: CityGrid,
    regions: Vec<Region>,
    sites: Vec<TaskSite>,
    /// Per region, the tasks it publishes, ascending task id.
    region_tasks: Vec<Vec<Task>>,
    /// Task id → owning region index.
    task_region: BTreeMap<u32, u32>,
}

impl Topology {
    /// Builds a topology from an explicit region partition and task
    /// sites.
    ///
    /// # Errors
    ///
    /// A [`TopologyError`] when the regions do not tile the grid, a task
    /// is off-grid or duplicated, or either side is empty.
    pub fn new(
        grid: CityGrid,
        regions: Vec<Region>,
        sites: Vec<TaskSite>,
    ) -> Result<Self, TopologyError> {
        if regions.is_empty() {
            return Err(TopologyError::NoRegions);
        }
        if sites.is_empty() {
            return Err(TopologyError::NoTasks);
        }
        if !grid.is_partition(&regions) {
            return Err(TopologyError::NotAPartition);
        }
        let mut task_region = BTreeMap::new();
        let mut by_region: Vec<BTreeMap<u32, Task>> = vec![BTreeMap::new(); regions.len()];
        for site in &sites {
            let id = site.task.id().index() as u32;
            let Some(region) = grid.region_of_cell(&regions, site.cell) else {
                return Err(TopologyError::OffGrid { task: id });
            };
            if task_region.insert(id, region as u32).is_some() {
                return Err(TopologyError::DuplicateTask { task: id });
            }
            by_region[region].insert(id, site.task);
        }
        let region_tasks = by_region
            .into_iter()
            .map(|tasks| tasks.into_values().collect())
            .collect();
        Ok(Topology {
            grid,
            regions,
            sites,
            region_tasks,
            task_region,
        })
    }

    /// Builds a topology over `bands` vertical grid bands (see
    /// [`CityGrid::partition_bands`]) — the stock partition shape used
    /// by `platformd --nodes` and the CI cluster tier.
    ///
    /// # Errors
    ///
    /// Same as [`Topology::new`].
    pub fn bands(
        grid: CityGrid,
        bands: usize,
        sites: Vec<TaskSite>,
    ) -> Result<Self, TopologyError> {
        let regions = grid.partition_bands(bands);
        Topology::new(grid, regions, sites)
    }

    /// The grid the topology partitions.
    pub fn grid(&self) -> &CityGrid {
        &self.grid
    }

    /// The region partition.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Every published task site.
    pub fn sites(&self) -> &[TaskSite] {
        &self.sites
    }

    /// The tasks published by region `region`, ascending task id. Empty
    /// when no task lands in the region (such regions never host a
    /// clearing shard).
    pub fn region_tasks(&self, region: u32) -> &[Task] {
        &self.region_tasks[region as usize]
    }

    /// The region owning task `task`, if it is published at all.
    pub fn region_of_task(&self, task: u32) -> Option<u32> {
        self.task_region.get(&task).copied()
    }

    /// Every published task, ascending task id, with its residual-round
    /// coverage requirement.
    pub fn tasks(&self) -> impl Iterator<Item = Task> + '_ {
        self.task_region.iter().map(move |(&id, &region)| {
            self.region_tasks[region as usize]
                .iter()
                .find(|task| task.id().index() as u32 == id)
                .copied()
                .expect("task_region and region_tasks stay in sync")
        })
    }

    /// Region shards that actually publish tasks, ascending. Only these
    /// get engines; the rest of the partition is quiet territory.
    pub fn active_regions(&self) -> impl Iterator<Item = u32> + '_ {
        self.region_tasks
            .iter()
            .enumerate()
            .filter(|(_, tasks)| !tasks.is_empty())
            .map(|(region, _)| region as u32)
    }

    /// The virtual shard index of the straddler (phase-2) clear:
    /// one past the last region.
    pub fn straddler_shard(&self) -> u32 {
        self.regions.len() as u32
    }

    /// Which of `nodes` nodes hosts region `region`: contiguous region
    /// slices, so node `k` serves regions `[k·R/N, (k+1)·R/N)`. Pure
    /// placement — never feeds into clearing.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `region` is out of range.
    pub fn node_of_region(&self, region: u32, nodes: u32) -> u32 {
        assert!(nodes > 0, "a cluster needs at least one node");
        let count = self.regions.len() as u64;
        assert!((region as u64) < count, "region {region} out of range");
        ((region as u64 * nodes as u64) / count) as u32
    }
}

/// Per-shard clearing seed: a SplitMix64-style mix of the cluster seed and
/// the shard index, so every region shard (and the straddler shard)
/// draws from an independent, reproducible stream that does not depend
/// on which node hosts it.
pub fn shard_seed(cluster_seed: u64, shard: u32) -> u64 {
    mix64(cluster_seed, shard as u64 + 1, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::types::TaskId;

    fn site(task: u32, requirement: f64, x: u32, y: u32) -> TaskSite {
        TaskSite {
            task: Task::with_requirement(TaskId::new(task), requirement).unwrap(),
            cell: Cell { x, y },
        }
    }

    fn four_band_topology() -> Topology {
        let grid = CityGrid::new(8, 4, 1.0);
        let sites = vec![
            site(0, 0.8, 0, 0),
            site(1, 0.7, 2, 3),
            site(2, 0.6, 5, 1),
            site(3, 0.9, 7, 3),
        ];
        Topology::bands(grid, 4, sites).unwrap()
    }

    #[test]
    fn tasks_route_to_their_band() {
        let topology = four_band_topology();
        assert_eq!(topology.region_of_task(0), Some(0));
        assert_eq!(topology.region_of_task(1), Some(1));
        assert_eq!(topology.region_of_task(2), Some(2));
        assert_eq!(topology.region_of_task(3), Some(3));
        assert_eq!(topology.region_of_task(42), None);
        assert_eq!(topology.straddler_shard(), 4);
        assert_eq!(topology.region_tasks(2).len(), 1);
        assert_eq!(topology.active_regions().collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn node_placement_is_contiguous_and_total() {
        let topology = four_band_topology();
        for nodes in 1..=8u32 {
            let mut last = 0;
            for region in 0..4 {
                let node = topology.node_of_region(region, nodes);
                assert!(node < nodes);
                assert!(node >= last, "placement must be monotone");
                last = node;
            }
        }
        assert_eq!(topology.node_of_region(0, 1), 0);
        assert_eq!(topology.node_of_region(3, 1), 0);
        assert_eq!(topology.node_of_region(0, 2), 0);
        assert_eq!(topology.node_of_region(3, 2), 1);
    }

    #[test]
    fn bad_topologies_are_rejected() {
        let grid = CityGrid::new(8, 4, 1.0);
        let sites = vec![site(0, 0.8, 0, 0)];
        assert_eq!(
            Topology::new(grid, vec![], sites.clone()).unwrap_err(),
            TopologyError::NoRegions
        );
        let regions = grid.partition_bands(2);
        assert_eq!(
            Topology::new(grid, regions.clone(), vec![]).unwrap_err(),
            TopologyError::NoTasks
        );
        assert_eq!(
            Topology::new(grid, regions.clone(), vec![site(0, 0.8, 99, 0)]).unwrap_err(),
            TopologyError::OffGrid { task: 0 }
        );
        assert_eq!(
            Topology::new(
                grid,
                regions.clone(),
                vec![site(0, 0.8, 0, 0), site(0, 0.7, 5, 0)]
            )
            .unwrap_err(),
            TopologyError::DuplicateTask { task: 0 }
        );
        // A gappy "partition" (just the first band) is rejected.
        assert_eq!(
            Topology::new(grid, regions[..1].to_vec(), sites).unwrap_err(),
            TopologyError::NotAPartition
        );
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..16).map(|shard| shard_seed(7, shard)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
        assert_ne!(shard_seed(7, 3), shard_seed(8, 3));
    }
}

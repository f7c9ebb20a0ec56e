//! Route pathway graphs (paper Section 3.3, Figures 7 and 10).
//!
//! For a chosen router, a breadth-first search backward through the
//! instance graph records every instance (and external source) whose
//! routes can reach that router's RIB, and at what depth. The result
//! locates all the routing policies that affect the routes the router
//! sees, and makes structural differences between designs visible: a
//! textbook enterprise router is fed by one IGP instance fed by one BGP
//! instance; net5's router 3 sits behind three layers of protocols and
//! redistributions.

use nettopo::RouterId;

use crate::instance::{InstanceId, Instances};
use crate::instance_graph::{ExchangeKind, InstanceGraph, InstanceNode};

/// One node of a pathway graph, with its BFS depth from the router RIB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathwayNode {
    /// The instance-graph node.
    pub node: InstanceNode,
    /// Hops from the router RIB (0 = instances the router belongs to).
    pub depth: usize,
}

/// The route pathway graph for one router.
#[derive(Clone, Debug)]
pub struct PathwayGraph {
    /// The router whose routes are being traced.
    pub router: RouterId,
    /// Reached nodes with depths, in BFS order.
    pub nodes: Vec<PathwayNode>,
    /// The pathway edges: `(source, dest, policy)` meaning routes flow
    /// from `source` toward the router via `dest`.
    pub edges: Vec<(InstanceNode, InstanceNode, Option<String>)>,
}

/// The four numbers `/pathways` reports for one router: what
/// [`PathwayGraph`] would show, without building it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathwaySummary {
    /// [`PathwayGraph::max_depth`].
    pub max_depth: usize,
    /// [`PathwayGraph::reaches_external_world`].
    pub reaches_external_world: bool,
    /// `PathwayGraph::nodes.len()`.
    pub nodes: usize,
    /// `PathwayGraph::edges.len()`.
    pub edges: usize,
}

/// A dense reverse-flow index over one instance graph, shared across
/// every trace of a network.
///
/// Nodes get dense `u32` ids in [`InstanceNode`] order — every instance
/// first, then external ASes, then the external world — so ordering by
/// id is ordering by node. The backward adjacency is one CSR array:
/// `sources[offsets[b]..offsets[b + 1]]` are the nodes whose routes flow
/// into `b`. Each node's entries are the graph's edges in insertion
/// order (an exchange edge contributes one entry per direction, a
/// redistribution edge one toward its `to` node), stable-sorted by
/// source, with consecutive equal `(source, policy)` pairs collapsed —
/// exactly the edges [`PathwayIndex::trace`] reports into `b`, so the
/// range length is `b`'s edge weight: interleaved policies `p1, p2, p1`
/// on one pair count 3, and an exchange self-loop counts 1.
///
/// Both [`trace`](PathwayIndex::trace) and
/// [`summaries`](PathwayIndex::summaries) run the same queue BFS over
/// the CSR. `max_depth` is the BFS depth: the *shortest* distance from
/// the seed set, maximised over reached nodes. `summaries` folds the
/// four numbers as nodes are dequeued and reuses one generation-stamped
/// visited array across routers, so it allocates nothing per router.
pub struct PathwayIndex {
    /// Dense id → node.
    nodes: Vec<InstanceNode>,
    /// CSR row starts (one per node, plus the end).
    offsets: Vec<u32>,
    /// Backward entries: the source of each.
    sources: Vec<u32>,
    /// Backward entries: the redistribution policy of each.
    policies: Vec<Option<String>>,
    /// Per node: an external AS or the external world.
    external: Vec<bool>,
    /// Router → instances it participates in (the trace seed), in
    /// `instances.list` order.
    seeds: Vec<Vec<InstanceId>>,
}

/// BFS scratch, reusable across walks: a node is reached iff its stamp
/// equals the current generation, so starting a walk clears nothing.
struct Walk {
    stamp: Vec<u32>,
    depth: Vec<u32>,
    /// Reached nodes in BFS order; the unprocessed tail is the queue.
    order: Vec<u32>,
    generation: u32,
}

impl Walk {
    fn new(nodes: usize) -> Walk {
        Walk {
            stamp: vec![0; nodes],
            depth: vec![0; nodes],
            order: Vec::new(),
            generation: 0,
        }
    }

    /// Marks `v` reached at `depth` unless it already is.
    fn reach(&mut self, v: u32, depth: u32) {
        let slot = v as usize;
        if self.stamp[slot] != self.generation {
            self.stamp[slot] = self.generation;
            self.depth[slot] = depth;
            self.order.push(v);
        }
    }
}

impl PathwayIndex {
    /// Indexes `graph` for repeated tracing.
    pub fn new(instances: &Instances, graph: &InstanceGraph) -> PathwayIndex {
        let mut nodes: Vec<InstanceNode> = instances
            .list
            .iter()
            .map(|i| InstanceNode::Instance(i.id))
            .chain(graph.nodes.iter().copied())
            .chain(graph.edges.iter().flat_map(|e| [e.from, e.to]))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        // Dense ids, depths and CSR offsets are u32; `2 * edges` bounds
        // the entry count.
        assert!(
            u32::try_from(nodes.len()).is_ok() && u32::try_from(2 * graph.edges.len()).is_ok(),
            "instance graph too large for u32 pathway ids"
        );
        let id = |node: InstanceNode| -> u32 {
            nodes
                .binary_search(&node)
                .expect("every edge endpoint is in the node table") as u32
        };

        // Backward entries `(dest, source, policy)` in graph-edge order.
        let mut entries: Vec<(u32, u32, Option<&String>)> =
            Vec::with_capacity(2 * graph.edges.len());
        for e in &graph.edges {
            let (from, to) = (id(e.from), id(e.to));
            match &e.kind {
                // Redistribution is directed: routes flow from → to.
                ExchangeKind::Redistribution { policy, .. } => {
                    entries.push((to, from, policy.as_ref()));
                }
                // Exchange edges (EBGP, IGP edges) flow both ways.
                ExchangeKind::Ebgp { .. } | ExchangeKind::IgpEdge { .. } => {
                    entries.push((to, from, None));
                    entries.push((from, to, None));
                }
            }
        }
        // Stable, so each (dest, source) run keeps graph-edge order.
        entries.sort_by_key(|&(dest, source, _)| (dest, source));
        entries.dedup();

        let mut offsets = vec![0u32; nodes.len() + 1];
        for &(dest, _, _) in &entries {
            offsets[dest as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }

        let mut seeds: Vec<Vec<InstanceId>> = Vec::new();
        for inst in &instances.list {
            for router in &inst.routers {
                if seeds.len() <= router.0 {
                    seeds.resize_with(router.0 + 1, Vec::new);
                }
                seeds[router.0].push(inst.id);
            }
        }

        PathwayIndex {
            external: nodes
                .iter()
                .map(|n| !matches!(n, InstanceNode::Instance(_)))
                .collect(),
            sources: entries.iter().map(|&(_, source, _)| source).collect(),
            policies: entries
                .iter()
                .map(|&(_, _, policy)| policy.cloned())
                .collect(),
            nodes,
            offsets,
            seeds,
        }
    }

    /// The depth-0 instance set of `router` — its trace seed. Two
    /// routers with equal seeds produce pathways that differ only in
    /// the `router` field.
    pub fn seed(&self, router: RouterId) -> &[InstanceId] {
        self.seeds.get(router.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The backward-entry range of node `v`.
    fn incoming(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Breadth-first search backward along route flow from `router`'s
    /// seed, calling `visit(node, depth)` as each reached node is
    /// dequeued.
    fn walk(&self, router: RouterId, walk: &mut Walk, mut visit: impl FnMut(u32, u32)) {
        walk.generation = walk.generation.wrapping_add(1);
        if walk.generation == 0 {
            walk.stamp.fill(0);
            walk.generation = 1;
        }
        walk.order.clear();
        // Depth 0: instances this router participates in feed its RIB.
        for id in self.seed(router) {
            let v = self.nodes.binary_search(&InstanceNode::Instance(*id));
            walk.reach(v.expect("every instance is in the node table") as u32, 0);
        }
        let mut head = 0;
        while let Some(&v) = walk.order.get(head) {
            head += 1;
            let depth = walk.depth[v as usize];
            visit(v, depth);
            for k in self.incoming(v) {
                walk.reach(self.sources[k], depth + 1);
            }
        }
    }

    /// The [`PathwaySummary`] of every router `0..routers`, indexed by
    /// router — the same numbers [`trace`](PathwayIndex::trace) yields,
    /// without materializing any pathway.
    pub fn summaries(&self, routers: usize) -> Vec<PathwaySummary> {
        let mut walk = Walk::new(self.nodes.len());
        (0..routers)
            .map(|r| {
                let mut s = PathwaySummary::default();
                self.walk(RouterId(r), &mut walk, |v, depth| {
                    s.max_depth = s.max_depth.max(depth as usize);
                    s.reaches_external_world |= self.external[v as usize];
                    s.nodes += 1;
                    s.edges += self.incoming(v).len();
                });
                s
            })
            .collect()
    }

    /// Traces where `router`'s routes come from.
    pub fn trace(&self, router: RouterId) -> PathwayGraph {
        let mut walk = Walk::new(self.nodes.len());
        let mut reached: Vec<(u32, u32)> = Vec::new();
        self.walk(router, &mut walk, |v, depth| reached.push((depth, v)));
        // Dense ids order like nodes, so (depth, id) is (depth, node), and
        // the entry index keeps each (source, dest) run in graph order.
        reached.sort_unstable();
        let mut edges: Vec<(u32, u32, usize)> = reached
            .iter()
            .flat_map(|&(_, dest)| self.incoming(dest).map(move |k| (self.sources[k], dest, k)))
            .collect();
        edges.sort_unstable();
        PathwayGraph {
            router,
            nodes: reached
                .iter()
                .map(|&(depth, v)| PathwayNode {
                    node: self.nodes[v as usize],
                    depth: depth as usize,
                })
                .collect(),
            edges: edges
                .into_iter()
                .map(|(source, dest, k)| {
                    (
                        self.nodes[source as usize],
                        self.nodes[dest as usize],
                        self.policies[k].clone(),
                    )
                })
                .collect(),
        }
    }
}

impl PathwayGraph {
    /// Traces where `router`'s routes come from. One-shot form of
    /// [`PathwayIndex::trace`]; callers tracing many routers of the
    /// same network should build the index once instead.
    pub fn trace(router: RouterId, instances: &Instances, graph: &InstanceGraph) -> PathwayGraph {
        PathwayIndex::new(instances, graph).trace(router)
    }

    /// The maximum depth (number of protocol layers routes must traverse
    /// to reach this router) — net5's router 3 shows "at least 3 layers".
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// True if routes from the external world can reach this router.
    pub fn reaches_external_world(&self) -> bool {
        self.nodes.iter().any(|n| {
            matches!(
                n.node,
                InstanceNode::ExternalAs(_) | InstanceNode::ExternalWorld
            )
        })
    }

    /// Instances on the pathway (excluding external nodes).
    pub fn instances(&self) -> Vec<InstanceId> {
        self.nodes
            .iter()
            .filter_map(|n| match n.node {
                InstanceNode::Instance(id) => Some(id),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacencies;
    use crate::instance_graph::InstanceGraph;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    fn build(net: &Network) -> (Instances, InstanceGraph) {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        let graph = InstanceGraph::build(net, &procs, &adj, &inst);
        (inst, graph)
    }

    /// Figure 7(a): interior enterprise router learns everything from the
    /// IGP, which learns from BGP, which learns from the world.
    #[test]
    fn enterprise_interior_pathway_is_layered() {
        let net = Network::from_texts(vec![
            (
                "config1".into(), // border
                "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                    .into(),
            ),
            (
                "config2".into(), // interior: router 1 of Fig. 7(a)
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (inst, graph) = build(&net);
        let pathway = PathwayGraph::trace(RouterId(1), &inst, &graph);
        // OSPF at depth 0, BGP at depth 1, external AS at depth 2.
        assert_eq!(pathway.max_depth(), 2);
        assert!(pathway.reaches_external_world());
        assert_eq!(pathway.instances().len(), 2);
        let depth0: Vec<&PathwayNode> = pathway.nodes.iter().filter(|n| n.depth == 0).collect();
        assert_eq!(depth0.len(), 1);
    }

    /// A router cut off from external routes never reaches the world node.
    #[test]
    fn isolated_igp_island() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (inst, graph) = build(&net);
        let pathway = PathwayGraph::trace(RouterId(0), &inst, &graph);
        assert_eq!(pathway.max_depth(), 0);
        assert!(!pathway.reaches_external_world());
    }

    /// Redistribution direction matters: routes flow along redistribution
    /// arrows, so an instance that only *receives* our routes does not
    /// appear in our pathway.
    #[test]
    fn one_way_redistribution_respected() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                // OSPF→RIP redistribution only: RIP hears OSPF routes but
                // OSPF hears nothing from RIP.
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Ethernet0\n ip address 10.2.0.1 255.255.255.0\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n\
                 router rip\n network 10.2.0.0\n redistribute ospf 1\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (inst, graph) = build(&net);
        // Router 1 runs only OSPF: its pathway must not include RIP.
        let pathway = PathwayGraph::trace(RouterId(1), &inst, &graph);
        let kinds: Vec<_> = pathway
            .instances()
            .iter()
            .map(|id| inst.get(*id).kind)
            .collect();
        assert!(!kinds.contains(&crate::ProtoKind::Rip));
    }
}

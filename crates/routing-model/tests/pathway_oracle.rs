//! Random-graph oracle for the dense pathway index.
//!
//! Instance graphs are built directly (no configs), with the shapes the
//! index must count exactly: redistribution cycles, parallel
//! redistribution edges on one pair with interleaved policies, EBGP and
//! IGP self-loops, external AS and external-world nodes, isolated
//! instances, and routers in zero or several instances. For every
//! router, `PathwayIndex::summaries` must equal the four numbers read off
//! `trace`, and `trace` must equal — field for field — the reference
//! trace below: a backward BFS over a `BTreeMap` adjacency that sorts and
//! dedups the full edge list.

use std::collections::{BTreeMap, VecDeque};

use nettopo::RouterId;
use rd_rng::StdRng;
use routing_model::{
    ExchangeKind, InstanceEdge, InstanceGraph, InstanceId, InstanceNode, Instances, PathwayGraph,
    PathwayIndex, PathwayNode, PathwaySummary, ProtoKind, RoutingInstance,
};

/// The reference trace: the straightforward map-based BFS.
fn reference_trace(router: RouterId, instances: &Instances, graph: &InstanceGraph) -> PathwayGraph {
    let mut backward: BTreeMap<InstanceNode, Vec<(InstanceNode, Option<String>)>> = BTreeMap::new();
    for e in &graph.edges {
        match &e.kind {
            ExchangeKind::Redistribution { policy, .. } => {
                backward
                    .entry(e.to)
                    .or_default()
                    .push((e.from, policy.clone()));
            }
            ExchangeKind::Ebgp { .. } | ExchangeKind::IgpEdge { .. } => {
                backward.entry(e.to).or_default().push((e.from, None));
                backward.entry(e.from).or_default().push((e.to, None));
            }
        }
    }
    let mut depths: BTreeMap<InstanceNode, usize> = BTreeMap::new();
    let mut edges = Vec::new();
    let mut queue = VecDeque::new();
    for inst in &instances.list {
        if inst.routers.contains(&router) {
            let node = InstanceNode::Instance(inst.id);
            depths.insert(node, 0);
            queue.push_back(node);
        }
    }
    while let Some(current) = queue.pop_front() {
        let depth = depths[&current];
        let Some(incoming) = backward.get(&current) else {
            continue;
        };
        for (source, policy) in incoming {
            edges.push((*source, current, policy.clone()));
            if !depths.contains_key(source) {
                depths.insert(*source, depth + 1);
                queue.push_back(*source);
            }
        }
    }
    let mut nodes: Vec<PathwayNode> = depths
        .into_iter()
        .map(|(node, depth)| PathwayNode { node, depth })
        .collect();
    nodes.sort_by_key(|n| (n.depth, n.node));
    edges.sort_by_key(|(a, b, _)| (*a, *b));
    edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && a.2 == b.2);
    PathwayGraph {
        router,
        nodes,
        edges,
    }
}

/// The four numbers `/pathways` reports, read off a full trace.
fn summary_of(p: &PathwayGraph) -> PathwaySummary {
    PathwaySummary {
        max_depth: p.max_depth(),
        reaches_external_world: p.reaches_external_world(),
        nodes: p.nodes.len(),
        edges: p.edges.len(),
    }
}

const POLICIES: [Option<&str>; 3] = [None, Some("route-map p1"), Some("route-map p2, tag 7")];

fn policy(rng: &mut StdRng) -> Option<String> {
    POLICIES[rng.gen_range(0..POLICIES.len())].map(str::to_string)
}

fn redistribution(from: InstanceNode, to: InstanceNode, policy: Option<String>) -> InstanceEdge {
    InstanceEdge {
        from,
        to,
        kind: ExchangeKind::Redistribution {
            router: RouterId(0),
            policy,
        },
    }
}

/// One random network: its instances, instance graph and router count.
fn random_network(rng: &mut StdRng) -> (Instances, InstanceGraph, usize) {
    let instance_count = rng.gen_range(0..14usize);
    let routers = rng.gen_range(0..12usize);
    let list: Vec<RoutingInstance> = (0..instance_count)
        .map(|i| {
            // Each router joins with probability 1/4: some join none,
            // some several, and some instances have no router at all.
            let members: Vec<RouterId> = (0..routers)
                .filter(|_| rng.gen_ratio(1, 4))
                .map(RouterId)
                .collect();
            RoutingInstance {
                id: InstanceId(i),
                kind: ProtoKind::Ospf,
                asn: None,
                processes: Vec::new(),
                routers: members,
            }
        })
        .collect();

    let mut nodes: Vec<InstanceNode> = (0..instance_count)
        .map(|i| InstanceNode::Instance(InstanceId(i)))
        .collect();
    let external_ases = rng.gen_range(0..4u32);
    nodes.extend((0..external_ases).map(|k| InstanceNode::ExternalAs(7000 + k)));
    if rng.gen_bool(0.5) {
        nodes.push(InstanceNode::ExternalWorld);
    }

    let mut edges = Vec::new();
    if !nodes.is_empty() {
        let pick = |rng: &mut StdRng| nodes[rng.gen_range(0..nodes.len())];
        for _ in 0..rng.gen_range(0..3 * nodes.len() + 1) {
            let (from, to) = (pick(rng), pick(rng));
            let kind = match rng.gen_range(0..6u32) {
                0..=2 => ExchangeKind::Redistribution {
                    router: RouterId(0),
                    policy: policy(rng),
                },
                3 | 4 => ExchangeKind::Ebgp {
                    router: RouterId(0),
                },
                _ => ExchangeKind::IgpEdge {
                    router: RouterId(0),
                },
            };
            edges.push(InstanceEdge { from, to, kind });
        }
        // Parallel redistributors on one pair with interleaved policies.
        if rng.gen_bool(0.5) {
            let (from, to) = (pick(rng), pick(rng));
            for p in [POLICIES[1], POLICIES[2], POLICIES[1]] {
                edges.push(redistribution(from, to, p.map(str::to_string)));
            }
        }
        // Exchange self-loops.
        if rng.gen_bool(0.3) {
            let node = pick(rng);
            edges.push(InstanceEdge {
                from: node,
                to: node,
                kind: ExchangeKind::Ebgp {
                    router: RouterId(0),
                },
            });
        }
        if rng.gen_bool(0.3) {
            let node = pick(rng);
            edges.push(InstanceEdge {
                from: node,
                to: node,
                kind: ExchangeKind::IgpEdge {
                    router: RouterId(0),
                },
            });
        }
        // A redistribution cycle through up to four nodes.
        if rng.gen_bool(0.5) {
            let ring: Vec<InstanceNode> =
                (0..rng.gen_range(2..5usize)).map(|_| pick(rng)).collect();
            for (i, from) in ring.iter().enumerate() {
                edges.push(redistribution(
                    *from,
                    ring[(i + 1) % ring.len()],
                    policy(rng),
                ));
            }
        }
    }
    (
        Instances::from_list(list),
        InstanceGraph { nodes, edges },
        routers,
    )
}

#[test]
fn dense_index_matches_the_map_trace_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x9a7b_3e11);
    let (mut routers_checked, mut edges_seen) = (0usize, 0usize);
    for graph_no in 0..300 {
        let (instances, graph, routers) = random_network(&mut rng);
        let index = PathwayIndex::new(&instances, &graph);
        // Two routers past the last one: their seeds are empty.
        let summaries = index.summaries(routers + 2);
        for (r, summary) in summaries.iter().enumerate() {
            let router = RouterId(r);
            let trace = index.trace(router);
            let reference = reference_trace(router, &instances, &graph);
            assert_eq!(trace.router, router);
            assert_eq!(
                trace.nodes, reference.nodes,
                "graph {graph_no}, router {r}: nodes"
            );
            assert_eq!(
                trace.edges, reference.edges,
                "graph {graph_no}, router {r}: edges"
            );
            assert_eq!(
                *summary,
                summary_of(&trace),
                "graph {graph_no}, router {r}: summary"
            );
            let one_shot = PathwayGraph::trace(router, &instances, &graph);
            assert_eq!((one_shot.nodes, one_shot.edges), (trace.nodes, trace.edges));
            routers_checked += 1;
            edges_seen += summary.edges;
        }
    }
    // The generator must actually produce non-trivial pathways.
    assert!(routers_checked > 1500, "{routers_checked} routers");
    assert!(edges_seen > 5000, "{edges_seen} pathway edges");
}

/// The counting rules spelled out on one hand-built graph: interleaved
/// policies on one pair count once each, a self-loop counts once, and
/// `max_depth` is the shortest distance, not the longest path.
#[test]
fn edge_weights_and_depths_follow_the_trace_rules() {
    let i = |k| InstanceNode::Instance(InstanceId(k));
    let p = |s: &str| Some(s.to_string());
    let instances = Instances::from_list(
        (0..3)
            .map(|k| RoutingInstance {
                id: InstanceId(k),
                kind: ProtoKind::Ospf,
                asn: None,
                processes: Vec::new(),
                routers: if k == 0 {
                    vec![RouterId(0)]
                } else {
                    Vec::new()
                },
            })
            .collect(),
    );
    let graph = InstanceGraph {
        nodes: vec![i(0), i(1), i(2), InstanceNode::ExternalWorld],
        edges: vec![
            redistribution(i(1), i(0), p("route-map p1")),
            redistribution(i(1), i(0), p("route-map p2")),
            redistribution(i(1), i(0), p("route-map p1")),
            redistribution(i(1), i(0), p("route-map p1")),
            InstanceEdge {
                from: i(1),
                to: i(1),
                kind: ExchangeKind::Ebgp {
                    router: RouterId(0),
                },
            },
            // 2 → 1 → 0 and a direct 2 → 0: instance 2 sits at depth 1.
            redistribution(i(2), i(1), None),
            redistribution(i(2), i(0), None),
            InstanceEdge {
                from: i(2),
                to: InstanceNode::ExternalWorld,
                kind: ExchangeKind::IgpEdge {
                    router: RouterId(0),
                },
            },
        ],
    };
    let index = PathwayIndex::new(&instances, &graph);
    let summary = index.summaries(1)[0];
    // Into 0: p1, p2, p1 from 1 (the repeated p1 collapses) + one from 2.
    // Into 1: the self-loop once + one from 2. Into 2: the external world.
    // Into the external world: 2 (the IGP edge's other direction).
    assert_eq!(summary.edges, 4 + 2 + 1 + 1);
    assert_eq!(summary.nodes, 4);
    assert_eq!(summary.max_depth, 2);
    assert!(summary.reaches_external_world);
    assert_eq!(summary, summary_of(&index.trace(RouterId(0))));
}

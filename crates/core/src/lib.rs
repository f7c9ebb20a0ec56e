//! Reverse engineering of routing designs from router configurations —
//! a from-scratch reproduction of *Routing Design in Operational
//! Networks: A Look from the Inside* (SIGCOMM 2004).
//!
//! This crate is the public face of the toolchain: point it at a directory
//! of Cisco-IOS-style configuration files (or in-memory texts) and it
//! derives the paper's four abstractions plus every aggregate analysis:
//!
//! ```
//! use routing_design::NetworkAnalysis;
//!
//! let configs = vec![
//!     ("config1".to_string(), "\
//! hostname border
//! interface Serial0
//!  ip address 192.0.2.1 255.255.255.252
//! interface Serial1
//!  ip address 10.0.0.1 255.255.255.252
//! router ospf 1
//!  network 10.0.0.0 0.0.255.255 area 0
//!  redistribute bgp 65001 subnets
//! router bgp 65001
//!  neighbor 192.0.2.2 remote-as 7018
//! ".to_string()),
//!     ("config2".to_string(), "\
//! hostname core
//! interface Serial0
//!  ip address 10.0.0.2 255.255.255.252
//! router ospf 1
//!  network 10.0.0.0 0.0.255.255 area 0
//! ".to_string()),
//! ];
//! let analysis = NetworkAnalysis::from_texts(configs).unwrap();
//! assert_eq!(analysis.instances.len(), 2); // one OSPF + one BGP instance
//! assert_eq!(
//!     analysis.design.class,
//!     routing_design::DesignClass::Enterprise
//! );
//! ```
//!
//! The [`report`] module renders the paper's tables and figures
//! (Table 1/2/3, Figures 4/8/11, the Section 7 classification) from one
//! or many analyzed networks; the `netgen` crate regenerates the paper's
//! 31-network population to feed them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod diff;
pub mod incremental;
pub mod layout;
pub mod plan;
pub mod report;
pub mod snapshot;
pub mod watch;

use std::path::Path;

pub use ioscfg::{parse_config, RouterConfig};
pub use netaddr::{Addr, BlockTree, Prefix, PrefixSet};
pub use nettopo::{
    error_budget, Coverage, ExternalAnalysis, IfaceClass, LinkMap, LoadError, Network,
    Router, RouterGraph, RouterId,
};
pub use audit::{audit, Finding, FindingKind};
pub use diff::DesignDiff;
pub use reachability::{ReachAnalysis, RouteFilter, TaggedRoutes};
pub use routing_model::{
    classify_network, AreaStructure, Adjacencies, DesignClass, DesignSummary,
    IbgpMesh, InstanceGraph, InstanceId, InstanceNode, Instances, PathwayGraph,
    ProcKey, Processes, Proto, ProtoKind, ProcessGraph, SessionScope, Table1,
};
pub use rd_obs::{Diagnostic, Diagnostics, Severity};
pub use rd_par::{StageTimings, Stopwatch};

/// The complete static analysis of one network: every abstraction the
/// paper derives, computed in dependency order from the parsed configs.
pub struct NetworkAnalysis {
    /// The parsed configurations.
    pub network: Network,
    /// Inferred logical links (Section 2.1).
    pub links: LinkMap,
    /// Internal/external classification (Section 5.2).
    pub external: ExternalAnalysis,
    /// Routing processes.
    pub processes: Processes,
    /// IGP adjacencies and BGP sessions (Section 2.2).
    pub adjacencies: Adjacencies,
    /// Routing instances (Section 3.2).
    pub instances: Instances,
    /// The routing instance graph.
    pub instance_graph: InstanceGraph,
    /// The routing process graph (Section 3.1).
    pub process_graph: ProcessGraph,
    /// Recovered address-space structure (Section 3.4).
    pub blocks: BlockTree,
    /// Intra/inter role counts (Table 1).
    pub table1: Table1,
    /// Design classification (Section 7).
    pub design: DesignSummary,
    /// Everything the pipeline could not vouch for, end to end: parse
    /// diagnostics (unknown stanzas, dangling policy references), topology
    /// hints (possible missing routers), and design smells (inert
    /// redistribution, missing backbone area, neighborless BGP). See
    /// `rdx <dir> diag`.
    pub diagnostics: Diagnostics,
    /// Wall-clock time of every pipeline stage of this analysis (and of
    /// the parse, when loaded through [`from_texts`] or [`from_dir`]).
    /// See `rdx --timings` and `repro --bench`.
    pub timings: StageTimings,
    /// Raw-byte FNV-1a-64 hash of every input config file, in input
    /// order — what the [`incremental`] delta engine compares to decide
    /// whether this analysis is still current. Populated by the
    /// byte-level loaders ([`from_bytes_list`], [`from_dir`],
    /// [`from_texts`]); empty when built from an already-parsed
    /// [`Network`] whose raw bytes never existed.
    ///
    /// [`from_bytes_list`]: NetworkAnalysis::from_bytes_list
    /// [`from_dir`]: NetworkAnalysis::from_dir
    /// [`from_texts`]: NetworkAnalysis::from_texts
    pub file_hashes: Vec<(String, u64)>,
}

impl NetworkAnalysis {
    /// Analyzes a network already parsed into a [`Network`].
    pub fn from_network(network: Network) -> NetworkAnalysis {
        let _span = rd_obs::trace::span(
            "analyze",
            &[("routers", network.len().into())],
        );
        // Each stage runs under a profile span sharing the stage-timing
        // name, so a folded profile's root stacks are exactly the
        // StageTimings vocabulary.
        let mut sw = Stopwatch::start();
        let links = sw.stage("links", || LinkMap::build(&network));
        let external = sw.stage("external", || ExternalAnalysis::build(&network, &links));
        let processes = sw.stage("processes", || Processes::extract(&network));
        let adjacencies =
            sw.stage("adjacencies", || Adjacencies::build(&network, &links, &processes, &external));
        let instances = sw.stage("instances", || Instances::compute(&processes, &adjacencies));
        let (instance_graph, process_graph) = sw.stage("graphs", || {
            (
                InstanceGraph::build(&network, &processes, &adjacencies, &instances),
                ProcessGraph::build(&network, &processes, &adjacencies),
            )
        });
        let blocks = sw.stage("blocks", || network.address_blocks());
        let (table1, design) = sw.stage("classify", || {
            let table1 = Table1::compute(&instances, &instance_graph, &adjacencies);
            let design =
                classify_network(&network, &instances, &instance_graph, &adjacencies, &table1);
            (table1, design)
        });

        // Fold the whole pipeline's diagnostics into one channel: parse
        // level, then topology hints, then design smells.
        let diagnostics = sw.stage("diagnose", || {
            let mut diagnostics = network.diagnostics.clone();
            for hint in &external.missing_router_hints {
                let router = network.router(hint.iface.router);
                diagnostics.push(Diagnostic {
                    file: router.file_name.clone(),
                    line: 0,
                    severity: Severity::Warning,
                    code: "possible-missing-router",
                    message: format!(
                        "interface {} ({}) is external-facing inside internal block {} — \
                         a router configuration may be missing from the data set",
                        router.config.interfaces[hint.iface.iface].name,
                        hint.subnet,
                        hint.block,
                    ),
                });
            }
            diagnostics
                .extend(routing_model::design_diagnostics(&network, &processes, &instances));
            diagnostics
        });

        rd_obs::metrics::counter_add("instances.count", instances.len() as u64);
        rd_obs::metrics::counter_add("links.count", links.links.len() as u64);
        let (errors, warnings, _) = diagnostics.counts();
        rd_obs::metrics::counter_add("diag.errors", errors as u64);
        rd_obs::metrics::counter_add("diag.warnings", warnings as u64);
        rd_obs::metrics::record_peak_rss("analyze");
        rd_obs::trace::event(
            "analyze.done",
            &[
                ("routers", network.len().into()),
                ("instances", instances.len().into()),
                ("diagnostics", diagnostics.len().into()),
            ],
        );

        NetworkAnalysis {
            network,
            links,
            external,
            processes,
            adjacencies,
            instances,
            instance_graph,
            process_graph,
            blocks,
            table1,
            design,
            diagnostics,
            timings: sw.finish(),
            file_hashes: Vec::new(),
        }
    }

    /// Parses and analyzes `(file_name, text)` pairs. The parse itself is
    /// recorded as the `"parse"` stage in [`timings`](NetworkAnalysis::timings).
    pub fn from_texts<I>(texts: I) -> Result<NetworkAnalysis, LoadError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        Ok(NetworkAnalysis::from_bytes_list(
            texts.into_iter().map(|(name, text)| (name, text.into_bytes())).collect(),
        ))
    }

    /// Parses and analyzes `(file_name, bytes)` pairs. Unlike
    /// [`from_texts`](NetworkAnalysis::from_texts) this path is infallible:
    /// unreadable files (non-UTF-8, empty, unparseable) are quarantined into
    /// per-file error diagnostics and recorded in the network's
    /// [`Coverage`](nettopo::Coverage), and the analysis proceeds with the
    /// surviving routers.
    pub fn from_bytes_list(files: Vec<(String, Vec<u8>)>) -> NetworkAnalysis {
        let started = std::time::Instant::now();
        let file_hashes: Vec<(String, u64)> = files
            .iter()
            .map(|(name, bytes)| (name.clone(), rd_snap::fnv1a64(bytes)))
            .collect();
        let network = {
            let _span = rd_obs::span!("parse");
            Network::from_bytes_list(files)
        };
        let parse_time = started.elapsed();
        rd_obs::metrics::record_peak_rss("parse");
        let mut analysis = NetworkAnalysis::from_network(network);
        analysis.timings.prepend("parse", parse_time);
        analysis.file_hashes = file_hashes;
        analysis
    }

    /// True when at least one input file was quarantined during parsing,
    /// i.e. the analysis covers only a subset of the corpus.
    pub fn degraded(&self) -> bool {
        self.network.coverage.degraded()
    }

    /// Loads and analyzes one network directory: its config files as
    /// [`layout::list_configs`] defines them, in path order. Parsing is
    /// recorded as the `"parse"` stage.
    pub fn from_dir(dir: &Path) -> Result<NetworkAnalysis, LoadError> {
        let files = layout::read_configs(&layout::list_configs(dir)?)?;
        Ok(NetworkAnalysis::from_bytes_list(files))
    }

    /// The route pathway graph for one router (Section 3.3).
    pub fn pathway(&self, router: RouterId) -> PathwayGraph {
        PathwayGraph::trace(router, &self.instances, &self.instance_graph)
    }

    /// IBGP mesh structure of every BGP instance (Section 7.1's
    /// "completeness of the IBGP mesh" dimension).
    pub fn ibgp_meshes(&self) -> Vec<IbgpMesh> {
        routing_model::ibgp_meshes(&self.network, &self.instances, &self.adjacencies)
    }

    /// OSPF area structure of every OSPF instance.
    pub fn area_structures(&self) -> Vec<AreaStructure> {
        routing_model::area_structures(&self.network, &self.processes, &self.instances)
    }

    /// Destination prefixes that several routers point static routes at —
    /// the Section 8.1 maintenance-planning concern ("avoid disabling
    /// multiple routers with static routes to the same destination
    /// prefix").
    pub fn shared_static_destinations(&self) -> Vec<(Prefix, Vec<RouterId>)> {
        let mut by_dest: std::collections::BTreeMap<Prefix, Vec<RouterId>> =
            Default::default();
        for (rid, router) in self.network.iter() {
            let mut seen: std::collections::BTreeSet<Prefix> = Default::default();
            for sr in &router.config.static_routes {
                if seen.insert(sr.prefix()) {
                    by_dest.entry(sr.prefix()).or_default().push(rid);
                }
            }
        }
        by_dest.retain(|_, routers| routers.len() > 1);
        by_dest.into_iter().collect()
    }

    /// A reachability analysis over this network (Section 6.2).
    pub fn reachability(&self) -> ReachAnalysis<'_> {
        ReachAnalysis::new(&self.network, &self.processes, &self.adjacencies, &self.instances)
    }

    /// Minimum routers whose failure separates two instances (the net5
    /// question from Section 5.1), or `None` if they cannot be separated.
    pub fn instance_separation(&self, a: InstanceId, b: InstanceId) -> Option<usize> {
        let graph = RouterGraph::build(&self.network, &self.links);
        let sources = self.instances.get(a).routers.iter().copied().collect();
        let sinks = self.instances.get(b).routers.iter().copied().collect();
        graph.min_router_cut(&sources, &sinks)
    }

    /// DOT rendering of the instance graph (Figure 6/9 style).
    pub fn instance_graph_dot(&self) -> String {
        routing_model::render::instance_graph_dot(&self.instances, &self.instance_graph)
    }

    /// Text rendering of the instance graph.
    pub fn instance_graph_text(&self) -> String {
        routing_model::render::instance_graph_text(&self.instances, &self.instance_graph)
    }

    /// DOT rendering of the process graph (Figure 5 style).
    pub fn process_graph_dot(&self) -> String {
        routing_model::render::process_graph_dot(&self.network, &self.process_graph)
    }

    /// Text rendering of a router's pathway graph (Figure 7/10 style).
    pub fn pathway_text(&self, router: RouterId) -> String {
        routing_model::render::pathway_text(&self.pathway(router), &self.instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enterprise_texts() -> Vec<(String, String)> {
        vec![
            (
                "config1".to_string(),
                "hostname border\n\
                 interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                    .to_string(),
            ),
            (
                "config2".to_string(),
                "hostname core\n\
                 interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .to_string(),
            ),
        ]
    }

    #[test]
    fn full_pipeline_smoke() {
        let a = NetworkAnalysis::from_texts(enterprise_texts()).unwrap();
        assert_eq!(a.network.len(), 2);
        assert_eq!(a.instances.len(), 2);
        assert_eq!(a.design.class, DesignClass::Enterprise);
        assert!(a.instance_graph_dot().contains("AS7018"));
        assert!(a.process_graph_dot().contains("digraph"));
        assert!(a.pathway_text(RouterId(1)).contains("Router RIB"));
        assert!(!a.blocks.is_empty());
    }

    #[test]
    fn instance_separation_simple() {
        // border is the only path between the OSPF instance and the BGP
        // instance — but they share the border router, so separation is
        // impossible (None).
        let a = NetworkAnalysis::from_texts(enterprise_texts()).unwrap();
        let ospf = a.instances.list.iter().find(|i| i.asn.is_none()).unwrap().id;
        let bgp = a.instances.list.iter().find(|i| i.asn.is_some()).unwrap().id;
        assert_eq!(a.instance_separation(ospf, bgp), None);
    }

    #[test]
    fn reachability_accessor_works() {
        let a = NetworkAnalysis::from_texts(enterprise_texts()).unwrap();
        let reach = a.reachability();
        // Unfiltered upstream: the default route can enter.
        let ospf = a.instances.list.iter().find(|i| i.asn.is_none()).unwrap().id;
        let external = reach.external_routes_entering(ospf);
        assert!(external.covers_prefix(Prefix::DEFAULT));
    }
}

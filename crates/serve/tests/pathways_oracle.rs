//! `/pathways` summarizes every router's pathway without materializing
//! it. On the generated small study (31 networks, every design), the
//! served body must equal one assembled from a full per-router
//! `PathwayGraph::trace`.

use nettopo::{ExternalAnalysis, LinkMap, Network, RouterId};
use rd_obs::json::escape;
use rd_snap::{Corpus, NetworkSnapshot};
use routing_model::{
    classify_network, Adjacencies, InstanceGraph, Instances, PathwayGraph, ProcessGraph,
    Processes, Table1,
};

/// Runs the analysis pipeline over one generated network.
fn snapshot(name: &str, texts: Vec<(String, String)>) -> NetworkSnapshot {
    let network = Network::from_texts(texts).expect("generated network parses");
    let links = LinkMap::build(&network);
    let external = ExternalAnalysis::build(&network, &links);
    let processes = Processes::extract(&network);
    let adjacencies = Adjacencies::build(&network, &links, &processes, &external);
    let instances = Instances::compute(&processes, &adjacencies);
    let instance_graph = InstanceGraph::build(&network, &processes, &adjacencies, &instances);
    let process_graph = ProcessGraph::build(&network, &processes, &adjacencies);
    let blocks = network.address_blocks();
    let table1 = Table1::compute(&instances, &instance_graph, &adjacencies);
    let design = classify_network(&network, &instances, &instance_graph, &adjacencies, &table1);
    let diagnostics = network.diagnostics.clone();
    NetworkSnapshot {
        name: name.to_string(),
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
        file_hashes: Vec::new(),
    }
}

/// The `/pathways` body built the slow way: one full trace per router.
fn traced_body(corpus: &Corpus) -> String {
    let mut rows = Vec::new();
    for n in &corpus.networks {
        for (idx, router) in n.network.routers.iter().enumerate() {
            let p = PathwayGraph::trace(RouterId(idx), &n.instances, &n.instance_graph);
            rows.push(format!(
                "    {{\"network\": \"{}\", \"router\": \"{}\", \"max_depth\": {}, \"reaches_external_world\": {}, \"nodes\": {}, \"edges\": {}}}",
                escape(&n.name),
                escape(router.name()),
                p.max_depth(),
                p.reaches_external_world(),
                p.nodes.len(),
                p.edges.len()
            ));
        }
    }
    format!("{{\n  \"pathways\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

#[test]
fn pathways_body_equals_per_router_traces_on_the_small_study() {
    let corpus = Corpus::new(
        netgen::study::generate_study(netgen::StudyScale::Small)
            .into_iter()
            .map(|g| snapshot(&g.spec.name, g.texts))
            .collect(),
    );
    assert_eq!(corpus.networks.len(), 31);
    let served = rd_serve::render::pathways(&corpus);
    let expected = traced_body(&corpus);
    assert!(expected.contains("\"reaches_external_world\": true"));
    assert!(expected.contains("\"max_depth\": 3"), "no three-layer pathway in the study");
    assert_eq!(served, expected);
}

//! JSON renderers over snapshot types.
//!
//! Every endpoint body is produced here, from `rd-snap` types only, with
//! strings escaped through `rd_obs::json`. The renderers are also used
//! directly by `rdx summary --json`, which is how verify.sh can diff a
//! served `/networks/{id}` body against a direct analysis run: both sides
//! call [`network_summary`] on structurally equal data.
//!
//! All output is deterministic: inputs are sorted (snapshot order is
//! canonical) and maps are `BTreeMap`s.

use rd_obs::json::escape;
use rd_snap::{Corpus, NetworkSnapshot};
use routing_model::PathwayIndex;

/// `/healthz`: readiness plus corpus size. `status` stays `"ok"` as long
/// as the server can answer from *some* snapshot (fresh or
/// stale-serving-last-good); only `degraded` — repeated analysis failures
/// under `rdx watch` — flips it (and the HTTP status to 503). `health`
/// carries the full state-machine word.
pub fn healthz(corpus: &Corpus, health: crate::HealthState) -> String {
    let status = match health {
        crate::HealthState::Degraded => "degraded",
        _ => "ok",
    };
    format!(
        "{{\"status\": \"{status}\", \"health\": \"{}\", \"networks\": {}}}\n",
        health.as_str(),
        corpus.networks.len()
    )
}

/// `/healthz?live=1`: pure liveness — a 200 whenever the event loop can
/// answer at all, independent of the health state machine. Startup waits
/// (verify.sh) and process supervisors key on this form.
pub fn healthz_live(corpus: &Corpus) -> String {
    format!("{{\"status\": \"live\", \"networks\": {}}}\n", corpus.networks.len())
}

/// `/networks`: one summary row per network.
pub fn networks_index(corpus: &Corpus) -> String {
    let rows: Vec<String> = corpus
        .networks
        .iter()
        .map(|n| {
            format!(
                "    {{\"name\": \"{}\", \"routers\": {}, \"links\": {}, \"instances\": {}, \"design\": \"{}\", \"degraded\": {}}}",
                escape(&n.name),
                n.network.routers.len(),
                n.links.links.len(),
                n.instances.list.len(),
                n.design.class,
                n.network.coverage.degraded(),
            )
        })
        .collect();
    format!("{{\n  \"networks\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// `/networks/{id}` — and the body of `rdx summary --json`.
pub fn network_summary(n: &NetworkSnapshot) -> String {
    let d = &n.design;
    let (errors, warnings, infos) = n.diagnostics.counts();
    let igp_rows: Vec<String> = n
        .table1
        .igp_instances
        .iter()
        .map(|(label, c)| {
            format!(
                "      \"{}\": {{\"intra\": {}, \"inter\": {}}}",
                escape(label),
                c.intra,
                c.inter
            )
        })
        .collect();
    let instance_rows: Vec<String> = n
        .instances
        .list
        .iter()
        .map(|i| {
            let asn = match i.asn {
                Some(a) => a.to_string(),
                None => "null".to_string(),
            };
            format!(
                "      {{\"id\": {}, \"kind\": \"{}\", \"asn\": {asn}, \"routers\": {}, \"processes\": {}}}",
                i.id.0,
                i.kind,
                i.routers.len(),
                i.processes.len()
            )
        })
        .collect();
    let quarantined: Vec<String> = n
        .network
        .coverage
        .quarantined
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    format!(
        "{{\n  \"name\": \"{name}\",\n  \"routers\": {routers},\n  \"links\": {links},\n  \"external_subnets\": {ext},\n  \"processes\": {procs},\n  \"address_blocks\": {blocks},\n  \"design\": {{\n    \"class\": \"{class}\",\n    \"bgp_speakers\": {bgp_speakers},\n    \"internal_ases\": {internal_ases},\n    \"ibgp_sessions\": {ibgp},\n    \"external_ebgp_sessions\": {eext},\n    \"internal_ebgp_sessions\": {eint},\n    \"igp_instances\": {igp},\n    \"staging_instances\": {staging},\n    \"bgp_into_igp\": {bgp_into_igp},\n    \"total_instances\": {total}\n  }},\n  \"table1\": {{\n    \"igp_instances\": {{\n{igp_rows}\n    }},\n    \"ebgp_sessions\": {{\"intra\": {ebgp_intra}, \"inter\": {ebgp_inter}}},\n    \"ibgp_sessions\": {t1_ibgp}\n  }},\n  \"instances\": [\n{instance_rows}\n  ],\n  \"diagnostics\": {{\"errors\": {errors}, \"warnings\": {warnings}, \"infos\": {infos}}},\n  \"coverage\": {{\"files\": {cov_files}, \"parsed\": {cov_parsed}, \"quarantined\": [{cov_quarantined}]}},\n  \"degraded\": {degraded}\n}}\n",
        name = escape(&n.name),
        routers = n.network.routers.len(),
        links = n.links.links.len(),
        ext = n.external.external_subnets.len(),
        procs = n.processes.list.len(),
        blocks = n.blocks.len(),
        class = d.class,
        bgp_speakers = d.bgp_speakers,
        internal_ases = d.internal_ases,
        ibgp = d.ibgp_sessions,
        eext = d.external_ebgp_sessions,
        eint = d.internal_ebgp_sessions,
        igp = d.igp_instances,
        staging = d.staging_instances,
        bgp_into_igp = d.bgp_into_igp,
        total = d.total_instances,
        igp_rows = igp_rows.join(",\n"),
        ebgp_intra = n.table1.ebgp_sessions.intra,
        ebgp_inter = n.table1.ebgp_sessions.inter,
        t1_ibgp = n.table1.ibgp_sessions,
        instance_rows = instance_rows.join(",\n"),
        cov_files = n.network.coverage.total_files,
        cov_parsed = n.network.coverage.parsed(),
        cov_quarantined = quarantined.join(", "),
        degraded = n.network.coverage.degraded(),
    )
}

/// `/networks/{id}/processes`: every routing process of one network.
pub fn network_processes(n: &NetworkSnapshot) -> String {
    let rows: Vec<String> = n
        .processes
        .list
        .iter()
        .map(|p| {
            let router = n
                .network
                .routers
                .get(p.key.router.0)
                .map(|r| r.name().to_string())
                .unwrap_or_else(|| p.key.router.to_string());
            format!(
                "    {{\"key\": \"{}\", \"router\": \"{}\", \"proto\": \"{}\", \"covered_ifaces\": {}, \"passive_ifaces\": {}, \"redistributes\": {}}}",
                escape(&p.key.to_string()),
                escape(&router),
                p.key.proto,
                p.covered_ifaces.len(),
                p.passive_ifaces.len(),
                p.redistributes.len()
            )
        })
        .collect();
    format!(
        "{{\n  \"network\": \"{}\",\n  \"processes\": [\n{}\n  ]\n}}\n",
        escape(&n.name),
        rows.join(",\n")
    )
}

/// `/instances`: routing instances across the whole corpus.
pub fn instances(corpus: &Corpus) -> String {
    let mut rows = Vec::new();
    for n in &corpus.networks {
        for i in &n.instances.list {
            let asn = match i.asn {
                Some(a) => a.to_string(),
                None => "null".to_string(),
            };
            rows.push(format!(
                "    {{\"network\": \"{}\", \"id\": {}, \"kind\": \"{}\", \"asn\": {asn}, \"routers\": {}, \"processes\": {}}}",
                escape(&n.name),
                i.id.0,
                i.kind,
                i.routers.len(),
                i.processes.len()
            ));
        }
    }
    format!("{{\n  \"instances\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// `/pathways`: per-router route pathway depth summaries (Section 3.3).
pub fn pathways(corpus: &Corpus) -> String {
    let mut rows = Vec::new();
    for n in &corpus.networks {
        let index = PathwayIndex::new(&n.instances, &n.instance_graph);
        let summaries = index.summaries(n.network.routers.len());
        for (router, s) in n.network.routers.iter().zip(summaries) {
            rows.push(format!(
                "    {{\"network\": \"{}\", \"router\": \"{}\", \"max_depth\": {}, \"reaches_external_world\": {}, \"nodes\": {}, \"edges\": {}}}",
                escape(&n.name),
                escape(router.name()),
                s.max_depth,
                s.reaches_external_world,
                s.nodes,
                s.edges
            ));
        }
    }
    format!("{{\n  \"pathways\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// `/diag`: every pipeline diagnostic across the corpus.
pub fn diag(corpus: &Corpus) -> String {
    let mut rows = Vec::new();
    for n in &corpus.networks {
        for d in n.diagnostics.iter() {
            rows.push(format!(
                "    {{\"network\": \"{}\", \"file\": \"{}\", \"line\": {}, \"severity\": \"{}\", \"code\": \"{}\", \"message\": \"{}\"}}",
                escape(&n.name),
                escape(&d.file),
                d.line,
                d.severity,
                escape(d.code),
                escape(&d.message)
            ));
        }
    }
    format!("{{\n  \"diagnostics\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

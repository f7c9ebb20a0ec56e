//! Shared harness code for the `repro` binary: study generation and
//! analysis helpers, the offline bench mode ([`timing`]) and the HTTP load
//! generator ([`loadgen`]).

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod timing;

use netgen::{study_roster, StudyScale};
use routing_design::report::StudyNetwork;
use routing_design::NetworkAnalysis;

/// Generates and fully analyzes the whole study at the given scale.
///
/// The per-network generate + analyze pipeline fans out across
/// `RD_THREADS` workers (see [`rd_par::thread_count`]); each network owns
/// its generator seed, so the results are identical at any thread count
/// and come back in roster order.
pub fn analyzed_study(scale: StudyScale) -> Vec<StudyNetwork> {
    let roster = study_roster(scale);
    rd_par::par_map(&roster, |_, spec| {
        let generated = netgen::study::generate_network(spec, scale);
        StudyNetwork {
            name: spec.name.clone(),
            analysis: NetworkAnalysis::from_bytes_list(
                generated.texts.into_iter().map(|(n, t)| (n, t.into_bytes())).collect(),
            ),
        }
    })
}

/// One network excluded from a chaos study run because its quarantined
/// fraction exceeded the error budget.
pub struct StudyDrop {
    /// Roster name of the dropped network.
    pub name: String,
    /// Config files the network was generated with.
    pub total_files: usize,
    /// How many of those files were quarantined after mutation.
    pub quarantined: usize,
}

/// Like [`analyzed_study`], but damages each network's corpus with one
/// seeded `rd-chaos` mutation before analysis — the degraded-pipeline
/// benchmark and test path (`repro --chaos <seed>`).
///
/// The mutation seed is derived from `(seed, roster index)`, never from
/// worker identity, so the damaged corpus — and every diagnostic it
/// produces — is byte-identical at any `RD_THREADS`. Returns the
/// surviving networks (possibly degraded, coverage intact) and the
/// networks dropped by [`nettopo::error_budget`].
pub fn chaos_study(scale: StudyScale, seed: u64) -> (Vec<StudyNetwork>, Vec<StudyDrop>) {
    let roster = study_roster(scale);
    let budget = nettopo::error_budget();
    let analyzed = rd_par::par_map(&roster, |index, spec| {
        let generated = netgen::study::generate_network(spec, scale);
        let mut files: Vec<(String, Vec<u8>)> =
            generated.texts.into_iter().map(|(n, t)| (n, t.into_bytes())).collect();
        let mut rng = rd_rng::StdRng::seed_from_u64(
            seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mutator = rd_chaos::CONFIG_MUTATORS[index % rd_chaos::CONFIG_MUTATORS.len()];
        if !files.is_empty() {
            let victim = rng.gen_range(0..files.len());
            match rd_chaos::mutate_config(&mut rng, mutator, &files[victim].1) {
                Some(bytes) => files[victim].1 = bytes,
                None => {
                    files.remove(victim);
                }
            }
        }
        StudyNetwork {
            name: spec.name.clone(),
            analysis: NetworkAnalysis::from_bytes_list(files),
        }
    });
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for sn in analyzed {
        let coverage = &sn.analysis.network.coverage;
        if coverage.over_budget(budget) {
            dropped.push(StudyDrop {
                name: sn.name.clone(),
                total_files: coverage.total_files,
                quarantined: coverage.quarantined.len(),
            });
        } else {
            kept.push(sn);
        }
    }
    (kept, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates the raw config texts of one roster entry by name.
    fn generate_named(name: &str, scale: StudyScale) -> Vec<(String, String)> {
        let roster = study_roster(scale);
        let spec = roster
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no roster entry named {name}"));
        netgen::study::generate_network(spec, scale).texts
    }

    /// Reference link inference: match every interface pair instead of
    /// hash-joining by subnet. Same count as `nettopo::LinkMap::build`,
    /// asymptotically worse.
    fn quadratic_link_join(net: &nettopo::Network) -> usize {
        let mut ifaces: Vec<(usize, netaddr::Prefix)> = Vec::new();
        for (rid, router) in net.iter() {
            for iface in &router.config.interfaces {
                if iface.shutdown {
                    continue;
                }
                for subnet in iface.subnets() {
                    if subnet.len() < 32 {
                        ifaces.push((rid.0, subnet));
                    }
                }
            }
        }
        let mut links = 0usize;
        for i in 0..ifaces.len() {
            let a = ifaces[i].1;
            // Count each shared subnet once, at its first occurrence.
            if ifaces[..i].iter().any(|(_, b)| *b == a) {
                continue;
            }
            if ifaces[i + 1..].iter().any(|(_, b)| *b == a) {
                links += 1;
            }
        }
        links
    }

    /// Reference instance computation: BFS closure instead of union-find.
    /// Returns the number of instances (same as `Instances::compute`).
    fn bfs_instance_closure(
        procs: &routing_design::Processes,
        adj: &routing_design::Adjacencies,
    ) -> usize {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};
        // Build adjacency lists over process indices.
        let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut add = |a: routing_design::ProcKey, b: routing_design::ProcKey| {
            let (Some(i), Some(j)) = (procs.position(a), procs.position(b)) else {
                return;
            };
            edges.entry(i).or_default().push(j);
            edges.entry(j).or_default().push(i);
        };
        for a in &adj.igp {
            add(a.a, a.b);
        }
        for s in &adj.bgp {
            if s.scope == routing_design::SessionScope::Ibgp {
                if let Some(peer) = s.peer {
                    add(s.local, peer);
                }
            }
        }
        // Flood fill.
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut instances = 0usize;
        for start in 0..procs.len() {
            if seen.contains(&start) {
                continue;
            }
            instances += 1;
            let mut queue = VecDeque::from([start]);
            seen.insert(start);
            while let Some(v) = queue.pop_front() {
                for &w in edges.get(&v).into_iter().flatten() {
                    if seen.insert(w) {
                        queue.push_back(w);
                    }
                }
            }
        }
        instances
    }

    #[test]
    fn ablations_agree_with_primary_implementations() {
        let texts = generate_named("net6", StudyScale::Small);
        let net = nettopo::Network::from_texts(texts).unwrap();
        let links = nettopo::LinkMap::build(&net);
        let shared = links.links.values().filter(|l| l.endpoints.len() >= 2).count();
        assert_eq!(quadratic_link_join(&net), shared);

        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_design::Processes::extract(&net);
        let adj = routing_design::Adjacencies::build(&net, &links, &procs, &external);
        let instances = routing_design::Instances::compute(&procs, &adj);
        assert_eq!(bfs_instance_closure(&procs, &adj), instances.len());
    }

    #[test]
    fn generate_named_finds_case_studies() {
        assert!(!generate_named("net5", StudyScale::Small).is_empty());
        assert!(!generate_named("net15", StudyScale::Small).is_empty());
    }
}

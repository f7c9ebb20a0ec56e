//! Bridging [`NetworkAnalysis`] to the `rd-snap` persistence layer.
//!
//! `rdx snap <dir> -o study.rdsnap` lands here: a config directory (one
//! network, or a study directory of `netN` subdirectories) is analyzed
//! once and serialized; [`restore`] turns a loaded snapshot back into a
//! [`NetworkAnalysis`] without invoking the IOS parser — stage timings
//! are the only field not carried over (the snapshot stores the analysis,
//! not the run that produced it).

use std::path::Path;

use rd_obs::Diagnostic;
use rd_snap::{Corpus, NetworkSnapshot};

use crate::layout::{read_configs, Layout};
use crate::{LoadError, NetworkAnalysis};

/// Converts a finished analysis into its snapshot form, named `name`.
pub fn capture(name: &str, analysis: NetworkAnalysis) -> NetworkSnapshot {
    NetworkSnapshot {
        name: name.to_string(),
        network: analysis.network,
        links: analysis.links,
        external: analysis.external,
        processes: analysis.processes,
        adjacencies: analysis.adjacencies,
        instances: analysis.instances,
        instance_graph: analysis.instance_graph,
        process_graph: analysis.process_graph,
        blocks: analysis.blocks,
        table1: analysis.table1,
        design: analysis.design,
        diagnostics: analysis.diagnostics,
        file_hashes: analysis.file_hashes,
    }
}

/// Like [`capture`], but clones out of a borrowed analysis — for callers
/// that still need the analysis afterwards (e.g. `rdx summary --json`,
/// which prints timings after rendering).
pub fn capture_ref(name: &str, analysis: &NetworkAnalysis) -> NetworkSnapshot {
    NetworkSnapshot {
        name: name.to_string(),
        network: analysis.network.clone(),
        links: analysis.links.clone(),
        external: analysis.external.clone(),
        processes: analysis.processes.clone(),
        adjacencies: analysis.adjacencies.clone(),
        instances: analysis.instances.clone(),
        instance_graph: analysis.instance_graph.clone(),
        process_graph: analysis.process_graph.clone(),
        blocks: analysis.blocks.clone(),
        table1: analysis.table1.clone(),
        design: analysis.design.clone(),
        diagnostics: analysis.diagnostics.clone(),
        file_hashes: analysis.file_hashes.clone(),
    }
}

/// Reconstitutes an analysis from a loaded snapshot. No parsing, no
/// recomputation: every derived product comes straight from the snapshot
/// (`timings` is empty — nothing ran).
pub fn restore(snap: NetworkSnapshot) -> NetworkAnalysis {
    NetworkAnalysis {
        network: snap.network,
        links: snap.links,
        external: snap.external,
        processes: snap.processes,
        adjacencies: snap.adjacencies,
        instances: snap.instances,
        instance_graph: snap.instance_graph,
        process_graph: snap.process_graph,
        blocks: snap.blocks,
        table1: snap.table1,
        design: snap.design,
        diagnostics: snap.diagnostics,
        timings: Default::default(),
        file_hashes: snap.file_hashes,
    }
}

/// One network excluded from a study: either its parse coverage exceeded
/// the error budget (see [`nettopo::error_budget`]) or its directory could
/// not be read at all.
pub struct DroppedNetwork {
    /// Directory basename of the network.
    pub name: String,
    /// Config files found under the network directory (0 when unreadable).
    pub total_files: usize,
    /// How many of those files were quarantined during parsing.
    pub quarantined: usize,
    /// Human-readable explanation of why the network was dropped.
    pub reason: String,
}

impl DroppedNetwork {
    /// A network whose directory could not be listed or read.
    pub(crate) fn unreadable(name: &str, error: &std::io::Error) -> DroppedNetwork {
        DroppedNetwork {
            name: name.to_string(),
            total_files: 0,
            quarantined: 0,
            // Worded as `LoadError::Io` displays, like every other
            // load failure `rdx` reports.
            reason: format!("network directory unreadable: i/o error: {error}"),
        }
    }

    /// `Some` when `snap`'s parse coverage exceeds the error `budget`.
    pub(crate) fn over_budget(snap: &NetworkSnapshot, budget: f64) -> Option<DroppedNetwork> {
        let coverage = &snap.network.coverage;
        coverage.over_budget(budget).then(|| DroppedNetwork {
            name: snap.name.clone(),
            total_files: coverage.total_files,
            quarantined: coverage.quarantined.len(),
            reason: format!(
                "{}/{} files quarantined exceeds error budget {:.0}%",
                coverage.quarantined.len(),
                coverage.total_files,
                budget * 100.0,
            ),
        })
    }
}

/// Result of snapshotting a directory: the corpus of surviving networks,
/// every network dropped by the error budget, and the layout's warnings.
/// A study run proceeds with the survivors; callers decide how loudly to
/// report the drops (`rdx snap` and `repro` exit non-zero when any
/// network was dropped).
pub struct SnapOutcome {
    /// Snapshots of the networks that stayed within the error budget.
    pub corpus: Corpus,
    /// Networks excluded from the corpus, in name order.
    pub dropped: Vec<DroppedNetwork>,
    /// One `stray-root-file` warning per plain file at a study root (see
    /// [`Layout::warnings`]); such files never change the network set.
    pub warnings: Vec<Diagnostic>,
}

/// Analyzes `dir` — one network, or a whole study directory of `netN`
/// subdirectories (analyzed in parallel with `rd-par`), as
/// [`Layout::scan`] decides — and returns the snapshot corpus plus any
/// networks dropped by the error budget. Network names are the directory
/// basenames. Only a read failure in single-network mode (or of `dir`
/// itself) is a hard error; per-network failures in a study degrade or
/// drop that network and the rest of the study proceeds.
pub fn snap_dir(dir: &Path) -> Result<SnapOutcome, LoadError> {
    let mut layout = Layout::scan(dir)?;
    let warnings = layout.warnings();
    if !layout.study {
        let unit = layout.units.remove(0);
        let files = read_configs(&unit.files?)?;
        let snap = capture(&unit.name, NetworkAnalysis::from_bytes_list(files));
        return Ok(SnapOutcome { corpus: Corpus::new(vec![snap]), dropped: Vec::new(), warnings });
    }
    let budget = nettopo::error_budget();
    let results = rd_par::par_map(&layout.units, |_, unit| {
        let files = unit.files.as_ref().map_err(|e| DroppedNetwork::unreadable(&unit.name, e))?;
        let files = read_configs(files).map_err(|e| DroppedNetwork::unreadable(&unit.name, &e))?;
        Ok(capture(&unit.name, NetworkAnalysis::from_bytes_list(files)))
    });
    let mut networks = Vec::new();
    let mut dropped = Vec::new();
    for result in results {
        match result {
            Ok(snap) => match DroppedNetwork::over_budget(&snap, budget) {
                Some(drop) => dropped.push(drop),
                None => networks.push(snap),
            },
            Err(drop) => dropped.push(drop),
        }
    }
    Ok(SnapOutcome { corpus: Corpus::new(networks), dropped, warnings })
}

//! Emitting the full study (31 networks, 8,035 configs) with `netgen`.

use std::io;
use std::path::{Path, PathBuf};

pub const NETWORKS: usize = 31;
pub const CONFIGS: usize = 8_035;

/// Writes every network of the full-scale roster to `dir/<net>/<config>`
/// and returns the config paths in a fixed order.
pub fn emit(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::with_capacity(CONFIGS);
    for spec in netgen::study_roster(netgen::StudyScale::Full) {
        let net_dir = dir.join(&spec.name);
        std::fs::create_dir_all(&net_dir)?;
        let generated = netgen::study::generate_network(&spec, netgen::StudyScale::Full);
        for (name, text) in &generated.texts {
            let path = net_dir.join(name);
            std::fs::write(&path, text)?;
            files.push(path);
        }
    }
    Ok(files)
}

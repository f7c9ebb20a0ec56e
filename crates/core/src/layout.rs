//! The corpus layout: the one definition of what a config directory
//! holds. Cold [`snap_dir`], the [`DeltaEngine`], the `rdx watch` scan
//! and the `rdx` subcommands all list directories through
//! [`Layout::scan`] or [`list_configs`], which own three rules:
//!
//! 1. **Study or single network.** A root is a study when at least one
//!    subdirectory holds a config file; every subdirectory is then a
//!    network (an empty one analyzes to zero routers). Plain files at
//!    the root never flip the mode: in a study they become
//!    `stray-root-file` warnings ([`Layout::warnings`]) and are never
//!    parsed.
//! 2. **What is a config file.** A regular file (symlinks followed).
//!    Names starting with `.` and the snapshot artifacts `*.rdsnap`,
//!    `*.tmp` and `*.quarantined` are skipped — files and directories
//!    alike, at the root and inside networks.
//! 3. **Order and stats.** Networks and files are sorted by path; each
//!    file carries `(name, size, mtime_nanos)` from a single stat.
//!
//! [`snap_dir`]: crate::snapshot::snap_dir
//! [`DeltaEngine`]: crate::incremental::DeltaEngine

use std::io;
use std::path::{Path, PathBuf};

use rd_obs::{Diagnostic, Severity};

/// Snapshot artifacts (last-good, staging, quarantined), never configs.
const ARTIFACT_SUFFIXES: [&str; 3] = [".rdsnap", ".tmp", ".quarantined"];

/// One config file, stated once at listing time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigFile {
    /// File name (lossy UTF-8), the key analyses and diagnostics use.
    pub name: String,
    /// Full path, for reading.
    pub path: PathBuf,
    /// Size in bytes.
    pub size: u64,
    /// Modification time in nanoseconds since the Unix epoch (0 when the
    /// platform cannot report it).
    pub mtime_nanos: u128,
}

/// One network of a corpus: a study subdirectory, or the root itself in
/// single-network mode.
#[derive(Debug)]
pub struct Unit {
    /// The directory basename (`"network"` when the path has none).
    pub name: String,
    /// The network directory.
    pub dir: PathBuf,
    /// The config files in path order, or the error that kept a study
    /// subdirectory from being listed (a single-network root that cannot
    /// be listed fails [`Layout::scan`] itself).
    pub files: io::Result<Vec<ConfigFile>>,
}

/// What a corpus root holds, per the three rules in the module docs.
#[derive(Debug)]
pub struct Layout {
    /// True for a study root (one unit per subdirectory); false when the
    /// root is itself the one and only unit.
    pub study: bool,
    /// The network units, sorted by path.
    pub units: Vec<Unit>,
    /// Names of plain files at a study root (empty for a single network),
    /// reported through [`Layout::warnings`].
    stray: Vec<String>,
}

impl Layout {
    /// Lists `root` once and decides its layout; subdirectories are
    /// listed in parallel. Fails only when `root` itself cannot be listed.
    pub fn scan(root: &Path) -> io::Result<Layout> {
        let (root_files, subdirs) = entries(root)?;
        let listed = rd_par::par_map(&subdirs, |_, dir| list_configs(dir));
        let units: Vec<Unit> = subdirs
            .into_iter()
            .zip(listed)
            .map(|(dir, files)| Unit { name: name_of(&dir), files, dir })
            .collect();
        if units.iter().any(|u| u.files.as_ref().is_ok_and(|f| !f.is_empty())) {
            let stray = root_files.into_iter().map(|f| f.name).collect();
            return Ok(Layout { study: true, units, stray });
        }
        let unit = Unit { name: name_of(root), dir: root.to_path_buf(), files: Ok(root_files) };
        Ok(Layout { study: false, units: vec![unit], stray: Vec::new() })
    }

    /// One `stray-root-file` warning per plain file at a study root, in
    /// name order.
    pub fn warnings(&self) -> Vec<Diagnostic> {
        self.stray
            .iter()
            .map(|name| Diagnostic {
                file: name.clone(),
                line: 0,
                severity: Severity::Warning,
                code: "stray-root-file",
                message: "plain file at a study root belongs to no network; not analyzed"
                    .to_string(),
            })
            .collect()
    }
}

/// The config files directly inside `dir`, in path order — `dir` read as
/// one network regardless of what else it holds.
pub fn list_configs(dir: &Path) -> io::Result<Vec<ConfigFile>> {
    entries(dir).map(|(files, _)| files)
}

/// Reads `files` as `(name, bytes)` pairs, in the given order.
pub fn read_configs(files: &[ConfigFile]) -> io::Result<Vec<(String, Vec<u8>)>> {
    files.iter().map(|f| Ok((f.name.clone(), std::fs::read(&f.path)?))).collect()
}

/// The config files and the subdirectories of `dir`, each sorted by
/// path, skip rules applied. One stat per entry (following symlinks)
/// decides its kind and supplies the file stats; an entry that cannot be
/// stated (a dangling symlink, a file removed mid-listing) is neither.
fn entries(dir: &Path) -> io::Result<(Vec<ConfigFile>, Vec<PathBuf>)> {
    let mut files = Vec::new();
    let mut subdirs = Vec::new();
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || ARTIFACT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        let path = entry.path();
        // `DirEntry::metadata` stats relative to the open directory but
        // does not follow symlinks; a symlink takes the path lookup.
        let meta = match entry.file_type() {
            Ok(t) if !t.is_symlink() => entry.metadata(),
            _ => std::fs::metadata(&path),
        };
        let Ok(meta) = meta else { continue };
        if meta.is_dir() {
            subdirs.push(path);
        } else if meta.is_file() {
            let mtime_nanos = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            files.push(ConfigFile { name, path, size: meta.len(), mtime_nanos });
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    subdirs.sort();
    Ok((files, subdirs))
}

fn name_of(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "network".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "rd-layout-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        fn write(&self, rel: &str, text: &str) {
            let path = self.0.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("dirs");
            std::fs::write(path, text).expect("write");
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn names(files: &[ConfigFile]) -> Vec<&str> {
        files.iter().map(|f| f.name.as_str()).collect()
    }

    fn unit_names(layout: &Layout) -> Vec<&str> {
        layout.units.iter().map(|u| u.name.as_str()).collect()
    }

    #[test]
    fn root_files_never_flip_a_study_to_one_network() {
        let tmp = TempDir::new("study");
        tmp.write("net2/config1", "hostname b\n");
        tmp.write("net1/config1", "hostname a\n");
        tmp.write("README", "not a router\n");
        tmp.write("notes.txt", "nor this\n");
        std::fs::create_dir_all(tmp.0.join("net3")).expect("empty network");

        let layout = Layout::scan(&tmp.0).expect("scan");
        assert!(layout.study);
        // Every subdirectory is a unit, the empty one included.
        assert_eq!(unit_names(&layout), vec!["net1", "net2", "net3"]);
        assert!(layout.units[2].files.as_ref().expect("listed").is_empty());
        assert_eq!(layout.stray, vec!["README", "notes.txt"]);
        let warnings = layout.warnings();
        assert_eq!(warnings.len(), 2);
        assert!(warnings.iter().all(|d| d.code == "stray-root-file" && d.line == 0));
        assert_eq!(warnings[0].file, "README");
        assert_eq!(warnings[0].severity, Severity::Warning);
    }

    #[test]
    fn subdirectories_without_config_files_leave_a_single_network() {
        let tmp = TempDir::new("single");
        tmp.write("config2", "hostname b\n");
        tmp.write("config1", "hostname a\n");
        tmp.write(".DS_Store", "finder metadata\n");
        // A subdirectory holding only skipped names does not make a study.
        tmp.write("backup/.keep", "");
        tmp.write("backup/old.tmp", "hostname stale\n");

        let layout = Layout::scan(&tmp.0).expect("scan");
        assert!(!layout.study);
        assert!(layout.stray.is_empty() && layout.warnings().is_empty());
        assert_eq!(layout.units.len(), 1);
        let unit = &layout.units[0];
        assert_eq!(unit.dir, tmp.0);
        assert_eq!(unit.name, name_of(&tmp.0));
        assert_eq!(names(unit.files.as_ref().expect("listed")), vec!["config1", "config2"]);
    }

    #[test]
    fn skip_rules_apply_to_files_and_directories_everywhere() {
        let tmp = TempDir::new("skip");
        for name in [".DS_Store", "x.tmp", "y.rdsnap", "z.quarantined"] {
            tmp.write(name, "artifact\n");
            tmp.write(&format!("net1/{name}"), "artifact\n");
        }
        tmp.write("net1/config1", "hostname a\n");
        tmp.write(".git/config", "[core]\n");
        tmp.write("old.tmp/config1", "hostname stale\n");

        let layout = Layout::scan(&tmp.0).expect("scan");
        assert!(layout.study);
        assert_eq!(unit_names(&layout), vec!["net1"]);
        assert!(layout.stray.is_empty(), "skipped names are not stray files");
        assert_eq!(names(layout.units[0].files.as_ref().expect("listed")), vec!["config1"]);
        assert_eq!(names(&list_configs(&tmp.0).expect("list")), Vec::<&str>::new());
    }

    #[test]
    fn files_are_path_sorted_with_one_stat_each() {
        let tmp = TempDir::new("stats");
        tmp.write("config10", "hostname ten\n");
        tmp.write("config2", "hostname two\n");
        tmp.write("config1", "hostname one\n");

        let files = list_configs(&tmp.0).expect("list");
        assert_eq!(names(&files), vec!["config1", "config10", "config2"]);
        for file in &files {
            let meta = std::fs::metadata(&file.path).expect("stat");
            assert_eq!(file.size, meta.len());
            assert!(file.mtime_nanos > 0);
        }
        let read = read_configs(&files).expect("read");
        assert_eq!(read[1], ("config10".to_string(), b"hostname ten\n".to_vec()));

        // Symlinks are followed: to a file is a config, dangling is not.
        #[cfg(unix)]
        {
            std::os::unix::fs::symlink(tmp.0.join("config1"), tmp.0.join("config3"))
                .expect("file link");
            std::os::unix::fs::symlink(tmp.0.join("gone"), tmp.0.join("config4"))
                .expect("dangling link");
            let linked = list_configs(&tmp.0).expect("list");
            assert_eq!(names(&linked), vec!["config1", "config10", "config2", "config3"]);
            assert_eq!(linked[3].size, files[0].size);
        }

        let missing = tmp.0.join("missing");
        assert!(Layout::scan(&missing).is_err());
        assert!(list_configs(&missing).is_err());
    }
}

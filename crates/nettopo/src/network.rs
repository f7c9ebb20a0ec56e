//! The [`Network`]: one administrative domain's configuration files.

use std::fmt;

use ioscfg::{lex_config, parse_raw, ParseError, RouterConfig};

/// Index of a router within a [`Network`] (stable for the network's life).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub usize);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One router: its source file name, parsed configuration, and raw size.
#[derive(Clone, Debug)]
pub struct Router {
    /// The configuration file name (`config1`, `config2`, ... in the
    /// paper's anonymized corpora).
    pub file_name: String,
    /// The parsed configuration.
    pub config: RouterConfig,
    /// Number of configuration command lines (Figure 4's metric).
    pub command_lines: usize,
}

impl Router {
    /// A display name: the hostname if present, else the file name.
    pub fn name(&self) -> &str {
        self.config.hostname.as_deref().unwrap_or(&self.file_name)
    }
}

/// How much of a network's input corpus actually made it into the
/// analysis. Real corpora (the paper's 8,035 anonymized configs) carry
/// truncated files, anonymization artifacts, and encoding damage; instead
/// of aborting, the loader quarantines such files and records them here so
/// every downstream consumer can label its numbers as partial.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Configuration files presented to the loader.
    pub total_files: usize,
    /// Files the loader refused to use, in load order. Each has a
    /// matching error-severity diagnostic (`parse-error`, `invalid-utf8`,
    /// `empty-config`, or `worker-panic`) in the network's diagnostics.
    pub quarantined: Vec<String>,
}

impl Coverage {
    /// A fully-covered corpus of `total` files.
    pub fn full(total: usize) -> Coverage {
        Coverage { total_files: total, quarantined: Vec::new() }
    }

    /// Files that parsed and entered the analysis.
    pub fn parsed(&self) -> usize {
        self.total_files - self.quarantined.len()
    }

    /// True when at least one file was quarantined: derived numbers are
    /// computed from a partial corpus and must be labeled as such.
    pub fn degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Fraction of files quarantined (0.0 on an empty corpus).
    pub fn failure_fraction(&self) -> f64 {
        if self.total_files == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / self.total_files as f64
        }
    }

    /// True when the quarantine fraction exceeds `budget` — the network
    /// should be dropped from study-level aggregates rather than
    /// contribute numbers dominated by missing data.
    pub fn over_budget(&self, budget: f64) -> bool {
        self.failure_fraction() > budget
    }
}

/// The study-level error budget: the largest quarantined-file fraction a
/// network may carry and still contribute to aggregate tables. Defaults
/// to 0.25; override with the `RD_ERROR_BUDGET` environment variable (a
/// fraction in `[0, 1]`, e.g. `0.1`). Read fresh on every call so tests
/// and harnesses can switch budgets at runtime.
pub fn error_budget() -> f64 {
    if let Ok(text) = std::env::var("RD_ERROR_BUDGET") {
        if let Ok(v) = text.trim().parse::<f64>() {
            if (0.0..=1.0).contains(&v) {
                return v;
            }
        }
    }
    0.25
}

/// A set of router configurations belonging to one network.
#[derive(Clone, Debug, Default)]
pub struct Network {
    /// Routers in load order; [`RouterId`] indexes into this.
    pub routers: Vec<Router>,
    /// Parse-level diagnostics for every router, in load order: unknown
    /// stanzas the tolerant parser skipped, dangling policy references
    /// ([`ioscfg::config_diagnostics`]), and one error-severity entry per
    /// quarantined file. Downstream analyses append their own
    /// design-level diagnostics to a copy of this.
    pub diagnostics: rd_obs::Diagnostics,
    /// Which input files survived into `routers` and which were
    /// quarantined.
    pub coverage: Coverage,
}

/// Error loading a network from disk or text.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A configuration failed to parse; the file name is attached.
    ///
    /// Per-file parse failures are now quarantined into diagnostics
    /// rather than aborting the load; this variant remains for callers
    /// that still construct it (and for exhaustive matches).
    Parse {
        /// The offending file.
        file: String,
        /// The underlying parse error.
        error: ParseError,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { file, error } => write!(f, "{file}: {error}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> LoadError {
        LoadError::Io(e)
    }
}

/// Per-file outcome of the parallel lex + parse stage.
#[derive(Clone)]
enum FileOutcome {
    Parsed { config: Box<RouterConfig>, command_lines: usize, diags: Vec<rd_obs::Diagnostic> },
    Quarantined { diag: rd_obs::Diagnostic },
}

/// One file's parse product, decoupled from [`Network`] assembly: the
/// result of the lex + parse worker for a single `(file_name, bytes)`
/// input. [`Network::parse_files`] produces these and
/// [`Network::from_parsed`] assembles them, which lets an incremental
/// caller cache the products of unchanged files and re-parse only what a
/// delta touched while building through the exact same assembly path as
/// a cold load.
#[derive(Clone)]
pub struct PreparsedFile {
    file_name: String,
    outcome: FileOutcome,
}

impl PreparsedFile {
    /// The input file this product came from.
    pub fn file_name(&self) -> &str {
        &self.file_name
    }

    /// True when the file was quarantined rather than parsed.
    pub fn quarantined(&self) -> bool {
        matches!(self.outcome, FileOutcome::Quarantined { .. })
    }
}

fn quarantine_diag(file: &str, code: &'static str, message: String) -> rd_obs::Diagnostic {
    rd_obs::Diagnostic {
        file: file.to_string(),
        line: 0,
        severity: rd_obs::Severity::Error,
        code,
        message,
    }
}

impl Network {
    /// Builds a network from `(file_name, config_text)` pairs.
    ///
    /// Files are lexed and parsed in parallel (`RD_THREADS` workers; see
    /// [`rd_par::thread_count`]). Results keep input order; files that
    /// fail to parse are **quarantined** — recorded in
    /// [`coverage`](Network::coverage) with an error-severity diagnostic —
    /// and the network is built from the surviving subset, so one
    /// corrupt file never aborts a whole corpus. The thread count never
    /// changes observable behavior.
    pub fn from_texts<I>(texts: I) -> Result<Network, LoadError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        Ok(Network::from_bytes_list(
            texts.into_iter().map(|(name, text)| (name, text.into_bytes())).collect(),
        ))
    }

    /// Builds a network from raw `(file_name, bytes)` pairs — the
    /// byte-level entry point behind every directory loader (which read
    /// a corpus through `routing_design::layout`) and the chaos harness.
    /// Files are taken as raw bytes so encoding damage is quarantined
    /// instead of surfacing as an opaque I/O error. Quarantines (never
    /// aborts on):
    ///
    /// - zero-byte files → `empty-config`
    /// - non-UTF-8 files → `invalid-utf8`
    /// - hard parse failures → `parse-error`
    /// - a panicking parse worker → `worker-panic` (caught per item by
    ///   `rd_par::try_par_map_cost`, never unwinding the caller)
    ///
    /// Corpora smaller than the `rd_par::cost_floor` (in total bytes)
    /// parse inline on the caller's thread; the output is identical.
    pub fn from_bytes_list(files: Vec<(String, Vec<u8>)>) -> Network {
        Network::from_parsed(Network::parse_files(&files))
    }

    /// Runs the parallel lex + parse stage alone, yielding one
    /// [`PreparsedFile`] per input in input order. A worker panic
    /// becomes that file's `worker-panic` quarantine, exactly as in
    /// [`from_bytes_list`](Network::from_bytes_list) (which is just
    /// this stage followed by [`from_parsed`](Network::from_parsed)).
    pub fn parse_files(files: &[(String, Vec<u8>)]) -> Vec<PreparsedFile> {
        // Cost = corpus bytes: tiny fixtures parse inline (thread setup
        // would dominate), real corpora fan out (see `rd_par::cost_floor`).
        let parse_cost: u64 = files.iter().map(|(_, b)| b.len() as u64).sum();
        let outcomes = rd_par::try_par_map_cost(parse_cost, files, |_, (file_name, bytes)| {
            if bytes.is_empty() {
                return FileOutcome::Quarantined {
                    diag: quarantine_diag(
                        file_name,
                        "empty-config",
                        "configuration file is empty (quarantined)".to_string(),
                    ),
                };
            }
            let text = match std::str::from_utf8(bytes) {
                Ok(t) => t,
                Err(e) => {
                    return FileOutcome::Quarantined {
                        diag: quarantine_diag(
                            file_name,
                            "invalid-utf8",
                            format!("configuration is not valid UTF-8 ({e}); quarantined"),
                        ),
                    }
                }
            };
            let raw = lex_config(text);
            match parse_raw(&raw) {
                Ok(config) => {
                    let diags = ioscfg::config_diagnostics(file_name, &config);
                    rd_obs::trace::event(
                        "parse.file",
                        &[
                            ("file", file_name.as_str().into()),
                            ("lines", raw.command_lines.into()),
                            ("unrecognized", config.unparsed.len().into()),
                            ("diagnostics", diags.len().into()),
                        ],
                    );
                    FileOutcome::Parsed {
                        config: Box::new(config),
                        command_lines: raw.command_lines,
                        diags,
                    }
                }
                Err(error) => FileOutcome::Quarantined {
                    diag: quarantine_diag(
                        file_name,
                        "parse-error",
                        format!("{error}; file quarantined"),
                    ),
                },
            }
        });
        files
            .iter()
            .zip(outcomes)
            .map(|((file_name, _), outcome)| {
                let outcome = outcome.unwrap_or_else(|panic_msg| FileOutcome::Quarantined {
                    diag: quarantine_diag(
                        file_name,
                        "worker-panic",
                        format!("parse worker panicked: {panic_msg}; file quarantined"),
                    ),
                });
                PreparsedFile { file_name: file_name.clone(), outcome }
            })
            .collect()
    }

    /// Assembles a network from per-file parse products, in their given
    /// order. This is the assembly half of
    /// [`from_bytes_list`](Network::from_bytes_list); callers that cache
    /// [`PreparsedFile`]s (the incremental engine) splice cached and
    /// fresh products together and get a network byte-for-byte identical
    /// to a cold load of the same inputs.
    pub fn from_parsed(parsed: Vec<PreparsedFile>) -> Network {
        let mut routers = Vec::with_capacity(parsed.len());
        let mut diagnostics = rd_obs::Diagnostics::new();
        let mut coverage = Coverage::full(parsed.len());
        let mut total_lines = 0u64;
        let mut unrecognized = 0u64;
        for PreparsedFile { file_name, outcome } in parsed {
            match outcome {
                FileOutcome::Parsed { config, command_lines, diags } => {
                    total_lines += command_lines as u64;
                    unrecognized += config.unparsed.len() as u64;
                    rd_obs::metrics::histogram_record(
                        "parse.file_lines",
                        command_lines as u64,
                        &[16, 64, 256, 1024, 4096],
                    );
                    diagnostics.extend(diags);
                    routers.push(Router { file_name, config: *config, command_lines });
                }
                FileOutcome::Quarantined { diag } => {
                    rd_obs::trace::event(
                        "parse.quarantine",
                        &[("file", file_name.as_str().into()), ("code", diag.code.into())],
                    );
                    diagnostics.push(diag);
                    coverage.quarantined.push(file_name);
                }
            }
        }
        rd_obs::metrics::counter_add("parse.files", routers.len() as u64);
        rd_obs::metrics::counter_add("parse.quarantined", coverage.quarantined.len() as u64);
        rd_obs::metrics::counter_add("parse.lines", total_lines);
        rd_obs::metrics::counter_add("parse.unrecognized_lines", unrecognized);
        Network { routers, diagnostics, coverage }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// True if the network has no routers.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// Iterates `(RouterId, &Router)`.
    pub fn iter(&self) -> impl Iterator<Item = (RouterId, &Router)> {
        self.routers.iter().enumerate().map(|(i, r)| (RouterId(i), r))
    }

    /// The router behind an id. Panics on out-of-range ids, which can only
    /// be constructed by misuse.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0]
    }

    /// All subnets mentioned anywhere in the network's configurations
    /// (interfaces, static-route destinations, BGP network statements) —
    /// the input to address-space structure recovery (Section 3.4).
    pub fn mentioned_subnets(&self) -> Vec<netaddr::Prefix> {
        let mut subnets = Vec::new();
        for r in &self.routers {
            subnets.extend(r.config.interface_subnets());
            for sr in &r.config.static_routes {
                // Default routes say nothing about the address plan; a /0
                // "subnet" would swallow the whole block tree.
                if !sr.is_default() {
                    subnets.push(sr.prefix());
                }
            }
            if let Some(bgp) = &r.config.bgp {
                for (addr, mask) in &bgp.networks {
                    let prefix = match mask {
                        Some(m) => netaddr::Prefix::from_mask(*addr, *m),
                        None => ioscfg::classful_prefix(*addr),
                    };
                    subnets.push(prefix);
                }
            }
        }
        subnets
    }

    /// Recovers the address-block structure for this network.
    pub fn address_blocks(&self) -> netaddr::BlockTree {
        netaddr::recover_blocks(self.mentioned_subnets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_texts_parses_and_counts_lines() {
        let net = Network::from_texts(vec![
            (
                "config1".to_string(),
                "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
                    .to_string(),
            ),
            ("config2".to_string(), "hostname b\n".to_string()),
        ])
        .unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.router(RouterId(0)).command_lines, 3);
        assert_eq!(net.router(RouterId(0)).name(), "a");
        assert_eq!(net.router(RouterId(1)).command_lines, 1);
        assert!(!net.coverage.degraded());
        assert_eq!(net.coverage.parsed(), 2);
    }

    #[test]
    fn parse_errors_quarantine_the_file() {
        let net = Network::from_texts(vec![
            (
                "config1".to_string(),
                "hostname ok\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\n"
                    .to_string(),
            ),
            (
                "config9".to_string(),
                "interface Ethernet0\n ip address nope 255.0.0.0\n".to_string(),
            ),
        ])
        .unwrap();
        // The bad file is quarantined, the good one survives.
        assert_eq!(net.len(), 1);
        assert_eq!(net.router(RouterId(0)).file_name, "config1");
        assert_eq!(net.coverage.quarantined, vec!["config9".to_string()]);
        assert!(net.coverage.degraded());
        let d = net
            .diagnostics
            .iter()
            .find(|d| d.code == "parse-error")
            .expect("quarantine diagnostic recorded");
        assert_eq!(d.file, "config9");
        assert_eq!(d.severity, rd_obs::Severity::Error);
    }

    #[test]
    fn empty_and_non_utf8_files_quarantine_with_exact_codes() {
        let net = Network::from_bytes_list(vec![
            ("config1".to_string(), b"hostname ok\n".to_vec()),
            ("config2".to_string(), Vec::new()),
            ("config3".to_string(), vec![0xff, 0xfe, 0x00, 0x9f]),
        ]);
        assert_eq!(net.len(), 1);
        assert_eq!(
            net.coverage.quarantined,
            vec!["config2".to_string(), "config3".to_string()]
        );
        let codes: Vec<&str> = net.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["empty-config", "invalid-utf8"]);
        assert!(net.coverage.over_budget(0.25)); // 2/3 quarantined
        assert!(!net.coverage.over_budget(0.9));
    }

    #[test]
    fn error_budget_defaults_and_env_override() {
        // Only exercise the default here; the env override is covered by
        // binary-level tests (env vars are process-global).
        if std::env::var("RD_ERROR_BUDGET").is_err() {
            assert_eq!(error_budget(), 0.25);
        }
    }

    #[test]
    fn mentioned_subnets_gathers_all_sources() {
        let net = Network::from_texts(vec![(
            "config1".to_string(),
            "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
             ip route 192.168.0.0 255.255.0.0 10.0.0.2\n\
             router bgp 65000\n network 172.16.0.0 mask 255.255.0.0\n"
                .to_string(),
        )])
        .unwrap();
        let subnets = net.mentioned_subnets();
        let texts: Vec<String> = subnets.iter().map(|p| p.to_string()).collect();
        assert!(texts.contains(&"10.0.0.0/24".to_string()));
        assert!(texts.contains(&"192.168.0.0/16".to_string()));
        assert!(texts.contains(&"172.16.0.0/16".to_string()));
    }
}

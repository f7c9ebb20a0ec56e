//! Structure-preserving anonymization (paper Section 4.1).
//!
//! Generates a small enterprise network, anonymizes its configuration
//! files with a keyed anonymizer, shows a before/after excerpt, and then
//! demonstrates the property the methodology rests on: the analysis of
//! the anonymized corpus is isomorphic to the analysis of the original.
//!
//! Run with:
//! ```sh
//! cargo run --example anonymize_configs
//! ```
//!
//! Optionally anonymize a real directory of config files:
//! ```sh
//! cargo run --example anonymize_configs -- <input-dir> <output-dir> <key>
//! ```

use anonymizer::Anonymizer;
use routing_design::layout::list_configs;
use routing_design::NetworkAnalysis;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 {
        anonymize_directory(&args[1], &args[2], args[3].as_bytes());
        return;
    }

    // Demo mode: generate, anonymize, compare.
    let spec = &netgen::study_roster(netgen::StudyScale::Small)[5];
    let generated = netgen::study::generate_network(spec, netgen::StudyScale::Small);
    let anon = Anonymizer::new(b"demo-key-do-not-reuse");

    println!("=== Original config1 (first 20 lines) ===");
    for line in generated.texts[0].1.lines().take(20) {
        println!("{line}");
    }
    println!("\n=== Anonymized config1 (first 20 lines) ===");
    let anonymized_first = anon.anonymize_config(&generated.texts[0].1);
    for line in anonymized_first.lines().take(20) {
        println!("{line}");
    }

    let anonymized: Vec<(String, String)> = generated
        .texts
        .iter()
        .map(|(name, text)| (name.clone(), anon.anonymize_config(text)))
        .collect();

    let original = NetworkAnalysis::from_texts(generated.texts).expect("original parses");
    let anonymized = NetworkAnalysis::from_texts(anonymized).expect("anonymized parses");

    println!("\n=== Analysis comparison (original vs anonymized) ===");
    println!(
        "{:<24} {:>10} {:>12}",
        "metric", "original", "anonymized"
    );
    let rows: Vec<(&str, usize, usize)> = vec![
        ("routers", original.network.len(), anonymized.network.len()),
        ("links", original.links.links.len(), anonymized.links.links.len()),
        ("processes", original.processes.len(), anonymized.processes.len()),
        ("instances", original.instances.len(), anonymized.instances.len()),
        (
            "EBGP external sessions",
            original.design.external_ebgp_sessions,
            anonymized.design.external_ebgp_sessions,
        ),
        ("IBGP sessions", original.design.ibgp_sessions, anonymized.design.ibgp_sessions),
    ];
    for (metric, o, a) in rows {
        let marker = if o == a { "✓" } else { "✗" };
        println!("{metric:<24} {o:>10} {a:>12}  {marker}");
    }
    println!(
        "{:<24} {:>10} {:>12}  {}",
        "design class",
        original.design.class.to_string(),
        anonymized.design.class.to_string(),
        if original.design.class == anonymized.design.class { "✓" } else { "✗" }
    );
}

fn anonymize_directory(input: &str, output: &str, key: &[u8]) {
    let anon = Anonymizer::new(key);
    std::fs::create_dir_all(output).expect("create output dir");
    let entries = list_configs(std::path::Path::new(input)).expect("read input dir");
    for (i, file) in entries.iter().enumerate() {
        let path = &file.path;
        let text = std::fs::read_to_string(path).expect("read config");
        let anonymized = anon.anonymize_config(&text);
        // Output files are renamed config1..configN, like the paper's
        // corpora — file names can identify routers too.
        let out_path = std::path::Path::new(output).join(format!("config{}", i + 1));
        std::fs::write(&out_path, anonymized).expect("write config");
        println!("{} -> {}", path.display(), out_path.display());
    }
}

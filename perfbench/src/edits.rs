//! The seeded one-router edit stream of the `churn` workload.
//!
//! Every fourth edit (the first of each group of four) is cosmetic: it
//! inserts a comment line, which must not move the served ETag. The
//! others are semantic and alternate: one adds a seeded
//! `ip route 192.0.2.N 255.255.255.255 Null0` line to a config drawn
//! uniformly from the study, the next removes that line again. Both
//! kinds of semantic edit must move the ETag. Lines go in before the
//! config's closing `end`, where the parser reads them.

use std::io;
use std::path::PathBuf;

use rd_rng::StdRng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Semantic,
    Cosmetic,
}

pub struct Edit {
    pub kind: Kind,
    pub path: PathBuf,
    /// The file's full new contents.
    pub bytes: Vec<u8>,
}

pub struct EditStream {
    rng: StdRng,
    files: Vec<PathBuf>,
    issued: u64,
    /// The file and line of the last added route, removed by the next
    /// semantic edit.
    added: Option<(PathBuf, String)>,
}

impl EditStream {
    /// A stream over `files` (every config of the study, in a fixed
    /// order) driven by `seed`.
    pub fn new(seed: u64, files: Vec<PathBuf>) -> EditStream {
        EditStream {
            rng: StdRng::seed_from_u64(seed ^ 0xed17_5eed),
            files,
            issued: 0,
            added: None,
        }
    }

    /// Draws the next edit from the files' current contents.
    pub fn next_edit(&mut self) -> io::Result<Edit> {
        let k = self.issued;
        self.issued += 1;
        if k.is_multiple_of(4) {
            let path = self.draw();
            let text = read_text(&path)?;
            let bytes = insert_before_end(&text, &format!("! perfbench edit {k}")).into_bytes();
            return Ok(Edit {
                kind: Kind::Cosmetic,
                path,
                bytes,
            });
        }
        if let Some((path, line)) = self.added.take() {
            let text = read_text(&path)?;
            let bytes = remove_line(&text, &line)
                .ok_or_else(|| {
                    io::Error::other(format!("{} lost its added route", path.display()))
                })?
                .into_bytes();
            return Ok(Edit {
                kind: Kind::Semantic,
                path,
                bytes,
            });
        }
        let path = self.draw();
        let text = read_text(&path)?;
        let line = static_route_line(self.rng.gen_range(1..=254u32));
        let bytes = insert_before_end(&text, &line).into_bytes();
        self.added = Some((path.clone(), line));
        Ok(Edit {
            kind: Kind::Semantic,
            path,
            bytes,
        })
    }

    fn draw(&mut self) -> PathBuf {
        self.files[self.rng.gen_range(0..self.files.len())].clone()
    }
}

fn read_text(path: &std::path::Path) -> io::Result<String> {
    String::from_utf8(std::fs::read(path)?)
        .map_err(|_| io::Error::other(format!("{} is not UTF-8", path.display())))
}

pub fn static_route_line(octet: u32) -> String {
    format!("ip route 192.0.2.{octet} 255.255.255.255 Null0")
}

/// `text` with `line` inserted before its last `end` line (appended when
/// there is none).
pub fn insert_before_end(text: &str, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .rposition(|l| l.trim() == "end")
        .unwrap_or(lines.len());
    lines.insert(at, line);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// `text` without the first line equal to `line`; `None` if absent.
pub fn remove_line(text: &str, line: &str) -> Option<String> {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| *l == line)?;
    lines.remove(at);
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_design::diff::config_fingerprint;

    fn sample_configs() -> Vec<String> {
        let roster = netgen::study_roster(netgen::StudyScale::Small);
        let generated = netgen::study::generate_network(&roster[0], netgen::StudyScale::Small);
        generated
            .texts
            .into_iter()
            .take(5)
            .map(|(_, t)| t)
            .collect()
    }

    fn fingerprint(text: &str) -> u64 {
        config_fingerprint(&ioscfg::parse_config(text).expect("generated config parses"))
    }

    #[test]
    fn semantic_edits_move_the_fingerprint_and_cosmetic_do_not() {
        for text in sample_configs() {
            let base = fingerprint(&text);
            let line = static_route_line(17);
            let added = insert_before_end(&text, &line);
            assert_ne!(
                fingerprint(&added),
                base,
                "adding a static route is semantic"
            );
            let removed = remove_line(&added, &line).unwrap();
            assert_eq!(
                fingerprint(&removed),
                base,
                "removing it restores the config"
            );
            let commented = insert_before_end(&text, "! perfbench edit 4");
            assert_ne!(commented, text);
            assert_eq!(fingerprint(&commented), base, "a comment is cosmetic");
        }
    }

    #[test]
    fn lines_go_before_the_closing_end() {
        let out = insert_before_end(
            "hostname r1\n!\nend\n",
            "ip route 192.0.2.1 255.255.255.255 Null0",
        );
        assert_eq!(
            out,
            "hostname r1\n!\nip route 192.0.2.1 255.255.255.255 Null0\nend\n"
        );
        assert_eq!(
            insert_before_end("hostname r1", "! x"),
            "hostname r1\n! x\n"
        );
        assert_eq!(remove_line("a\nb\n", "c"), None);
    }

    #[test]
    fn stream_is_seeded_and_follows_the_four_edit_cycle() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_work")
            .join(format!("edits-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files: Vec<PathBuf> = sample_configs()
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let p = dir.join(format!("config{i}"));
                std::fs::write(&p, text).unwrap();
                p
            })
            .collect();
        let originals: Vec<u64> = files
            .iter()
            .map(|p| fingerprint(&std::fs::read_to_string(p).unwrap()))
            .collect();

        let run = |seed: u64| {
            let mut stream = EditStream::new(seed, files.clone());
            let mut trail = Vec::new();
            for _ in 0..8 {
                let edit = stream.next_edit().unwrap();
                let before = fingerprint(&std::fs::read_to_string(&edit.path).unwrap());
                std::fs::write(&edit.path, &edit.bytes).unwrap();
                let after = fingerprint(&String::from_utf8(edit.bytes.clone()).unwrap());
                assert_eq!(edit.kind == Kind::Semantic, before != after);
                trail.push((edit.kind, edit.path, edit.bytes));
            }
            trail
        };
        let first = run(7);
        let kinds: Vec<Kind> = first.iter().map(|e| e.0).collect();
        use Kind::*;
        assert_eq!(
            kinds,
            [Cosmetic, Semantic, Semantic, Semantic, Cosmetic, Semantic, Semantic, Semantic]
        );
        let now: Vec<u64> = files
            .iter()
            .map(|p| fingerprint(&std::fs::read_to_string(p).unwrap()))
            .collect();
        assert_eq!(
            now, originals,
            "six semantic edits add and remove three routes"
        );
        // The same seed draws the same files.
        let paths = |trail: &[(Kind, PathBuf, Vec<u8>)]| -> Vec<PathBuf> {
            trail.iter().map(|e| e.1.clone()).collect()
        };
        assert_eq!(paths(&run(7)), paths(&first));
        std::fs::remove_dir_all(&dir).ok();
    }
}

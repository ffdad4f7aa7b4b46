//! The environment surface is fixed: the non-test sources under
//! `crates/` name exactly nine `ICOST_*` variables, and README's
//! *Environment* section documents exactly those nine. A new knob, a
//! retired one still read somewhere, or a stale doc line fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const VARIABLES: [&str; 9] = [
    "ICOST_AUDIT",
    "ICOST_BENCH_INSTS",
    "ICOST_CACHE_DIR",
    "ICOST_CACHE_MAX_AGE_SECS",
    "ICOST_CACHE_MAX_BYTES",
    "ICOST_LEDGER_FILE",
    "ICOST_SERVE_ADDR",
    "ICOST_SERVE_TOKEN",
    "ICOST_TRACE_FILE",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping `tests/` directories.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "tests") {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `ICOST_[A-Z_]+` names in `text`; with `quoted`, only those
/// written as a whole string literal.
fn names(text: &str, quoted: bool) -> BTreeSet<String> {
    text.match_indices("ICOST_")
        .filter_map(|(at, _)| {
            let rest = &text[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                .unwrap_or(rest.len());
            let literal = text[..at].ends_with('"') && rest[end..].starts_with('"');
            (!quoted || literal).then(|| rest[..end].to_string())
        })
        .collect()
}

fn expected() -> BTreeSet<String> {
    VARIABLES.iter().map(|v| v.to_string()).collect()
}

#[test]
fn crates_name_exactly_the_nine_variables() {
    let mut files = Vec::new();
    sources(&root().join("crates"), &mut files);
    assert!(files.len() > 50, "found only {} sources", files.len());
    let mut found = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        // Unit tests live after the first `#[cfg(test)]`.
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        found.extend(names(code, true));
    }
    assert_eq!(found, expected());
}

#[test]
fn readme_environment_section_documents_exactly_the_nine() {
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README.md");
    let (_, section) = readme
        .split_once("\n## Environment\n")
        .expect("README has an Environment section");
    let section = section.split("\n## ").next().unwrap_or_default();
    assert_eq!(names(section, false), expected());
}

//! Every public item has a user outside the tests.
//!
//! The scan reads every `.rs` file of the repository except those under
//! `vendor/`, `tests/`, `benches/` and build output, so the library
//! crates, the perf package, `src/` and `examples/` all count as
//! users. It drops each `#[cfg(test)]` item, then counts the
//! whole-word mentions of each `pub fn`, `pub const fn`, `pub struct`,
//! `pub enum`, `pub trait`, `pub type`, `pub const` and `pub static`
//! name that are neither that definition nor a `fn` definition. A name
//! with none fails the test unless [`ALLOWED`] keeps it, with its
//! reason. An item only tests need belongs in `#[cfg(test)]`, or goes
//! with its test.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Public items kept without a non-test user, and why.
const ALLOWED: &[(&str, &str)] = &[
    ("as_millis", "a powermed-units conversion DESIGN names"),
    ("as_percent", "a powermed-units conversion DESIGN names"),
    ("bytes_over", "a powermed-units conversion DESIGN names"),
    ("for_duration", "a powermed-units conversion DESIGN names"),
    ("from_percent", "a powermed-units conversion DESIGN names"),
    (
        "choose_multiple",
        "a SplitMix draw DESIGN lists; tests/streams.rs pins it",
    ),
    ("evaluation_count", "read by powermed-core's tests/cache.rs"),
    (
        "from_raw",
        "builds fingerprints in powermed-profiles' tests/store_props.rs",
    ),
    (
        "max_app_dynamic_power",
        "bounds powermed-workloads' profile tests",
    ),
    (
        "with_idle_power",
        "builds a second spec in powermed-core's cache tests",
    ),
];

/// Directories whose files neither define nor call public surface.
const SKIPPED_DIRS: &[&str] = &["target", "vendor", "tests", "benches"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !name.starts_with('.') && !SKIPPED_DIRS.contains(&name) {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `src` with every comment and string or character literal blanked to
/// spaces, newlines kept, so braces can be counted line by line.
fn code_only(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let start = i;
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            i += 2;
            while i < chars.len() && !(chars[i] == '*' && chars.get(i + 1) == Some(&'/')) {
                i += 1;
            }
            i = (i + 2).min(chars.len());
        } else if c == 'r' && matches!(next, Some('"' | '#')) {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            if chars.get(i + 1 + hashes) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            i += hashes + 2;
            let close =
                |j: usize| chars[j] == '"' && (1..=hashes).all(|k| chars.get(j + k) == Some(&'#'));
            while i < chars.len() && !close(i) {
                i += 1;
            }
            i = (i + hashes + 1).min(chars.len());
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i = (i + 1).min(chars.len());
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A character literal; a lone quote is a lifetime.
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i = (i + 1).min(chars.len());
        } else {
            out.push(c);
            i += 1;
            continue;
        }
        for &skipped in &chars[start..i] {
            blank(&mut out, skipped);
        }
    }
    out
}

/// `src` without its `#[cfg(test)]` items: each one ends at the `;` or
/// the closing brace that brings its nesting back to zero.
fn non_test(src: &str) -> String {
    let code = code_only(src);
    let mut out = String::new();
    let mut lines = src.lines().zip(code.lines());
    while let Some((line, _)) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let mut depth = 0i64;
        for (_, code) in lines.by_ref() {
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if depth == 0 && (code.contains('}') || code.trim_end().ends_with(';')) {
                break;
            }
        }
    }
    out
}

/// The keywords whose next word a preceding `pub` makes public.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// The public items of `texts` that no text mentions outside their own
/// definition or a `fn` definition.
fn uncalled(texts: &[String]) -> BTreeSet<String> {
    let mut public = BTreeSet::new();
    let mut mentioned = BTreeSet::new();
    for text in texts {
        let words = text
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'));
        // The three words before `word`, oldest first.
        let mut recent = ["", "", ""];
        for word in words {
            // `pub const fn` names its function after the `fn`.
            let defines =
                (recent[1] == "pub" && ITEM_KEYWORDS.contains(&recent[2]) && word != "fn")
                    || recent == ["pub", "const", "fn"];
            if defines {
                public.insert(word.to_string());
            } else if recent[2] != "fn" {
                mentioned.insert(word);
            }
            recent = [recent[1], recent[2], word];
        }
    }
    public.retain(|name| !mentioned.contains(name.as_str()));
    public
}

fn repository_texts() -> Vec<String> {
    let mut files = Vec::new();
    rust_files(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    assert!(
        files.len() > 100,
        "the scan found only {} files",
        files.len()
    );
    files
        .iter()
        .map(|f| non_test(&fs::read_to_string(f).expect("readable source")))
        .collect()
}

#[test]
fn every_public_function_has_a_non_test_caller() {
    let uncalled = uncalled(&repository_texts());
    let allowed: BTreeSet<String> = ALLOWED.iter().map(|(n, _)| n.to_string()).collect();
    let unexplained: Vec<&String> = uncalled.difference(&allowed).collect();
    assert!(
        unexplained.is_empty(),
        "public items without a non-test user (delete them, gate them \
         with #[cfg(test)], or add them to ALLOWED with a reason): {unexplained:?}"
    );
    let stale: Vec<&String> = allowed.difference(&uncalled).collect();
    assert!(
        stale.is_empty(),
        "ALLOWED entries that now have a user or are gone: {stale:?}"
    );
}

#[test]
fn the_scan_sees_an_orphan_past_test_code_comments_and_literals() {
    let src = r#"
/// Calls `helper` in a doc comment, which counts as a mention.
pub fn documented() {}
pub fn helper() -> char { '}' }
pub fn orphan() -> &'static str { "{ text" }
pub fn used_by_main() {}
pub const fn const_orphan() -> u8 { 0 }
fn main() { used_by_main(); documented(); }
#[cfg(test)]
pub fn gated() -> usize { orphan().len() }
#[cfg(test)]
mod tests {
    fn t() { let _ = (super::orphan(), "}", '{'); }
}
pub fn after_the_tests() {}
"#;
    let found = uncalled(&[non_test(src)]);
    let expected: BTreeSet<String> = ["after_the_tests", "const_orphan", "orphan"]
        .map(String::from)
        .into();
    assert_eq!(found, expected);
}

#[test]
fn the_scan_sees_unused_public_types_and_constants() {
    let src = r#"
pub struct Unused;
pub struct Used { pub field: u8 }
pub enum Mode { A }
pub trait Orphaned {}
pub type Alias = Used;
pub const UNUSED_LIMIT: u32 = 1;
pub const USED_LIMIT: u32 = 2;
pub static TABLE: &'static [u8] = &[];
pub(crate) struct Private;
pub const fn const_helper() -> u8 { 0 }
fn main() { let _ = (Alias { field: 0 }, Mode::A, USED_LIMIT, const_helper()); }
#[cfg(test)]
fn t() { let _ = (Unused, UNUSED_LIMIT, TABLE); }
"#;
    let found = uncalled(&[non_test(src)]);
    let expected: BTreeSet<String> = ["Orphaned", "TABLE", "UNUSED_LIMIT", "Unused"]
        .map(String::from)
        .into();
    assert_eq!(found, expected);
}

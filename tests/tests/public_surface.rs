//! Public means called: every `pub fn` in `crates/*/src` has a caller
//! outside the file that defines it.
//!
//! The workspace has no users outside this repository, so a function is
//! public only if another crate, a report, an integration test, an
//! example or the benchmark (`perfbench/src`, which may call any public
//! API) names it. A function whose only callers sit in its own file is
//! private; one whose only callers are its own file's tests is deleted,
//! or named in [`ALLOWED`] with the reason it stays.
//!
//! The check is lexical: each `.rs` file under `crates/`, `tests/`,
//! `examples/` and `perfbench/src` is split once into identifiers, with
//! comments and string literals skipped, and a `pub fn` (also
//! `pub async fn`, `pub const fn`; exactly `pub`, not `pub(crate)`) fails
//! when its name appears in no other file. Two methods of one name are
//! one name here, so a same-named caller elsewhere hides an uncalled
//! method; the rule errs towards passing, never towards a false alarm.
//!
//! The same walk fails on any `#[allow(dead_code)]` in `crates/*/src`:
//! code that nothing reads is deleted, not silenced.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions that only their own file's tests call, kept on
/// purpose: `(file, name, reason)`. At most eight.
const ALLOWED: [(&str, &str, &str); 8] = [
    (
        "crates/model/src/design.rs",
        "predicted_get_us",
        "Table 4's analytic GET row for HW and SW, checked against PAPER_TABLE4",
    ),
    (
        "crates/model/src/design.rs",
        "predicted_put_rt_us",
        "Table 4's analytic PUT row for HW and SW, checked against PAPER_TABLE4",
    ),
    (
        "crates/am/src/collectives.rs",
        "allreduce_max",
        "§5.1's collective library: the max reduction beside allreduce_sum",
    ),
    (
        "crates/am/src/collectives.rs",
        "exscan_sum_u64",
        "§5.1's collective library: the prefix scan",
    ),
    (
        "crates/bench/src/chaos.rs",
        "kill_sender_fan_in",
        "chaos scenario family, run by chaos::tests and CI's fault-tests job",
    ),
    (
        "crates/bench/src/chaos.rs",
        "corrupt_under_load",
        "chaos scenario family, run by chaos::tests and CI's fault-tests job",
    ),
    (
        "crates/bench/src/chaos.rs",
        "stall_survivor_liveness",
        "chaos scenario family, run by chaos::tests and CI's fault-tests job",
    ),
    (
        "crates/bench/src/chaos.rs",
        "hostile_tenant",
        "chaos scenario family, run by chaos::tests and CI's fault-tests job",
    ),
];

/// Where callers may live, relative to the workspace root.
const ROOTS: [&str; 4] = ["crates", "tests", "examples", "perfbench/src"];

/// One lexical token: an identifier, or a single punctuation character.
struct Token {
    text: String,
    line: usize,
}

/// Splits Rust source into identifiers and punctuation, skipping
/// whitespace, numbers, comments (nested block comments included), and
/// string, byte-string, raw-string and char literals.
fn tokenize(src: &str) -> Vec<Token> {
    let c: Vec<char> = src.chars().collect();
    let (mut i, mut line, mut out) = (0, 1, Vec::new());
    // Skips to the end of a `"`-delimited literal body starting at `i`,
    // counting lines; returns the index past the closing quote.
    let skip_str = |mut i: usize, line: &mut usize| {
        while i < c.len() && c[i] != '"' {
            if c[i] == '\\' {
                i += 1;
            }
            if i < c.len() && c[i] == '\n' {
                *line += 1;
            }
            i += 1;
        }
        i + 1
    };
    while i < c.len() {
        let ch = c[i];
        let next = c.get(i + 1).copied();
        if ch == '\n' {
            line += 1;
            i += 1;
        } else if ch.is_whitespace() {
            i += 1;
        } else if ch == '/' && next == Some('/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if ch == '/' && next == Some('*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    line += usize::from(c[i] == '\n');
                    i += 1;
                }
            }
        } else if ch == '"' {
            i = skip_str(i + 1, &mut line);
        } else if ch == 'b' && next == Some('"') {
            i = skip_str(i + 2, &mut line);
        } else if let Some((body, hashes)) = raw_string_start(&c, i) {
            let close: Vec<char> = std::iter::once('"')
                .chain((0..hashes).map(|_| '#'))
                .collect();
            i = body;
            while i < c.len() && !c[i..].starts_with(&close) {
                line += usize::from(c[i] == '\n');
                i += 1;
            }
            i += close.len();
        } else if ch == '\'' && (next == Some('\\') || c.get(i + 2) == Some(&'\'')) {
            // A char literal: 'x', '\n', '\u{..}'. A lifetime falls through
            // to punctuation and an identifier.
            i += if next == Some('\\') { 3 } else { 2 };
            while i < c.len() && c[i] != '\'' {
                i += 1;
            }
            i += 1;
        } else if is_ident(ch) {
            let start = i;
            while i < c.len() && is_ident(c[i]) {
                i += 1;
            }
            // A number (`1_000u64`, `0xff`) is skipped, not named.
            if !ch.is_ascii_digit() {
                out.push(Token {
                    text: c[start..i].iter().collect(),
                    line,
                });
            }
        } else {
            out.push(Token {
                text: ch.to_string(),
                line,
            });
            i += 1;
        }
    }
    out
}

/// If a raw (byte) string literal starts at `i` (`r"`, `r#"`, `br##"`,
/// ...), the index of its body and its number of `#`s.
fn raw_string_start(c: &[char], i: usize) -> Option<(usize, usize)> {
    if !matches!(c[i], 'r' | 'b') || i > 0 && is_ident(c[i - 1]) {
        return None;
    }
    let mut j = i + usize::from(c[i] == 'b');
    if c.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let hashes = c[j..].iter().take_while(|&&h| h == '#').count();
    (c.get(j + hashes) == Some(&'"')).then_some((j + hashes + 1, hashes))
}

fn is_ident(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_'
}

/// The `pub fn`s a file defines: `(name, line)`.
fn public_fns(tokens: &[Token]) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "pub" {
            continue;
        }
        let mut j = i + 1;
        while tokens
            .get(j)
            .is_some_and(|t| t.text == "async" || t.text == "const")
        {
            j += 1;
        }
        if tokens.get(j).is_some_and(|t| t.text == "fn") {
            if let Some(name) = tokens.get(j + 1) {
                out.push((name.text.as_str(), name.line));
            }
        }
    }
    out
}

/// Lines of `#[allow(..dead_code..)]` (or `expect`, or the inner `#!`
/// form) in a file.
fn dead_code_allowances(tokens: &[Token]) -> Vec<usize> {
    let text = |k: usize| tokens.get(k).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if text(i) != "#" {
            continue;
        }
        let open = i + 1 + usize::from(text(i + 1) == "!");
        let lint = text(open + 1);
        if text(open) != "[" || !(lint == "allow" || lint == "expect") || text(open + 2) != "(" {
            continue;
        }
        let mut k = open + 3;
        while k < tokens.len() && text(k) != ")" {
            if text(k) == "dead_code" {
                out.push(tokens[i].line);
            }
            k += 1;
        }
    }
    out
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True for a file of a crate's library or binary source,
/// `crates/<name>/src/...`.
fn in_crate_src(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Applies the rule to `files` (`(path relative to the root, source)`),
/// returning one message per violation: `pub fn`s without an outside
/// caller that [`ALLOWED`] does not name, `dead_code` allowances, and
/// entries of [`ALLOWED`] that excuse nothing.
fn violations(files: &[(String, String)]) -> Vec<String> {
    let tokens: Vec<Vec<Token>> = files.iter().map(|(_, src)| tokenize(src)).collect();
    // Identifier -> number of files that mention it.
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for toks in &tokens {
        let mut names: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    let mut excused = [false; ALLOWED.len()];
    for ((rel, _), toks) in files.iter().zip(&tokens) {
        if !in_crate_src(rel) {
            continue;
        }
        for (name, line) in public_fns(toks) {
            if files_naming[name] > 1 {
                continue;
            }
            match ALLOWED.iter().position(|(f, n, _)| f == rel && *n == name) {
                Some(k) => excused[k] = true,
                None => out.push(format!(
                    "{rel}:{line}: `pub fn {name}` has no caller outside {rel}: \
                     make it private, delete it, or name it in ALLOWED with a reason"
                )),
            }
        }
        for line in dead_code_allowances(toks) {
            out.push(format!(
                "{rel}:{line}: `dead_code` is allowed: delete what nothing uses instead"
            ));
        }
    }
    for ((file, name, _), used) in ALLOWED.iter().zip(excused) {
        if !used {
            out.push(format!(
                "ALLOWED names `{name}` in {file}, which is gone or now has a caller elsewhere"
            ));
        }
    }
    out
}

#[test]
fn every_public_fn_has_a_caller_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut paths = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    // This file names functions only as examples of the rule.
    paths.retain(|p| !p.ends_with("tests/tests/public_surface.rs"));
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(p).expect("readable source"))
        })
        .collect();
    assert!(
        files.iter().filter(|(rel, _)| in_crate_src(rel)).count() > 50,
        "found too few crate sources under {}",
        root.display()
    );
    let bad = violations(&files);
    assert!(bad.is_empty(), "public surface:\n{}", bad.join("\n"));
}

#[test]
fn allow_list_is_short_and_every_entry_has_a_reason() {
    assert!(ALLOWED.len() <= 8);
    for (file, name, reason) in ALLOWED {
        assert!(in_crate_src(file), "{file} is not crate source");
        assert!(
            !name.is_empty() && !reason.is_empty(),
            "{file}: empty entry"
        );
    }
}

/// A synthetic workspace: `crates/a/src/lib.rs` with `lib`, a caller
/// file, and one file per [`ALLOWED`] entry that defines it, so only
/// `lib` decides the verdict.
fn workspace(lib: &str, caller: &str) -> Vec<(String, String)> {
    let mut files = vec![
        ("crates/a/src/lib.rs".to_string(), lib.to_string()),
        ("tests/tests/caller.rs".to_string(), caller.to_string()),
    ];
    for (file, name, _) in ALLOWED {
        files.push((file.to_string(), format!("pub fn {name}() {{}}")));
    }
    files
}

#[test]
fn an_uncalled_pub_fn_is_caught() {
    let lib = "pub fn used() {}\npub async fn unused() {}\npub(crate) fn internal() {}";
    let bad = violations(&workspace(lib, "fn main() { a::used(); }"));
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(
        bad[0].starts_with("crates/a/src/lib.rs:2: `pub fn unused`"),
        "{bad:?}"
    );
}

#[test]
fn a_name_in_a_comment_or_string_is_not_a_caller() {
    let caller = "// unused()\n/* unused /* nested */ */\nconst S: &str = \"unused\";\n\
                  const R: &str = r#\"unused \"#;\nconst C: char = '\"';\n\
                  const Q: char = '\\''; const U: &str = \"unused\";";
    let bad = violations(&workspace("pub const fn unused() {}", caller));
    assert_eq!(bad.len(), 1, "{bad:?}");
}

#[test]
fn a_dead_code_allowance_is_caught() {
    let lib = "struct S {\n    #[allow(unused, dead_code)]\n    id: u32,\n}";
    let bad = violations(&workspace(lib, ""));
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].starts_with("crates/a/src/lib.rs:2:"), "{bad:?}");
}

#[test]
fn a_stale_allow_list_entry_is_caught() {
    let mut files = workspace("", "");
    files.push((
        "tests/tests/more.rs".to_string(),
        "fn f() { hostile_tenant(); }".to_string(),
    ));
    let bad = violations(&files);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].contains("`hostile_tenant`"), "{bad:?}");
}

//! Public means called: every `pub fn` in `crates/*/src` is used outside
//! the file that defines it, by code other than its own crate's tests.
//!
//! The workspace has no users outside this repository, so a function is
//! public only if another file uses it: another crate, a report, an
//! integration test, an example or the benchmark (`perfbench/src`, which
//! may call any public API). A function that only its own file uses is
//! private; one that outside its file only its own crate's tests use
//! (a `#[cfg(test)]` item, a `tests.rs`, anything under `src/**/tests/`)
//! is deleted, narrowed, or named in [`ALLOWED`] with the reason it stays.
//!
//! The compiler finds the uses, so two methods of one name on two types
//! are two items, and a name in a comment or a string is no use. The
//! check copies the workspace under `target/public_surface/`, puts
//! `#[deprecated(note = "surface <n>")]` on every `pub fn`,
//! `pub async fn` and `pub const fn` of `crates/*/src` (`n` numbers the
//! definitions), runs `cargo check --all-targets` on the workspace and on
//! `perfbench/`, and joins each `use of deprecated ...: surface <n>`
//! warning to definition `n`. A `use` declaration warns as well, and is
//! no use: a `pub use` re-export calls nothing. Nor is a doc example:
//! `cargo check` builds no doc test, so a function that only its doc
//! example calls is flagged, and narrowing a function that a doc example
//! calls fails that doc test — such a function goes with its example, or
//! gains a caller. The two cargo runs take about 4 s with their target
//! directory warm and about 14 s cold on two cores, so the check runs
//! with the rest of `cargo test`.
//!
//! The other tests here check the join on synthetic warnings, the
//! allow-list's shape, and walk `crates/*/src` for any
//! `#[allow(dead_code)]`: code that nothing reads is deleted, not
//! silenced.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Component, Path, PathBuf};
use std::process::Command;

/// Public functions that outside their own file only their own crate's
/// tests use, kept on purpose: `(file, item, reason)`, where `item` is
/// `Type::name` for a method and `name` for a free function. At most
/// four.
const ALLOWED: [(&str, &str, &str); 4] = [
    (
        "crates/model/src/design.rs",
        "DesignPoint::predicted_get_us",
        "Table 4's analytic GET row for HW and SW, checked against PAPER_TABLE4",
    ),
    (
        "crates/model/src/design.rs",
        "DesignPoint::predicted_put_rt_us",
        "Table 4's analytic PUT row for HW and SW, checked against PAPER_TABLE4",
    ),
    (
        "crates/am/src/collectives.rs",
        "Coll::allreduce_max",
        "§5.1's collective library: the max reduction beside allreduce_sum",
    ),
    (
        "crates/am/src/collectives.rs",
        "Coll::exscan_sum_u64",
        "§5.1's collective library: the prefix scan",
    ),
];

/// What the copy holds, relative to the workspace root.
const COPIED: [&str; 6] = [
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "examples",
    "tests",
    "perfbench",
];

/// The note that marks a definition; the definition's number follows it.
const NOTE: &str = "surface ";

/// A `pub fn` of `crates/*/src`.
struct Def {
    file: String,
    line: usize,
    /// `Type::name` for a method, `name` for a free function.
    item: String,
}

/// A use of definition `def` at `file:line`, from a compiler warning.
struct Use {
    file: String,
    line: usize,
    def: usize,
}

/// True for a file of a crate's library or binary source,
/// `crates/<name>/src/...`.
fn in_crate_src(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// The leading whitespace of a line.
fn indent_of(line: &str) -> &str {
    &line[..line.len() - line.trim_start().len()]
}

/// The type an `impl` line is for: `impl<T: Copy> Ring<T> {` -> `Ring`.
fn impl_type(line: &str) -> Option<String> {
    let mut rest = line.trim_start().strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.char_indices().find(|&(_, c)| {
            depth += i32::from(c == '<') - i32::from(c == '>');
            depth == 0
        })?;
        rest = &rest[close.0 + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let path = rest.trim_start().split([' ', '<', '{']).next()?;
    path.rsplit("::").next().map(str::to_string)
}

/// Puts the numbered `#[deprecated]` note in front of every `pub fn`,
/// `pub async fn` and `pub const fn` that starts a line of `src`, adding
/// each to `defs`. The note goes on the same line, so line numbers hold.
fn mark(rel: &str, src: &str, defs: &mut Vec<Def>) -> String {
    let mut out = String::with_capacity(src.len());
    let mut ty: Option<(usize, String)> = None;
    for (i, line) in src.lines().enumerate() {
        let code = line.trim_start();
        let depth = line.len() - code.len();
        if let Some(t) = impl_type(line) {
            ty = Some((depth, t));
        } else if code == "}" && ty.as_ref().is_some_and(|(d, _)| *d == depth) {
            ty = None;
        }
        let sig = ["pub fn ", "pub async fn ", "pub const fn "]
            .iter()
            .find_map(|p| code.strip_prefix(p));
        if let Some(sig) = sig {
            let name: String = sig
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let item = match &ty {
                Some((d, t)) if *d < depth => format!("{t}::{name}"),
                _ => name,
            };
            out.push_str(indent_of(line));
            out.push_str(&format!("#[deprecated(note = \"{NOTE}{}\")] ", defs.len()));
            out.push_str(code);
            defs.push(Def {
                file: rel.to_string(),
                line: i + 1,
                item,
            });
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Which lines of `src` are in a `use` declaration, and which are test
/// code: a `#[cfg(test)]` item, from its attribute to its closing brace
/// (the next line that is its indent and `}`) or to its own line when it
/// ends there (`;`, or `,` for a field), or the whole file when it is a
/// `tests.rs` or lies under a `tests/` directory of `src`.
fn line_kinds(rel: &str, src: &str) -> (Vec<bool>, Vec<bool>) {
    let lines: Vec<&str> = src.lines().collect();
    let whole = rel.ends_with("/tests.rs")
        || rel
            .split("/src/")
            .nth(1)
            .is_some_and(|p| p.contains("tests/"));
    let mut in_use = vec![false; lines.len()];
    let mut in_test = vec![whole; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].trim_start();
        let after_vis = match code.strip_prefix("pub") {
            Some(r) if r.starts_with('(') => r.split_once(") ").map_or("", |(_, r)| r),
            Some(r) => r.trim_start(),
            None => code,
        };
        if after_vis.starts_with("use ") {
            while i < lines.len() {
                in_use[i] = true;
                i += 1;
                if lines[i - 1].contains(';') {
                    break;
                }
            }
            continue;
        }
        if code.starts_with("#[cfg(test)]") {
            let start = i;
            while i + 1 < lines.len() && lines[i + 1].trim_start().starts_with("#[") {
                i += 1;
            }
            let item = lines.get(i + 1).copied().unwrap_or("");
            let close = format!("{}}}", indent_of(item));
            let mut end = i + 1;
            if !item.trim_end().ends_with([';', ',']) {
                while end < lines.len() && lines[end] != close {
                    end += 1;
                }
            }
            for t in &mut in_test[start..=end.min(lines.len() - 1)] {
                *t = true;
            }
        }
        i += 1;
    }
    (in_use, in_test)
}

/// `line` without ANSI colour codes (`ESC [ ... m`), which cargo writes
/// into even piped output when colour is forced (`CARGO_TERM_COLOR=always`).
fn plain(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c == '\u{1b}' {
            // The sequence ends at its first letter.
            chars.by_ref().find(char::is_ascii_alphabetic);
        } else {
            out.push(c);
        }
    }
    out
}

/// The uses in cargo's `--message-format=short` output. `dir` is where
/// cargo ran, relative to the copy's root `ws`: paths in the output are
/// relative to it, or absolute.
fn uses(out: &str, ws: &Path, dir: &str) -> Vec<Use> {
    let mut found = Vec::new();
    for line in out.lines() {
        let line = plain(line);
        let Some((loc, msg)) = line.split_once(": warning: use of deprecated ") else {
            continue;
        };
        let Some(def) = msg.rsplit_once(NOTE).and_then(|(_, n)| n.parse().ok()) else {
            continue;
        };
        let mut parts = loc.rsplitn(3, ':');
        let (_col, line, path) = (parts.next(), parts.next(), parts.next());
        let (Some(line), Some(path)) = (line.and_then(|l| l.parse().ok()), path) else {
            continue;
        };
        let path = Path::new(path);
        let full = if path.is_absolute() {
            path.to_path_buf()
        } else {
            ws.join(dir).join(path)
        };
        // `..` is folded by hand: the copy's paths are plain.
        let mut rel = PathBuf::new();
        for c in full.strip_prefix(ws).unwrap_or(&full).components() {
            match c {
                Component::ParentDir => {
                    rel.pop();
                }
                Component::Normal(p) => rel.push(p),
                _ => {}
            }
        }
        found.push(Use {
            file: rel.to_string_lossy().replace('\\', "/"),
            line,
            def,
        });
    }
    found
}

/// `crates/<name>/...` -> `<name>`.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Applies the rule: one message per definition in `defs` that nothing
/// in `found` uses outside its file, bar its own crate's tests, unless
/// `allowed` names it; and one per `allowed` entry that excuses nothing.
/// `sources` holds every file a use may sit in, as the compiler saw it.
fn violations(
    defs: &[Def],
    sources: &BTreeMap<String, String>,
    found: &[Use],
    allowed: &[(&str, &str, &str)],
) -> Vec<String> {
    let kinds: BTreeMap<&str, (Vec<bool>, Vec<bool>)> = sources
        .iter()
        .map(|(rel, src)| (rel.as_str(), line_kinds(rel, src)))
        .collect();
    // Per definition: used at all, used outside its file, and used
    // outside its file by code other than its own crate's tests.
    let mut seen = vec![[false; 3]; defs.len()];
    for u in found {
        let Some((in_use, in_test)) = kinds.get(u.file.as_str()) else {
            panic!("a use in {}, which the check did not copy", u.file);
        };
        let line = u.line - 1;
        if in_use.get(line).copied().unwrap_or(false) {
            continue;
        }
        let def = &defs[u.def];
        let outside = u.file != def.file;
        let own_test = crate_of(&u.file) == crate_of(&def.file)
            && in_crate_src(&u.file)
            && in_test.get(line).copied().unwrap_or(false);
        let s = &mut seen[u.def];
        s[0] = true;
        s[1] |= outside;
        s[2] |= outside && !own_test;
    }
    let mut out = Vec::new();
    let mut excused = vec![false; allowed.len()];
    for (def, s) in defs.iter().zip(&seen) {
        if s[2] {
            continue;
        }
        let pos = allowed
            .iter()
            .position(|(f, n, _)| *f == def.file && *n == def.item);
        match pos {
            Some(k) => excused[k] = true,
            None => {
                let why = match s {
                    [false, ..] => "nothing uses it",
                    [_, false, _] => "only its own file uses it",
                    _ => "outside its file only its crate's tests use it",
                };
                out.push(format!(
                    "{}:{}: `pub fn {}`: {why}: delete it, narrow it, \
                     or name it in ALLOWED with a reason",
                    def.file, def.line, def.item
                ));
            }
        }
    }
    for ((file, item, _), used) in allowed.iter().zip(excused) {
        if !used {
            out.push(format!(
                "ALLOWED names `{item}` in {file}, which is gone or now used elsewhere"
            ));
        }
    }
    out
}

/// Lines of `#[allow(..dead_code..)]` (or `expect`, or the inner `#!`
/// form) in `src`.
fn dead_code_allowances(src: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim_start();
            (l.starts_with("#[") || l.starts_with("#!["))
                && (l.contains("allow(") || l.contains("expect("))
                && l.contains("dead_code")
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// Every file under `dir`, relative to `root`, skipping build output.
fn files_under(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if !(path.ends_with("target") || rel == "perfbench/out") {
                files_under(root, &path, out);
            }
        } else {
            out.push(rel);
        }
    }
}

fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    root.canonicalize().expect("the workspace root")
}

/// Runs `cargo check` on every target of the workspace at `ws/dir` and
/// returns its warnings, one per line.
fn cargo_check(ws: &Path, dir: &str, target: &Path) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(ws.join(dir))
        .args(["check", "--offline", "--workspace", "--all-targets"])
        .args(["--message-format=short", "--color=never", "--target-dir"])
        .arg(target)
        .env_remove("RUSTFLAGS")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .env_remove("CARGO_BUILD_RUSTFLAGS")
        .output()
        .expect("cargo runs");
    let text = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "cargo check in {dir} failed:\n{text}");
    text
}

#[test]
fn every_public_fn_has_a_caller_outside_its_file() {
    let root = workspace_root();
    let scratch = root.join("target/public_surface");
    let ws = scratch.join("ws");
    let mut rels = Vec::new();
    for top in COPIED {
        let p = root.join(top);
        if p.is_dir() {
            files_under(&root, &p, &mut rels);
        } else if p.exists() {
            rels.push(top.to_string());
        }
    }
    // Overlapping runs of this test share the copy: one at a time. The
    // lock is the file's, so it goes with this process.
    fs::create_dir_all(&scratch).expect("scratch dir");
    let lock = fs::File::create(scratch.join("lock")).expect("lock file");
    lock.lock().expect("lock the copy");
    // A fresh copy: a file deleted since the last run must not linger.
    let _ = fs::remove_dir_all(&ws);
    let mut defs = Vec::new();
    let mut sources = BTreeMap::new();
    for rel in &rels {
        let mut bytes = fs::read(root.join(rel)).expect("readable file");
        if rel.ends_with(".rs") {
            let src = String::from_utf8(bytes).expect("UTF-8 source");
            let src = if in_crate_src(rel) {
                mark(rel, &src, &mut defs)
            } else {
                src
            };
            bytes = src.clone().into_bytes();
            sources.insert(rel.clone(), src);
        }
        let dst = ws.join(rel);
        fs::create_dir_all(dst.parent().expect("a parent")).expect("scratch dir");
        fs::write(&dst, bytes).expect("writable scratch");
    }
    assert!(
        defs.len() > 300,
        "found too few pub fns under {}",
        root.display()
    );
    let target = scratch.join("target");
    let mut found = uses(&cargo_check(&ws, ".", &target), &ws, ".");
    found.extend(uses(
        &cargo_check(&ws, "perfbench", &target),
        &ws,
        "perfbench",
    ));
    assert!(
        found.len() > 300,
        "found too few uses: did cargo print warnings?"
    );
    let bad = violations(&defs, &sources, &found, &ALLOWED);
    assert!(bad.is_empty(), "public surface:\n{}", bad.join("\n"));
}

#[test]
fn no_dead_code_allowance_in_crate_sources() {
    let root = workspace_root();
    let mut rels = Vec::new();
    files_under(&root, &root.join("crates"), &mut rels);
    rels.retain(|rel| in_crate_src(rel) && rel.ends_with(".rs"));
    assert!(rels.len() > 50, "found too few crate sources");
    let mut bad = Vec::new();
    for rel in rels {
        let src = fs::read_to_string(root.join(&rel)).expect("readable source");
        for line in dead_code_allowances(&src) {
            bad.push(format!(
                "{rel}:{line}: `dead_code` is allowed: delete what nothing uses instead"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn allow_list_is_short_and_every_entry_has_a_reason() {
    assert!(ALLOWED.len() <= 4);
    for (file, item, reason) in ALLOWED {
        assert!(in_crate_src(file), "{file} is not crate source");
        assert!(
            !item.is_empty() && !reason.is_empty(),
            "{file}: empty entry"
        );
    }
}

#[test]
fn a_dead_code_allowance_is_caught() {
    let src =
        "struct S {\n    #[allow(unused, dead_code)]\n    id: u32,\n}\n// #[allow(dead_code)]";
    assert_eq!(dead_code_allowances(src), [2]);
}

/// Marks the synthetic crate sources of `files` and parses `warnings`,
/// cargo's short output for them, into the rule's verdict.
fn verdict(
    files: &[(&str, &str)],
    warnings: &[String],
    allowed: &[(&str, &str, &str)],
) -> Vec<String> {
    let mut defs = Vec::new();
    let mut sources = BTreeMap::new();
    for (rel, src) in files {
        let src = if in_crate_src(rel) {
            mark(rel, src, &mut defs)
        } else {
            src.to_string()
        };
        sources.insert(rel.to_string(), src);
    }
    let found = uses(&warnings.join("\n"), Path::new("/ws"), ".");
    violations(&defs, &sources, &found, allowed)
}

/// The line cargo prints for a use at `at` (`file:line:col`) of `item`,
/// the definition `mark` numbered `n`.
fn warning(at: &str, item: &str, n: usize) -> String {
    format!("{at}: warning: use of deprecated method `{item}`: surface {n}")
}

/// Two types with a `go` method, `A` (definition 0) and `B` (1).
const TWO_GOES: &str = "pub struct A;\npub struct B;\n\
                        impl A {\n    pub fn go(&self) {}\n}\n\
                        impl B {\n    pub fn go(&self) {}\n}\n";

#[test]
fn an_uncalled_pub_fn_is_caught() {
    let lib = "pub fn used() {}\npub async fn unused() {}\npub(crate) fn internal() {}\n";
    let caller = "fn main() {\n    a::used();\n}\n";
    let bad = verdict(
        &[("crates/a/src/lib.rs", lib), ("tests/tests/t.rs", caller)],
        &[warning("tests/tests/t.rs:2:8", "a::used", 0)],
        &[],
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(
        bad[0].starts_with("crates/a/src/lib.rs:2: `pub fn unused`: nothing uses it"),
        "{bad:?}"
    );
}

#[test]
fn a_name_in_a_comment_or_string_is_not_a_caller() {
    // The compiler warns on uses only, so these mentions leave no line.
    let caller = "// unused()\nconst S: &str = \"unused()\";\n";
    let bad = verdict(
        &[
            ("crates/a/src/lib.rs", "pub const fn unused() {}\n"),
            ("tests/tests/t.rs", caller),
        ],
        &[],
        &[],
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(
        bad[0].contains("`pub fn unused`: nothing uses it"),
        "{bad:?}"
    );
}

#[test]
fn a_same_named_method_of_another_type_is_not_a_caller() {
    let caller = "fn main() {\n    a::A.go();\n}\n";
    let bad = verdict(
        &[
            ("crates/a/src/lib.rs", TWO_GOES),
            ("tests/tests/t.rs", caller),
        ],
        &[warning("tests/tests/t.rs:2:10", "a::A::go", 0)],
        &[],
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(
        bad[0].starts_with("crates/a/src/lib.rs:7: `pub fn B::go`: nothing uses it"),
        "{bad:?}"
    );
}

#[test]
fn a_use_by_its_own_crates_tests_is_not_a_caller() {
    let tests = "use super::*;\n#[test]\nfn t() {\n    A.go();\n}\n";
    let other = "fn f() {\n    a::B.go();\n}\n";
    let files = [
        ("crates/a/src/lib.rs", TWO_GOES),
        ("crates/a/src/tests.rs", tests),
        ("crates/b/src/tests.rs", other),
    ];
    let warnings = [
        warning("crates/a/src/tests.rs:4:7", "a::A::go", 0),
        warning("crates/b/src/tests.rs:2:10", "a::B::go", 1),
    ];
    let bad = verdict(&files, &warnings, &[]);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(
        bad[0].starts_with("crates/a/src/lib.rs:4: `pub fn A::go`: outside its file only"),
        "{bad:?}"
    );
    // Inside a `#[cfg(test)]` module of another file of the crate, too.
    let inline = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                  crate::A.go();\n    }\n}\n";
    let files = [
        ("crates/a/src/lib.rs", TWO_GOES),
        ("crates/a/src/x.rs", inline),
    ];
    let bad = verdict(
        &files,
        &[warning("crates/a/src/x.rs:5:18", "a::A::go", 0)],
        &[],
    );
    assert!(
        bad.iter()
            .any(|b| b.contains("`pub fn A::go`: outside its file only")),
        "{bad:?}"
    );
}

#[test]
fn a_test_only_field_is_test_code_to_its_comma() {
    let src = "struct S {\n    #[cfg(test)]\n    n: u64,\n}\n\
               fn f() {\n    if x {\n        g();\n    }\n}\n";
    let (_, in_test) = line_kinds("crates/a/src/lib.rs", src);
    let want = [false, true, true, false, false, false, false, false, false];
    assert_eq!(in_test, want);
}

#[test]
fn a_pub_use_is_not_a_caller() {
    let lib = "mod m;\npub use m::{\n    free,\n};\n";
    let bad = verdict(
        &[
            ("crates/a/src/lib.rs", lib),
            ("crates/a/src/m.rs", "pub fn free() {}\n"),
        ],
        &[warning("crates/a/src/lib.rs:3:5", "a::m::free", 0)],
        &[],
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].contains("`pub fn free`: nothing uses it"), "{bad:?}");
}

#[test]
fn a_coloured_warning_is_read() {
    // Cargo's short output with colour forced, as it prints it.
    let line = "tests/tests/t.rs:2:10: \u{1b}[1m\u{1b}[33mwarning\u{1b}[0m: \
                use of deprecated method `a::A::go`: surface 0";
    let found = uses(line, Path::new("/ws"), ".");
    assert_eq!(found.len(), 1);
    assert_eq!(
        (found[0].file.as_str(), found[0].line, found[0].def),
        ("tests/tests/t.rs", 2, 0)
    );
}

#[test]
fn a_stale_allow_list_entry_is_caught() {
    let caller = "fn main() {\n    a::A.go();\n    a::B.go();\n}\n";
    let files = [
        ("crates/a/src/lib.rs", TWO_GOES),
        ("tests/tests/t.rs", caller),
    ];
    let warnings = [
        warning("tests/tests/t.rs:2:10", "a::A::go", 0),
        warning("tests/tests/t.rs:3:10", "a::B::go", 1),
    ];
    let allowed = [("crates/a/src/lib.rs", "B::go", "kept")];
    let bad = verdict(&files, &warnings, &allowed);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].starts_with("ALLOWED names `B::go`"), "{bad:?}");
    // The same entry excuses `B::go` when nothing else uses it.
    let bad = verdict(&files, &warnings[..1], &allowed);
    assert!(bad.is_empty(), "{bad:?}");
}

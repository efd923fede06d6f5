//! `srclint` — the workspace source-invariant lint.
//!
//! Text/AST-light by design (no registry deps, no syn): it scans every
//! `.rs` file with a comment/string-aware line sanitizer and enforces the
//! invariants that keep the concurrency story auditable:
//!
//! - **`unsafe-safety`** — every `unsafe` keyword carries a `// SAFETY:`
//!   comment on the same line or within the three lines above it.
//! - **`concurrency-containment`** — raw `std::sync::Mutex`,
//!   `std::sync::Condvar`, `std::thread::spawn` and scoped `scope.spawn(`
//!   calls appear only in the designated sync-shim modules
//!   (`crates/*/src/sync.rs`), in `crates/chk`, in devtools, and in test
//!   code. Production code reaches the primitives through its crate's
//!   `sync` module (scoped threads through `sync::spawn_scoped`), which is
//!   the single point where the `chk` model-checking feature swaps them
//!   out.
//! - **`server-no-unwrap`** — no `unwrap()`/`expect()` in `sfq-server`'s
//!   request-handling paths (`daemon.rs`, `jobs.rs`, `state.rs`,
//!   `protocol.rs`): a malformed request or poisoned lock must degrade,
//!   never crash the daemon.
//! - **`no-static-mut`** — `static mut` is banned outright.
//! - **`cfg-feature-declared`** — every `feature = "..."` named in a
//!   `cfg`/`cfg_attr` condition is declared in the owning crate's
//!   manifest, so a typo can't silently compile a feature gate away.
//!
//! Known textual limits (documented, deliberate): multi-line string
//! literals and `r#"..."#` raw strings are not tracked across lines, and
//! `#[cfg(test)]` regions are approximated as "everything from the first
//! `#[cfg(test)]` line to end of file" — which matches the workspace's
//! universal tests-module-at-the-bottom layout.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One lint finding, formatted as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Strips comments from one line of Rust source, tracking block-comment
/// state across lines. String literal *contents* are dropped too unless
/// `keep_strings` (they could contain any token); char literals and
/// lifetimes are distinguished well enough for token scanning.
fn sanitize_line(line: &str, in_block_comment: &mut bool, keep_strings: bool) -> String {
    let b = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < b.len() {
        if *in_block_comment {
            if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break,
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                *in_block_comment = true;
                i += 2;
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                        continue;
                    }
                    if b[i] == b'"' {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                if keep_strings {
                    out.push_str(&line[start..i.min(b.len())]);
                } else {
                    out.push_str("\"\"");
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal is `'x'` or `'\x'`;
                // anything else (e.g. `'scope`) is a lifetime.
                let is_escape = i + 1 < b.len() && b[i + 1] == b'\\';
                let is_char = is_escape || (i + 2 < b.len() && b[i + 2] == b'\'');
                if is_char {
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                            continue;
                        }
                        if b[i] == b'\'' {
                            i += 1;
                            break;
                        }
                        i += 1;
                    }
                    out.push_str("' '");
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Whether `text` contains `token` as a standalone token (neither side
/// continues an identifier).
fn has_token(text: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = after >= text.len()
            || !text[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':');
        if before_ok && after_ok {
            return true;
        }
        from = at + token.len();
    }
    false
}

/// Files allowed to hold raw std concurrency primitives.
fn concurrency_exempt(rel: &str) -> bool {
    rel.starts_with("crates/chk/")
        || rel.starts_with("crates/devtools/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        // `#[cfg(test)] mod tests;` bodies: test code by the workspace's
        // layout convention, though the gate sits in the parent module.
        || rel.ends_with("/src/tests.rs")
        // The per-crate sync-shim modules: the one sanctioned home of the
        // raw primitives, swapped out under the `chk` feature.
        || (rel.starts_with("crates/") && rel.ends_with("/src/sync.rs"))
}

/// The sfq-server request-handling paths where `unwrap`/`expect` is banned.
fn server_request_path(rel: &str) -> bool {
    matches!(
        rel,
        "crates/server/src/daemon.rs"
            | "crates/server/src/jobs.rs"
            | "crates/server/src/state.rs"
            | "crates/server/src/protocol.rs"
            | "crates/server/src/queue.rs"
    )
}

/// Extracts every `feature = "name"` from a line that carries a cfg
/// condition.
fn cfg_features(sanitized_with_strings: &str) -> Vec<String> {
    let s = sanitized_with_strings;
    if !s.contains("cfg") {
        return Vec::new();
    }
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(pos) = s[from..].find("feature") {
        let at = from + pos;
        from = at + "feature".len();
        let rest = s[from..].trim_start();
        let Some(rest) = rest.strip_prefix('=') else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('"') else {
            continue;
        };
        if let Some(end) = rest.find('"') {
            names.push(rest[..end].to_string());
        }
    }
    names
}

/// Lints one file's content. `features` is the set of feature names the
/// owning crate's manifest declares.
pub fn lint_source(rel: &str, content: &str, features: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut in_block_comment = false;
    let mut in_block_comment_keep = false;
    let mut past_cfg_test = false;
    for (idx, raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = sanitize_line(raw, &mut in_block_comment, false);
        let code_with_strings = sanitize_line(raw, &mut in_block_comment_keep, true);
        if code.contains("#[cfg(test)]") {
            past_cfg_test = true;
        }

        // unsafe-safety: applies everywhere, tests included — an
        // undocumented unsafe block in a test is still an audit gap.
        if has_token(&code, "unsafe") && !code.contains("unsafe_code") {
            let documented = raw.contains("SAFETY:")
                || lines[idx.saturating_sub(3)..idx]
                    .iter()
                    .any(|l| l.contains("SAFETY:"));
            if !documented {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "unsafe-safety",
                    message: "`unsafe` without a `// SAFETY:` comment on the same line \
                              or within the three lines above"
                        .to_string(),
                });
            }
        }

        // no-static-mut: applies everywhere.
        if has_token(&code, "static") && code.contains("static mut ") {
            findings.push(Finding {
                path: rel.to_string(),
                line: line_no,
                rule: "no-static-mut",
                message: "`static mut` is banned; use an atomic, a lock, or OnceLock".to_string(),
            });
        }

        // cfg-feature-declared: applies everywhere.
        for name in cfg_features(&code_with_strings) {
            if !features.contains(&name) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "cfg-feature-declared",
                    message: format!(
                        "cfg names feature `{name}` which the crate's manifest does not declare"
                    ),
                });
            }
        }

        if past_cfg_test {
            continue;
        }

        // concurrency-containment: production code only.
        if !concurrency_exempt(rel) {
            for token in [
                "std::thread::spawn",
                "std::sync::Mutex",
                "std::sync::Condvar",
                "scope.spawn(",
            ] {
                if code.contains(token) {
                    let fix = if token == "scope.spawn(" {
                        "spawn through `sync::spawn_scoped`"
                    } else {
                        "import it through the crate's `sync` module"
                    };
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: line_no,
                        rule: "concurrency-containment",
                        message: format!(
                            "raw `{token}` outside the sync-shim modules; {fix} instead"
                        ),
                    });
                }
            }
            let trimmed = code.trim_start();
            if trimmed.starts_with("use std::sync::{")
                && (has_token(trimmed, "Mutex") || has_token(trimmed, "Condvar"))
            {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "concurrency-containment",
                    message: "raw `Mutex`/`Condvar` import from std::sync outside the \
                              sync-shim modules"
                        .to_string(),
                });
            }
        }

        // server-no-unwrap: request-handling paths only.
        if server_request_path(rel) && (code.contains(".unwrap()") || code.contains(".expect(")) {
            findings.push(Finding {
                path: rel.to_string(),
                line: line_no,
                rule: "server-no-unwrap",
                message: "unwrap/expect in a request-handling path; degrade instead \
                          (e.g. `unwrap_or_else(|e| e.into_inner())` for lock poisoning)"
                    .to_string(),
            });
        }
    }
    findings
}

/// Parses the feature names a Cargo manifest declares: `[features]` keys
/// plus optional dependencies (whose names are implicit features).
pub fn manifest_features(manifest: &str) -> BTreeSet<String> {
    let mut features = BTreeSet::new();
    let mut section = String::new();
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            // `[dependencies.foo]` style subsections.
            if let Some(dep) = section
                .strip_prefix("dependencies.")
                .or_else(|| section.strip_prefix("dev-dependencies."))
            {
                section = format!("dep-subsection:{dep}");
            }
            continue;
        }
        if section == "features" {
            if let Some((key, _)) = line.split_once('=') {
                let key = key.trim();
                if !key.is_empty() && !key.starts_with('#') {
                    features.insert(key.to_string());
                }
            }
        } else if section.ends_with("dependencies") {
            if line.contains("optional") && line.contains("true") {
                if let Some((key, _)) = line.split_once('=') {
                    features.insert(key.trim().to_string());
                }
            }
        } else if let Some(dep) = section.strip_prefix("dep-subsection:") {
            if line.replace(' ', "") == "optional=true" {
                features.insert(dep.to_string());
            }
        }
    }
    features
}

/// Collects every `.rs` file under `root`, skipping build output and VCS
/// metadata. Paths come back sorted for deterministic output.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The manifest governing `file`: the nearest `Cargo.toml` walking up
/// toward (and including) `root`.
fn owning_manifest(root: &Path, file: &Path) -> Option<PathBuf> {
    let mut dir = file.parent()?.to_path_buf();
    loop {
        let candidate = dir.join("Cargo.toml");
        if candidate.is_file() {
            return Some(candidate);
        }
        if dir == root {
            return None;
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Lints the whole workspace rooted at `root`. Returns all findings,
/// sorted by path and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut manifest_cache: std::collections::BTreeMap<PathBuf, BTreeSet<String>> =
        std::collections::BTreeMap::new();
    let mut findings = Vec::new();
    for file in collect_rs_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&file)?;
        let features = match owning_manifest(root, &file) {
            Some(manifest_path) => manifest_cache
                .entry(manifest_path.clone())
                .or_insert_with(|| {
                    std::fs::read_to_string(&manifest_path)
                        .map(|m| manifest_features(&m))
                        .unwrap_or_default()
                })
                .clone(),
            None => BTreeSet::new(),
        };
        findings.extend(lint_source(&rel, &content, &features));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_comment_clears_it() {
        let bad = "fn f() {\n    unsafe {\n        work();\n    }\n}\n";
        let found = lint_source("crates/x/src/lib.rs", bad, &feats(&[]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "unsafe-safety");
        assert_eq!(found[0].line, 2);

        let good = "fn f() {\n    // SAFETY: no aliasing, checked above.\n    unsafe {\n        work();\n    }\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", good, &feats(&[])).is_empty());
    }

    #[test]
    fn unsafe_in_comments_strings_and_forbid_attr_is_ignored() {
        let content =
            "// unsafe in a comment\nlet s = \"unsafe in a string\";\n#![forbid(unsafe_code)]\n";
        assert!(lint_source("crates/x/src/lib.rs", content, &feats(&[])).is_empty());
    }

    #[test]
    fn raw_primitives_flagged_outside_shims_allowed_inside() {
        let content =
            "use std::sync::Mutex;\nlet m: std::sync::Condvar;\nstd::thread::spawn(|| {});\n";
        let found = lint_source("crates/x/src/other.rs", content, &feats(&[]));
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|f| f.rule == "concurrency-containment"));

        assert!(lint_source("crates/x/src/sync.rs", content, &feats(&[])).is_empty());
        assert!(lint_source("crates/chk/src/sched.rs", content, &feats(&[])).is_empty());
        assert!(lint_source("crates/x/tests/stress.rs", content, &feats(&[])).is_empty());
    }

    #[test]
    fn raw_scoped_spawn_is_flagged_and_the_funnel_is_not() {
        let raw = "std::thread::scope(|scope| {\n    scope.spawn(|| work());\n});\n";
        let found = lint_source("crates/x/src/other.rs", raw, &feats(&[]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "concurrency-containment");
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("scope.spawn("));

        let funnel = "std::thread::scope(|scope| {\n    let h = sync::spawn_scoped(scope, || work());\n    h.join();\n});\n";
        assert!(lint_source("crates/x/src/other.rs", funnel, &feats(&[])).is_empty());
        assert!(lint_source("crates/x/src/sync.rs", raw, &feats(&[])).is_empty());
        assert!(lint_source("crates/x/src/tests.rs", raw, &feats(&[])).is_empty());
    }

    #[test]
    fn brace_imports_of_mutex_are_flagged() {
        let content = "use std::sync::{Condvar, Mutex};\n";
        let found = lint_source("crates/x/src/other.rs", content, &feats(&[]));
        assert_eq!(found.len(), 1);
        // But innocuous std::sync imports are not.
        let ok = "use std::sync::{mpsc, Arc, OnceLock};\n";
        assert!(lint_source("crates/x/src/other.rs", ok, &feats(&[])).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt_from_containment_and_unwrap() {
        let content = "fn main() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/server/src/state.rs", content, &feats(&[])).is_empty());
    }

    #[test]
    fn server_unwrap_flagged_only_on_request_paths() {
        let content = "fn f() { y.lock().expect(\"lock\"); }\n";
        let found = lint_source("crates/server/src/daemon.rs", content, &feats(&[]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "server-no-unwrap");
        assert!(lint_source("crates/server/src/client.rs", content, &feats(&[])).is_empty());
        assert!(lint_source("crates/cli/src/lib.rs", content, &feats(&[])).is_empty());
    }

    #[test]
    fn static_mut_is_always_flagged() {
        let content = "static mut COUNTER: usize = 0;\n";
        let found = lint_source("crates/chk/src/sched.rs", content, &feats(&[]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "no-static-mut");
    }

    #[test]
    fn undeclared_cfg_feature_is_flagged() {
        let content = "#[cfg(feature = \"simd\")]\nfn a() {}\n#[cfg(any(test, feature = \"smid\"))]\nfn b() {}\nlet x = cfg!(feature = \"simd\");\n";
        let found = lint_source("crates/x/src/lib.rs", content, &feats(&["simd"]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "cfg-feature-declared");
        assert!(found[0].message.contains("smid"));
    }

    #[test]
    fn manifest_features_cover_sections_and_optional_deps() {
        let manifest = "[package]\nname = \"x\"\n\n[features]\ndefault = [\"simd\"]\nsimd = []\nchk = [\"dep:chk\"]\n\n[dependencies]\nchk = { workspace = true, optional = true }\nserde = \"1\"\n\n[dependencies.extra]\nversion = \"1\"\noptional = true\n";
        let f = manifest_features(manifest);
        for name in ["default", "simd", "chk", "extra"] {
            assert!(f.contains(name), "missing {name}: {f:?}");
        }
        assert!(!f.contains("serde"));
    }

    #[test]
    fn feature_mention_in_doc_comment_is_ignored() {
        let content = "/// Enable with cfg feature = \"made-up\" for fun.\nfn f() {}\n";
        assert!(lint_source("crates/x/src/lib.rs", content, &feats(&[])).is_empty());
    }
}

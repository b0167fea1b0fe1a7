//! The cross-file workspace model: names extracted from every analyzed
//! source file, accumulated over one lint run and handed to the contract
//! rules ([`crate::contracts`]).
//!
//! Per-file rules see one [`Analysis`] at a time; the contract rules need
//! the whole workspace at once — every `SDEA_*` env read, every obs
//! span/counter/histogram name, every `b"SD.."` blob-kind constant and the
//! config structs feeding the checkpoint fingerprint. [`WorkspaceModel::absorb`]
//! pulls those out of each file's literal channel (the lexer records every
//! string literal's contents anchored to its blanked position, so a name
//! mentioned in a comment or a doc example never enrolls) and the checks
//! then run against the committed registries.

use crate::analysis::{find_word, skip_balanced, Analysis};
use std::collections::BTreeSet;

/// How an `SDEA_*` literal reaches the process environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvAccess {
    /// Through a `sdea_obs::env` strict helper (`parse_or_exit`, …).
    Strict,
    /// Through `std::env` directly (`var`, `var_os`, `set_var`, …).
    Raw,
    /// Any other position: a comparison, a table entry, a format argument.
    Mention,
}

/// One `SDEA_*` environment-variable literal site.
#[derive(Debug, Clone)]
pub struct EnvSite {
    pub file: String,
    /// 1-based line for diagnostics.
    pub line: usize,
    pub crate_key: String,
    pub var: String,
    pub access: EnvAccess,
    /// On a production line (not vendor/test/example/`#[cfg(test)]`).
    pub prod: bool,
}

/// The three observability name kinds, matching the `sdea_obs` API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsKind {
    Span,
    Counter,
    Histogram,
}

impl ObsKind {
    pub fn label(self) -> &'static str {
        match self {
            ObsKind::Span => "span",
            ObsKind::Counter => "counter",
            ObsKind::Histogram => "histogram",
        }
    }
}

/// One obs-name literal site (`span("eval.cosine_matrix")`, `add("ckpt.writes", n)`…).
#[derive(Debug, Clone)]
pub struct ObsSite {
    pub file: String,
    pub line: usize,
    pub crate_key: String,
    pub kind: ObsKind,
    pub name: String,
    pub prod: bool,
}

/// One `b"SD.."` blob-kind literal site.
#[derive(Debug, Clone)]
pub struct BlobSite {
    pub file: String,
    pub line: usize,
    pub kind: String,
    /// The constant name when this literal is a `const NAME: &[u8; 4] =`
    /// definition; `None` for inline uses.
    pub const_name: Option<String>,
    pub prod: bool,
}

/// One public field of a fingerprint-enrolled config struct.
#[derive(Debug, Clone)]
pub struct ConfigField {
    pub file: String,
    pub line: usize,
    /// `SdeaConfig`.
    pub strukt: &'static str,
    pub name: String,
    /// Carries a `// fingerprint: excluded(<reason>)` justification.
    pub excluded: bool,
}

/// The fingerprint-enrolled config structs and where they live.
pub const FPRINT_STRUCTS: &[(&str, &str)] = &[("crates/core/src/config.rs", "SdeaConfig")];

/// The fingerprint function whose body must mention every enrolled field.
pub const FPRINT_FN: (&str, &str) = ("crates/core/src/checkpoint.rs", "config_fingerprint");

/// Everything the contract rules need from a full workspace scan.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub env_sites: Vec<EnvSite>,
    pub obs_sites: Vec<ObsSite>,
    pub blob_sites: Vec<BlobSite>,
    pub config_fields: Vec<ConfigField>,
    /// Body text of the fingerprint function (empty if not seen).
    pub fingerprint_body: String,
    /// Concatenated non-production code lines of every scanned file — the
    /// corpus blob-kind test references are grepped from.
    pub test_code: String,
    /// `SDEA_*` tokens found in README.md (set via [`Self::set_readme`]).
    pub readme_env: BTreeSet<String>,
}

/// Strict helpers exported by `sdea_obs::env`; a call through one of these
/// satisfies `R-ENV-STRICT`.
const STRICT_HELPERS: &[&str] = &[
    "check_parse",
    "check_bool",
    "check_enum",
    "parse_or_exit",
    "bool_or_exit",
    "enum_or_exit",
    "string_or_exit",
];

/// Raw `std::env` accessors; a call through one of these violates
/// `R-ENV-STRICT` outside the env-helper implementation itself.
const RAW_ACCESSORS: &[&str] = &["var", "var_os", "set_var", "remove_var"];

impl WorkspaceModel {
    /// Extracts every contract-relevant name from one analyzed file.
    pub fn absorb(&mut self, a: &Analysis) {
        if a.is_vendor {
            return;
        }
        let obs_imports = obs_imports(&a.joined);
        for (off, lit) in a.literals_with_offsets() {
            let prod = a.is_prod_line(lit.line);
            if !prod {
                continue;
            }
            if !lit.byte_string && is_env_var_name(&lit.text) {
                self.env_sites.push(EnvSite {
                    file: a.rel.clone(),
                    line: lit.line + 1,
                    crate_key: a.crate_key.clone(),
                    var: lit.text.clone(),
                    access: classify_env(&a.joined, off),
                    prod,
                });
            }
            if !lit.byte_string {
                if let Some(kind) = obs_call(&a.joined, off, &obs_imports) {
                    self.obs_sites.push(ObsSite {
                        file: a.rel.clone(),
                        line: lit.line + 1,
                        crate_key: a.crate_key.clone(),
                        kind,
                        name: lit.text.clone(),
                        prod,
                    });
                }
            }
            if lit.byte_string && lit.text.len() == 4 && lit.text.starts_with("SD") {
                self.blob_sites.push(BlobSite {
                    file: a.rel.clone(),
                    line: lit.line + 1,
                    kind: lit.text.clone(),
                    const_name: const_name_before(&a.joined, off),
                    prod,
                });
            }
        }
        for (i, code) in a.clean.code_lines.iter().enumerate() {
            if !a.is_prod_line(i) {
                self.test_code.push_str(code);
                self.test_code.push('\n');
            }
        }
        for &(file, strukt) in FPRINT_STRUCTS {
            if a.rel == file {
                self.collect_fields(a, strukt);
            }
        }
        if a.rel == FPRINT_FN.0 {
            if let Some(body) = fn_body(&a.joined, FPRINT_FN.1) {
                self.fingerprint_body = body.to_string();
            }
        }
    }

    /// Records the `SDEA_*` tokens README.md documents.
    pub fn set_readme(&mut self, text: &str) {
        self.readme_env = env_tokens(text);
    }

    fn collect_fields(&mut self, a: &Analysis, strukt: &'static str) {
        let Some((open, close)) = struct_body(&a.joined, strukt) else { return };
        let body = &a.joined[open..close];
        let mut depth = 0i32;
        let mut line_start = 0usize;
        for (i, b) in body.bytes().enumerate() {
            match b {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => depth -= 1,
                b'\n' => line_start = i + 1,
                _ => {}
            }
            // a field declaration sits at the struct body's own depth (the
            // outer braces are excluded from `body`)
            if b == b':' && depth == 0 {
                let decl = body[line_start..i].trim_start();
                if let Some(rest) = decl.strip_prefix("pub ") {
                    let name: String = rest
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() && rest.trim() == name {
                        let line = a.line_of(open + i);
                        self.config_fields.push(ConfigField {
                            file: a.rel.clone(),
                            line: line + 1,
                            strukt,
                            name,
                            excluded: a.justified(line, "fingerprint: excluded"),
                        });
                    }
                }
            }
        }
    }
}

/// Exact `SDEA_*` variable-name literals (a sentence merely *containing* a
/// variable name — an error message, a log line — is not a read site).
pub fn is_env_var_name(text: &str) -> bool {
    text.len() > 5
        && text.starts_with("SDEA_")
        && text.bytes().all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// All exact `SDEA_*` tokens in free text (README cross-check).
pub fn env_tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let b = text.as_bytes();
    for p in crate::analysis::find_all(text, "SDEA_") {
        if p > 0 && (b[p - 1].is_ascii_alphanumeric() || b[p - 1] == b'_') {
            continue;
        }
        let mut e = p + 5;
        while e < b.len() && (b[e].is_ascii_uppercase() || b[e].is_ascii_digit() || b[e] == b'_') {
            e += 1;
        }
        let tok = text[p..e].trim_end_matches('_');
        if tok.len() > 5 {
            out.insert(tok.to_string());
        }
    }
    out
}

/// The call path whose argument list the literal anchored at `anchor`
/// opens, e.g. `sdea_obs::env::parse_or_exit` for
/// `parse_or_exit::<usize>("SDEA_THREADS"`. Returns the `::`-separated
/// path and whether it was invoked as a method (`recv.name(`).
fn callee_path(joined: &str, anchor: usize) -> Option<(Vec<String>, bool)> {
    let b = joined.as_bytes();
    let mut i = anchor;
    // back over whitespace (multi-line calls put the literal on its own line)
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 || b[i - 1] != b'(' {
        return None;
    }
    i -= 1;
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    // optional turbofish between the callee and its parenthesis
    if i > 0 && b[i - 1] == b'>' {
        let open = joined[..i].rfind('<')?;
        i = open;
        if !joined[..i].ends_with("::") {
            return None;
        }
        i -= 2;
    }
    let mut segs: Vec<String> = Vec::new();
    loop {
        let mut s = i;
        while s > 0 && (b[s - 1].is_ascii_alphanumeric() || b[s - 1] == b'_') {
            s -= 1;
        }
        if s == i {
            return None;
        }
        segs.push(joined[s..i].to_string());
        i = s;
        if i >= 2 && &joined[i - 2..i] == "::" {
            i -= 2;
        } else {
            break;
        }
    }
    let method = i > 0 && b[i - 1] == b'.';
    segs.reverse();
    Some((segs, method))
}

/// Classifies how the env-var literal at `anchor` is accessed.
fn classify_env(joined: &str, anchor: usize) -> EnvAccess {
    let Some((segs, method)) = callee_path(joined, anchor) else { return EnvAccess::Mention };
    let Some(last) = segs.last() else { return EnvAccess::Mention };
    if !method && RAW_ACCESSORS.contains(&last.as_str()) {
        return EnvAccess::Raw;
    }
    if !method && STRICT_HELPERS.contains(&last.as_str()) {
        return EnvAccess::Strict;
    }
    EnvAccess::Mention
}

/// Identifiers a file imports from `sdea_obs` (`use sdea_obs::{span, add};`).
fn obs_imports(joined: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in joined.lines() {
        let t = line.trim_start();
        if t.starts_with("use sdea_obs") || t.starts_with("pub use sdea_obs") {
            for w in t.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
                if !w.is_empty() {
                    out.insert(w.to_string());
                }
            }
        }
    }
    out
}

/// Is the literal at `anchor` the name argument of an `sdea_obs`
/// span/counter/histogram call? Method calls (`store.add("lm.emb", …)`) and
/// local shadowing functions never qualify: the callee must be
/// `sdea_obs`-qualified or imported from it in this file.
fn obs_call(joined: &str, anchor: usize, imports: &BTreeSet<String>) -> Option<ObsKind> {
    let (segs, method) = callee_path(joined, anchor)?;
    if method {
        return None;
    }
    let last = segs.last()?.as_str();
    let kind = match last {
        "span" => ObsKind::Span,
        "counter" | "add" => ObsKind::Counter,
        "record" => ObsKind::Histogram,
        _ => return None,
    };
    let qualified = segs.iter().any(|s| s == "sdea_obs" || s == "obs");
    if qualified || imports.contains(last) {
        Some(kind)
    } else {
        None
    }
}

/// When the literal at `anchor` is the right-hand side of a
/// `const NAME: &[u8; 4] =` declaration, the constant's name.
fn const_name_before(joined: &str, anchor: usize) -> Option<String> {
    // kind constants are single-line declarations; a statement-boundary
    // scan would trip over the `;` inside `&[u8; 4]`
    let line_start = joined[..anchor].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let decl = &joined[line_start..anchor];
    if !decl.contains("[u8") || !decl.contains('=') {
        return None;
    }
    let c = find_word(decl, "const").into_iter().next()?;
    let name: String = decl[c + 5..]
        .trim_start()
        .chars()
        .take_while(|ch| ch.is_ascii_alphanumeric() || *ch == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The body (between the outer braces) of `fn name` in cleaned code.
fn fn_body<'a>(joined: &'a str, name: &str) -> Option<&'a str> {
    for p in find_word(joined, name) {
        if !joined[..p].trim_end().ends_with("fn") {
            continue;
        }
        let open = joined[p..].find('{').map(|k| k + p)?;
        let close = skip_balanced(joined, open)?;
        return Some(&joined[open + 1..close - 1]);
    }
    None
}

/// The `{`..`}` span (byte offsets, exclusive of braces content bounds) of
/// `struct name` in cleaned code. Returns (open+1, close-1).
fn struct_body(joined: &str, name: &str) -> Option<(usize, usize)> {
    for p in find_word(joined, name) {
        if !joined[..p].trim_end().ends_with("struct") {
            continue;
        }
        let open = joined[p..].find('{').map(|k| k + p)?;
        // `;` before `{` means a unit/tuple struct or an unrelated brace
        if joined[p..open].contains(';') {
            continue;
        }
        let close = skip_balanced(joined, open)?;
        return Some((open + 1, close - 1));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_for(rel: &str, src: &str) -> WorkspaceModel {
        let mut m = WorkspaceModel::default();
        m.absorb(&Analysis::new(rel, src));
        m
    }

    #[test]
    fn env_classification_strict_raw_and_mention() {
        let src = "use sdea_obs::env::parse_or_exit;\n\
                   pub fn f() {\n\
                       let _ = parse_or_exit::<usize>(\"SDEA_ALPHA\", \"int\");\n\
                       let _ = std::env::var(\"SDEA_BETA\");\n\
                       let _ = \"SDEA_GAMMA\";\n\
                   }\n";
        let m = model_for("crates/core/src/x.rs", src);
        let by: std::collections::BTreeMap<_, _> =
            m.env_sites.iter().map(|s| (s.var.as_str(), s.access)).collect();
        assert_eq!(by["SDEA_ALPHA"], EnvAccess::Strict);
        assert_eq!(by["SDEA_BETA"], EnvAccess::Raw);
        assert_eq!(by["SDEA_GAMMA"], EnvAccess::Mention);
    }

    #[test]
    fn multiline_call_with_turbofish_resolves() {
        let src = "pub fn f() {\n\
                       let _ = sdea_obs::env::parse_or_exit::<u64>(\n\
                           \"SDEA_DELTA\",\n\
                           \"an integer\",\n\
                       );\n\
                   }\n";
        let m = model_for("crates/serve/src/x.rs", src);
        assert_eq!(m.env_sites.len(), 1);
        assert_eq!(m.env_sites[0].access, EnvAccess::Strict);
    }

    #[test]
    fn env_sentences_are_not_sites() {
        let src = "pub fn f() { die(\"SDEA_EPSILON is 0: expected positive\"); }\n";
        let m = model_for("crates/core/src/x.rs", src);
        assert!(m.env_sites.is_empty(), "{:?}", m.env_sites);
    }

    #[test]
    fn obs_calls_require_qualification_or_import() {
        let src = "use sdea_obs::{add, span};\n\
                   pub fn f() {\n\
                       let _s = span(\"eval.step\");\n\
                       add(\"eval.cells\", 1);\n\
                       sdea_obs::record(\"eval.loss\", 0.5);\n\
                       store.add(\"lm.tok_emb\", t);\n\
                       local_counter(\"eval.local\");\n\
                   }\n\
                   fn local_counter(name: &str) -> u64 { 0 }\n";
        let m = model_for("crates/eval/src/x.rs", src);
        let names: Vec<_> = m.obs_sites.iter().map(|s| (s.kind, s.name.as_str())).collect();
        assert_eq!(
            names,
            vec![
                (ObsKind::Span, "eval.step"),
                (ObsKind::Counter, "eval.cells"),
                (ObsKind::Histogram, "eval.loss"),
            ]
        );
    }

    #[test]
    fn bare_counter_without_import_is_skipped() {
        let src = "fn counter(name: &str) -> u64 { 0 }\n\
                   pub fn f() { let _ = counter(\"eval.local\"); }\n";
        let m = model_for("crates/bench/src/bin/bench_kernels.rs", src);
        assert!(m.obs_sites.is_empty(), "{:?}", m.obs_sites);
    }

    #[test]
    fn blob_const_and_inline_sites() {
        let src = "pub const STORE_KIND: &[u8; 4] = b\"SDXQ\";\n\
                   pub fn f(h: &[u8]) -> bool { &h[..4] == b\"SDXQ\" }\n";
        let m = model_for("crates/tensor/src/x.rs", src);
        assert_eq!(m.blob_sites.len(), 2);
        assert_eq!(m.blob_sites[0].const_name.as_deref(), Some("STORE_KIND"));
        assert!(m.blob_sites[1].const_name.is_none());
    }

    #[test]
    fn test_code_accumulates_for_reference_grep() {
        let src = "pub const K: &[u8; 4] = b\"SDXR\";\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn corrupt() { assert_ne!(&[0u8; 4], super::K); }\n\
                   }\n";
        let m = model_for("crates/tensor/src/x.rs", src);
        assert!(!find_word(&m.test_code, "K").is_empty());
    }

    #[test]
    fn config_fields_and_exclusions() {
        let src = "pub struct SdeaConfig {\n\
                       pub dim: usize,\n\
                       /// worker budget\n\
                       // fingerprint: excluded(execution knob, never shapes results)\n\
                       pub threads: usize,\n\
                       pub pooling: Pooling,\n\
                   }\n";
        let m = model_for("crates/core/src/config.rs", src);
        let f: std::collections::BTreeMap<_, _> =
            m.config_fields.iter().map(|f| (f.name.as_str(), f.excluded)).collect();
        assert_eq!(f.len(), 3, "{:?}", m.config_fields);
        assert!(!f["dim"]);
        assert!(f["threads"]);
        assert!(!f["pooling"]);
    }

    #[test]
    fn fingerprint_body_extracted() {
        let src = "pub fn config_fingerprint(cfg: &SdeaConfig) -> u64 {\n\
                       let mut s = String::new();\n\
                       s.push_str(&cfg.dim.to_string());\n\
                       fnv(&s)\n\
                   }\n";
        let m = model_for("crates/core/src/checkpoint.rs", src);
        assert!(m.fingerprint_body.contains("cfg.dim"));
    }

    #[test]
    fn readme_tokens() {
        let toks = env_tokens("set SDEA_THREADS=8; the SDEA_ prefix; | `SDEA_OBS` |");
        assert!(toks.contains("SDEA_THREADS"));
        assert!(toks.contains("SDEA_OBS"));
        assert_eq!(toks.len(), 2, "{toks:?}");
    }
}

//! The named, individually-testable invariant rules.
//!
//! Every rule reports `file:line: rule-id: message` diagnostics against the
//! cleaned code channel of an [`Analysis`], so comments and string literals
//! can never fire a rule, and multi-line constructs (the
//! `partial_cmp(..)\n.unwrap()` the old grep gate provably missed) are
//! matched across line breaks. See `DESIGN.md` §11 for the rule table and
//! the justification-comment syntax.

use crate::analysis::{
    find_all, find_word, skip_balanced, Analysis, ATOMIC_WRITE_IMPLS, COMPUTE_CRATES,
    SPAWN_ALLOWED_FILE, UNSAFE_DENY_ROOTS, WALL_CLOCK_CRATES,
};
use std::collections::BTreeSet;

/// One rule violation. Lines are 1-based for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Static description of one rule, for `--list-rules`.
pub struct RuleInfo {
    pub id: &'static str,
    pub scope: &'static str,
    pub description: &'static str,
}

/// The rule table. IDs are stable: baselines, justifications and CI logs
/// refer to them.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D-HASH-ITER",
        scope: "compute crates, non-test",
        description: "no HashMap/HashSet iteration (iter/keys/values/into_iter/for-in): order is \
                      per-process random; use BTreeMap/sorted keys or justify with `// lint: sorted`",
    },
    RuleInfo {
        id: "D-THREAD-SPAWN",
        scope: "all crates, non-test",
        description: "no thread spawning outside sdea_tensor::par — the deterministic fork-join \
                      runtime owns the thread budget (SDEA_THREADS); sdea-serve I/O threads \
                      (accept loop, batch worker) are the one sanctioned exception, and each \
                      site must justify with `// lint: serve-spawn`",
    },
    RuleInfo {
        id: "D-WALL-CLOCK",
        scope: "all but obs/bench/serve, non-test",
        description: "no Instant/SystemTime outside observability and benchmarks: wall time must \
                      never feed a computation",
    },
    RuleInfo {
        id: "N-PARTIAL-CMP",
        scope: "all code incl. tests",
        description: "partial_cmp(..).unwrap()/.expect(..) panics on NaN, even across line \
                      breaks; use total_cmp or sdea_eval::desc_nan_last (DESIGN.md \u{a7}10)",
    },
    RuleInfo {
        id: "N-FLOAT-SORT",
        scope: "all crates, non-test",
        description: "sort_by/max_by/min_by closure uses partial_cmp without total_cmp or \
                      desc_nan_last: NaN silently misorders; justify with `// lint: nan-ordered`",
    },
    RuleInfo {
        id: "A-RAW-WRITE",
        scope: "all crates, non-test",
        description: "fs::write/File::create bypasses the atomic tmp+fsync+rename discipline; \
                      use sdea_tensor::serialize::atomic_write* or sdea_obs::fsio::atomic_write",
    },
    RuleInfo {
        id: "P-PANIC-BUDGET",
        scope: "per crate, non-test",
        description: "unwrap/expect/panic!/todo! counts are ratcheted in lint_baseline.toml: \
                      they may only decrease (refresh with --update-baseline)",
    },
    RuleInfo {
        id: "U-FORBID-UNSAFE",
        scope: "every crate root",
        description: "crate roots must carry #![forbid(unsafe_code)] so future unsafe needs an \
                      explicit, reviewed opt-out (the obs counting-allocator root alone may \
                      carry #![deny(unsafe_code)])",
    },
    RuleInfo {
        id: "R-ENV-STRICT",
        scope: "workspace, non-test",
        description: "SDEA_* environment reads must go through the sdea_obs::env strict helpers \
                      (a malformed value is a hard startup error, never a silent default); raw \
                      std::env access is allowed only inside the helper implementation",
    },
    RuleInfo {
        id: "R-ENV-REGISTRY",
        scope: "workspace + env_registry.toml + README.md",
        description: "every SDEA_* variable read in production code is committed in \
                      env_registry.toml (type, default, owning crate) and documented in \
                      README.md; unknown reads, dead entries, stale owners and stale docs all \
                      fail",
    },
    RuleInfo {
        id: "R-OBS-NAMES",
        scope: "workspace + obs_registry.toml",
        description: "every obs span/counter/histogram name is committed in obs_registry.toml \
                      with a dotted-prefix owner (serve.* records only in serve; a path owner \
                      such as crates/core/src/candidates scopes a prefix to one module); \
                      unregistered names, dead entries, cross-crate records \
                      and edit-distance-1 near-duplicates all fail",
    },
    RuleInfo {
        id: "R-BLOB-KIND",
        scope: "workspace + blob_registry.toml",
        description: "every 4-byte b\"SD..\" container tag is globally unique, registered in \
                      blob_registry.toml with a version and its defining file, and referenced \
                      by name from a corruption/round-trip test",
    },
    RuleInfo {
        id: "R-FPRINT-COVERAGE",
        scope: "SdeaConfig/IndexConfig",
        description: "every public config field flows into the checkpoint fingerprint \
                      (config_fingerprint) or carries an explicit `// fingerprint: \
                      excluded(<reason>)` justification; stale exclusions on covered fields \
                      also fail",
    },
];

/// Runs every per-file rule (all but the cross-file panic-budget ratchet).
pub fn check_file(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if a.is_vendor {
        // Vendored shims only answer for the unsafe-forbid contract.
        forbid_unsafe(a, &mut out);
        return out;
    }
    hash_iteration(a, &mut out);
    thread_spawn(a, &mut out);
    wall_clock(a, &mut out);
    partial_cmp_unwrap(a, &mut out);
    raw_float_sort(a, &mut out);
    raw_write(a, &mut out);
    forbid_unsafe(a, &mut out);
    out.sort_by(|x, y| x.line.cmp(&y.line).then(x.rule.cmp(y.rule)));
    out
}

fn diag(a: &Analysis, byte: usize, rule: &'static str, msg: String) -> Diagnostic {
    Diagnostic { file: a.rel.clone(), line: a.line_of(byte) + 1, rule, msg }
}

// ---------------------------------------------------------------- D-HASH-ITER

/// Methods that observe a hash collection in iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter(",
    ".iter_mut(",
    ".keys(",
    ".values(",
    ".values_mut(",
    ".into_iter(",
    ".drain(",
    ".retain(",
];

fn hash_iteration(a: &Analysis, out: &mut Vec<Diagnostic>) {
    if !COMPUTE_CRATES.contains(&a.crate_key.as_str()) {
        return;
    }
    let bound = hash_bound_names(&a.joined);
    if bound.is_empty() {
        return;
    }
    for m in HASH_ITER_METHODS {
        for p in find_all(&a.joined, m) {
            let recv = ident_before(&a.joined, p);
            if !bound.contains(recv) {
                continue;
            }
            let line = a.line_of(p);
            if a.is_prod_line(line) && !a.justified(line, "lint: sorted") {
                out.push(diag(
                    a,
                    p,
                    "D-HASH-ITER",
                    format!(
                        "iteration over hash-ordered collection `{recv}` ({}): order is \
                         per-process random; use BTreeMap/sorted keys or justify with \
                         `// lint: sorted`",
                        m.trim_start_matches('.').trim_end_matches('(')
                    ),
                ));
            }
        }
    }
    // `for pat in <bare hash binding> { .. }`
    for p in find_word(&a.joined, "for") {
        let Some(brace) = a.joined[p..].find('{').map(|k| k + p) else { continue };
        let Some(inpos) = a.joined[p..brace].find(" in ").map(|k| k + p) else { continue };
        let expr = a.joined[inpos + 4..brace].trim();
        let bare = expr.trim_start_matches('&').trim_start_matches("mut ").trim();
        if bare.is_empty()
            || !bare.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        {
            continue; // method chains are handled by the receiver scan above
        }
        let seg = bare.rsplit('.').next().unwrap_or(bare);
        if !bound.contains(seg) {
            continue;
        }
        let line = a.line_of(inpos);
        if a.is_prod_line(line) && !a.justified(line, "lint: sorted") {
            out.push(diag(
                a,
                inpos,
                "D-HASH-ITER",
                format!(
                    "`for .. in {bare}` iterates a hash-ordered collection: order is per-process \
                     random; use BTreeMap/sorted keys or justify with `// lint: sorted`"
                ),
            ));
        }
    }
}

/// Collects identifiers bound to a `HashMap`/`HashSet` anywhere in the file:
/// `let` bindings whose statement mentions the type, and `name: ..Hash..`
/// field/parameter ascriptions. A name-level heuristic — shadowing a hash
/// binding's name with an ordered collection in the same file can false
/// positive, which the justification comment resolves.
fn hash_bound_names(joined: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        for p in find_word(joined, ty) {
            let start = joined[..p].rfind([';', '{', '}']).map(|i| i + 1).unwrap_or(0);
            let stmt = joined[start..p].trim_start();
            if let Some(rest) = stmt.strip_prefix("let ") {
                let rest = rest.trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                let name: String =
                    rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
                if !name.is_empty() {
                    names.insert(name);
                }
            } else if let Some(name) = ascribed_ident(joined, p) {
                names.insert(name);
            }
        }
    }
    names
}

/// Walks backwards from a type-token offset over type-ish characters to a
/// single `:` (skipping `::` pairs) and returns the ascribed identifier, as
/// in `buckets: RefCell<HashMap<..>>` or `fn f(m: &HashMap<..>)`.
fn ascribed_ident(joined: &str, p: usize) -> Option<String> {
    let b = joined.as_bytes();
    let type_char = |c: u8| {
        c.is_ascii_alphanumeric()
            || matches!(
                c,
                b'_' | b'<' | b'>' | b',' | b'&' | b'\'' | b'(' | b')' | b' ' | b'\t' | b'\n'
            )
    };
    let mut i = p;
    while i > 0 {
        let c = b[i - 1];
        if c == b':' {
            if i >= 2 && b[i - 2] == b':' {
                i -= 2; // path separator `::`, keep walking
                continue;
            }
            // found the ascription colon: the identifier sits before it
            let mut e = i - 1;
            while e > 0 && b[e - 1].is_ascii_whitespace() {
                e -= 1;
            }
            let mut s = e;
            while s > 0 && (b[s - 1].is_ascii_alphanumeric() || b[s - 1] == b'_') {
                s -= 1;
            }
            return (s < e).then(|| joined[s..e].to_string());
        }
        if !type_char(c) {
            return None;
        }
        i -= 1;
    }
    None
}

/// The identifier immediately before byte `p` (e.g. the receiver of a
/// method call whose `.` sits at `p`).
fn ident_before(joined: &str, p: usize) -> &str {
    let b = joined.as_bytes();
    let mut s = p;
    while s > 0 && (b[s - 1].is_ascii_alphanumeric() || b[s - 1] == b'_') {
        s -= 1;
    }
    &joined[s..p]
}

// ------------------------------------------------------------- D-THREAD-SPAWN

fn thread_spawn(a: &Analysis, out: &mut Vec<Diagnostic>) {
    if a.rel == SPAWN_ALLOWED_FILE {
        return;
    }
    for p in find_word(&a.joined, "spawn") {
        let after = a.joined[p + 5..].trim_start();
        if !after.starts_with('(') {
            continue;
        }
        let line = a.line_of(p);
        if !a.is_prod_line(line) {
            continue;
        }
        // The serving layer is the one sanctioned concurrency consumer
        // outside the fork-join runtime: connection threads and the batch
        // worker are I/O-driven and never feed a deterministic
        // computation. Each spawn site still carries an explicit marker
        // so new ones are a reviewed decision, not an accident.
        if a.crate_key == "serve" && a.justified(line, "lint: serve-spawn") {
            continue;
        }
        out.push(diag(
            a,
            p,
            "D-THREAD-SPAWN",
            "thread creation outside sdea_tensor::par breaks the deterministic fork-join \
             budget (SDEA_THREADS); use par::map_chunks/join (or, in sdea-serve only, \
             justify with `// lint: serve-spawn`)"
                .to_string(),
        ));
    }
}

// --------------------------------------------------------------- D-WALL-CLOCK

fn wall_clock(a: &Analysis, out: &mut Vec<Diagnostic>) {
    if WALL_CLOCK_CRATES.contains(&a.crate_key.as_str()) {
        return;
    }
    for tok in ["Instant", "SystemTime"] {
        for p in find_word(&a.joined, tok) {
            let line = a.line_of(p);
            if a.is_prod_line(line) {
                out.push(diag(
                    a,
                    p,
                    "D-WALL-CLOCK",
                    format!(
                        "`{tok}` outside obs/bench: wall time must never feed a computation; \
                         record timings through sdea_obs spans instead"
                    ),
                ));
            }
        }
    }
}

// -------------------------------------------------------------- N-PARTIAL-CMP

fn partial_cmp_unwrap(a: &Analysis, out: &mut Vec<Diagnostic>) {
    for p in find_word(&a.joined, "partial_cmp") {
        let mut i = p + "partial_cmp".len();
        let b = a.joined.as_bytes();
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if b.get(i) != Some(&b'(') {
            continue;
        }
        let Some(close) = skip_balanced(&a.joined, i) else { continue };
        let tail = a.joined[close..].trim_start();
        if tail.starts_with(".unwrap()") || tail.starts_with(".expect(") {
            out.push(diag(
                a,
                p,
                "N-PARTIAL-CMP",
                "partial_cmp(..) followed by .unwrap()/.expect(..) panics on NaN; use \
                 total_cmp or sdea_eval::desc_nan_last (DESIGN.md \u{a7}10)"
                    .to_string(),
            ));
        }
    }
}

// -------------------------------------------------------------- N-FLOAT-SORT

const FLOAT_SORT_METHODS: &[&str] = &[".sort_by(", ".sort_unstable_by(", ".max_by(", ".min_by("];

fn raw_float_sort(a: &Analysis, out: &mut Vec<Diagnostic>) {
    for m in FLOAT_SORT_METHODS {
        for p in find_all(&a.joined, m) {
            let open = p + m.len() - 1;
            let Some(close) = skip_balanced(&a.joined, open) else { continue };
            let body = &a.joined[open..close];
            if !body.contains("partial_cmp")
                || body.contains("total_cmp")
                || body.contains("desc_nan_last")
            {
                continue;
            }
            let line = a.line_of(p);
            if a.is_prod_line(line) && !a.justified(line, "lint: nan-ordered") {
                out.push(diag(
                    a,
                    p,
                    "N-FLOAT-SORT",
                    format!(
                        "`{}` comparator uses partial_cmp without total_cmp/desc_nan_last: NaN \
                         silently misorders; justify with `// lint: nan-ordered` if NaN-free by \
                         construction",
                        m.trim_start_matches('.').trim_end_matches('(')
                    ),
                ));
            }
        }
    }
}

// --------------------------------------------------------------- A-RAW-WRITE

const RAW_WRITE_TOKENS: &[&str] = &["fs::write(", "File::create(", "OpenOptions"];

fn raw_write(a: &Analysis, out: &mut Vec<Diagnostic>) {
    if ATOMIC_WRITE_IMPLS.contains(&a.rel.as_str()) {
        return;
    }
    for tok in RAW_WRITE_TOKENS {
        for p in find_all(&a.joined, tok) {
            let line = a.line_of(p);
            if a.is_prod_line(line) {
                out.push(diag(
                    a,
                    p,
                    "A-RAW-WRITE",
                    format!(
                        "`{}` bypasses the atomic tmp+fsync+rename discipline — a crash here can \
                         leave a truncated file; use sdea_tensor::serialize::atomic_write* or \
                         sdea_obs::fsio::atomic_write",
                        tok.trim_end_matches('(')
                    ),
                ));
            }
        }
    }
}

// ------------------------------------------------------------ U-FORBID-UNSAFE

fn forbid_unsafe(a: &Analysis, out: &mut Vec<Diagnostic>) {
    if !a.is_crate_root || a.joined.contains("#![forbid(unsafe_code)]") {
        return;
    }
    // The counting-allocator host may weaken to `deny` (still a hard
    // compile error outside its one sanctioned `allow` scope).
    if UNSAFE_DENY_ROOTS.contains(&a.rel.as_str()) && a.joined.contains("#![deny(unsafe_code)]") {
        return;
    }
    out.push(Diagnostic {
        file: a.rel.clone(),
        line: 1,
        rule: "U-FORBID-UNSAFE",
        msg: "crate root is missing #![forbid(unsafe_code)]; the workspace is unsafe-free \
              and future unsafe requires an explicit, reviewed opt-out"
            .to_string(),
    });
}

// ------------------------------------------------------------ P-PANIC-BUDGET

/// Counts panic-capable call sites (`unwrap()`, `expect(`, `panic!`,
/// `todo!`) on production lines of one file. Fed into the per-crate
/// ratchet against `lint_baseline.toml`.
pub fn panic_count(a: &Analysis) -> usize {
    if a.is_vendor || a.is_test_path || a.is_example {
        return 0;
    }
    let mut n = 0;
    for tok in ["unwrap", "expect"] {
        for p in find_word(&a.joined, tok) {
            let after = a.joined[p + tok.len()..].trim_start();
            if after.starts_with('(') && a.is_prod_line(a.line_of(p)) {
                n += 1;
            }
        }
    }
    for tok in ["panic", "todo"] {
        for p in find_word(&a.joined, tok) {
            if a.joined[p + tok.len()..].starts_with('!') && a.is_prod_line(a.line_of(p)) {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(rel: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&Analysis::new(rel, src))
    }

    #[test]
    fn hash_binding_extraction_covers_let_field_and_param() {
        let src = "struct S { index_of: std::collections::HashMap<u32, usize> }\n\
                   fn f(m: &HashMap<String, u64>) {\n\
                   let mut by_head: std::collections::HashMap<usize, Vec<usize>> =\n\
                       std::collections::HashMap::new();\n\
                   let seen = std::collections::HashSet::with_capacity(4);\n\
                   }\n";
        let names = hash_bound_names(&crate::lexer::clean(src).joined());
        for n in ["index_of", "m", "by_head", "seen"] {
            assert!(names.contains(n), "missing {n} in {names:?}");
        }
    }

    #[test]
    fn use_statement_binds_nothing() {
        let names = hash_bound_names("use std::collections::HashMap;\n");
        assert!(names.is_empty(), "{names:?}");
    }

    #[test]
    fn lookup_only_hash_use_is_clean() {
        let src = "use std::collections::HashMap;\n\
                   pub fn get(m: &HashMap<String, u64>, k: &str) -> Option<u64> {\n\
                       m.get(k).copied()\n\
                   }\n";
        assert!(diags("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_fires_only_in_compute_crates() {
        let src = "use std::collections::HashMap;\n\
                   pub fn ks(m: &HashMap<String, u64>) -> Vec<String> {\n\
                       m.keys().cloned().collect()\n\
                   }\n";
        assert!(diags("crates/core/src/x.rs", src).iter().any(|d| d.rule == "D-HASH-ITER"));
        assert!(
            diags("crates/serve/src/x.rs", src).iter().any(|d| d.rule == "D-HASH-ITER"),
            "the serving data path is a compute crate"
        );
        assert!(diags("crates/kg/src/x.rs", src).is_empty(), "kg is not a compute crate");
    }

    /// Every module of a compute crate is covered by every determinism
    /// rule: hash iteration, wall clocks, and the panic budget.
    #[test]
    fn core_module_is_enrolled_in_the_determinism_rules() {
        let hash = "use std::collections::HashMap;\n\
                    pub fn ks(m: &HashMap<String, u64>) -> Vec<String> {\n\
                        m.keys().cloned().collect()\n\
                    }\n";
        assert!(
            diags("crates/core/src/candidates.rs", hash).iter().any(|d| d.rule == "D-HASH-ITER"),
            "hash iteration in a core module must fire"
        );
        let clock = "pub fn t() { let _ = std::time::Instant::now(); }\n";
        assert!(
            diags("crates/core/src/candidates.rs", clock).iter().any(|d| d.rule == "D-WALL-CLOCK"),
            "wall clocks in a core module must fire"
        );
        let panics = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            panic_count(&Analysis::new("crates/core/src/candidates.rs", panics)),
            1,
            "core-module unwraps must count against core's panic budget"
        );
    }

    #[test]
    fn unsafe_deny_is_accepted_only_for_the_allocator_root() {
        let deny = "#![deny(unsafe_code)]\npub mod mem;\n";
        assert!(
            diags("crates/obs/src/lib.rs", deny).iter().all(|d| d.rule != "U-FORBID-UNSAFE"),
            "the obs root may weaken to deny for the counting allocator"
        );
        assert!(
            diags("crates/core/src/lib.rs", deny).iter().any(|d| d.rule == "U-FORBID-UNSAFE"),
            "deny is not accepted for any other crate root"
        );
        assert!(
            diags("crates/obs/src/lib.rs", "pub mod mem;\n")
                .iter()
                .any(|d| d.rule == "U-FORBID-UNSAFE"),
            "the obs root still needs at least deny"
        );
    }

    #[test]
    fn spawn_flagged_outside_par() {
        let src = "pub fn go() { std::thread::spawn(|| {}); }\n";
        assert!(diags("crates/core/src/x.rs", src).iter().any(|d| d.rule == "D-THREAD-SPAWN"));
        assert!(diags("crates/tensor/src/par.rs", src).is_empty());
    }

    #[test]
    fn serve_spawn_needs_the_justification_marker() {
        let unjustified = "pub fn go() { std::thread::spawn(|| {}); }\n";
        assert!(
            diags("crates/serve/src/server.rs", unjustified)
                .iter()
                .any(|d| d.rule == "D-THREAD-SPAWN"),
            "a bare spawn in serve still fires"
        );
        let justified = "pub fn go() {\n\
                         // lint: serve-spawn — connection thread\n\
                         std::thread::spawn(|| {});\n\
                         }\n";
        assert!(diags("crates/serve/src/server.rs", justified).is_empty());
        // The marker does not travel: other crates stay locked down.
        assert!(
            diags("crates/core/src/x.rs", justified).iter().any(|d| d.rule == "D-THREAD-SPAWN"),
            "the serve carve-out must not apply to core"
        );
    }

    #[test]
    fn wall_clock_allowed_in_obs_bench_and_serve() {
        let src = "pub fn t() { let _ = std::time::Instant::now(); }\n";
        assert!(diags("crates/synth/src/x.rs", src).iter().any(|d| d.rule == "D-WALL-CLOCK"));
        assert!(diags("crates/obs/src/x.rs", src).is_empty());
        assert!(diags("crates/bench/src/x.rs", src).is_empty());
        assert!(diags("crates/serve/src/batcher.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: f32, b: f32) { a.partial_cmp(&b).unwrap(); }\n}\n";
        assert!(diags("crates/core/src/x.rs", src).iter().any(|d| d.rule == "N-PARTIAL-CMP"));
    }

    #[test]
    fn panic_count_skips_test_regions() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   pub fn g() { panic!(\"boom\") }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { None::<u32>.unwrap(); todo!() }\n\
                   }\n";
        assert_eq!(panic_count(&Analysis::new("crates/core/src/x.rs", src)), 2);
    }

    #[test]
    fn unwrap_or_is_not_counted() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert_eq!(panic_count(&Analysis::new("crates/core/src/x.rs", src)), 0);
    }
}

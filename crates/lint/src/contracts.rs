//! The cross-file contract rules: registry-backed workspace analyses over
//! the [`WorkspaceModel`].
//!
//! Unlike the per-file rules in [`crate::rules`], these only make sense
//! with the whole workspace in hand: an env variable read in `bench` and
//! documented in README, an obs counter name that must not collide with a
//! near-duplicate defined three crates away, a blob-kind byte tag whose
//! uniqueness is global by definition. Each rule checks live extraction
//! against a committed registry, in both directions — an unregistered name
//! fails the run, and so does a dead registry entry, so the registries can
//! never drift from the code they describe.

use crate::model::{ConfigField, EnvAccess, ObsKind, WorkspaceModel, FPRINT_FN};
use crate::registry::{BlobRegistry, EnvRegistry, ObsRegistry};
use crate::rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// The one file allowed to touch `std::env` directly: the strict-helper
/// implementation itself.
pub const ENV_IMPL_FILE: &str = "crates/obs/src/env.rs";

/// The loaded registries plus the paths diagnostics anchor to.
#[derive(Debug, Default)]
pub struct Registries {
    pub env: EnvRegistry,
    pub env_path: String,
    pub obs: ObsRegistry,
    pub obs_path: String,
    pub blob: BlobRegistry,
    pub blob_path: String,
}

/// Runs all contract rules. Diagnostics anchor to the offending use site
/// when the code is wrong and to the registry file when the registry is.
pub fn check(model: &WorkspaceModel, regs: &Registries) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    env_strict(model, &mut out);
    env_registry(model, regs, &mut out);
    obs_names(model, regs, &mut out);
    blob_kinds(model, regs, &mut out);
    fingerprint_coverage(model, &mut out);
    out
}

// ---------------------------------------------------------------- R-ENV-STRICT

fn env_strict(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    for site in &model.env_sites {
        if site.prod && site.access == EnvAccess::Raw && site.file != ENV_IMPL_FILE {
            out.push(Diagnostic {
                file: site.file.clone(),
                line: site.line,
                rule: "R-ENV-STRICT",
                msg: format!(
                    "raw std::env read of `{}`: a malformed value must be a hard startup error, \
                     not a silent default; go through sdea_obs::env (parse_or_exit, bool_or_exit, \
                     enum_or_exit, string_or_exit)",
                    site.var
                ),
            });
        }
    }
}

// -------------------------------------------------------------- R-ENV-REGISTRY

fn env_registry(model: &WorkspaceModel, regs: &Registries, out: &mut Vec<Diagnostic>) {
    // first production site per variable, and the set of crates reading it
    let mut first: BTreeMap<&str, (&str, usize)> = BTreeMap::new();
    let mut crates_of: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for s in model.env_sites.iter().filter(|s| s.prod) {
        first.entry(&s.var).or_insert((&s.file, s.line));
        crates_of.entry(&s.var).or_default().insert(&s.crate_key);
    }
    for (var, (file, line)) in &first {
        if !regs.env.vars.contains_key(*var) {
            out.push(Diagnostic {
                file: file.to_string(),
                line: *line,
                rule: "R-ENV-REGISTRY",
                msg: format!(
                    "`{var}` is read here but missing from the env registry: add a \
                     `{var} = \"type | default | owner\"` entry and document it in README.md"
                ),
            });
        }
    }
    for (var, entry) in &regs.env.vars {
        match crates_of.get(var.as_str()) {
            None => out.push(Diagnostic {
                file: regs.env_path.clone(),
                line: entry.line,
                rule: "R-ENV-REGISTRY",
                msg: format!(
                    "dead registry entry: `{var}` is registered but never read in production \
                     code; remove the entry (and its README row) or wire the variable up"
                ),
            }),
            Some(crates) if !crates.contains(entry.owner.as_str()) => out.push(Diagnostic {
                file: regs.env_path.clone(),
                line: entry.line,
                rule: "R-ENV-REGISTRY",
                msg: format!(
                    "stale owner: `{var}` is registered to crate `{}` but its read sites live \
                     in {:?}",
                    entry.owner, crates
                ),
            }),
            Some(_) => {}
        }
        if !model.readme_env.contains(var) {
            out.push(Diagnostic {
                file: regs.env_path.clone(),
                line: entry.line,
                rule: "R-ENV-REGISTRY",
                msg: format!("`{var}` is registered but not documented in README.md"),
            });
        }
    }
    for var in &model.readme_env {
        if !regs.env.vars.contains_key(var) {
            out.push(Diagnostic {
                file: "README.md".to_string(),
                line: 1,
                rule: "R-ENV-REGISTRY",
                msg: format!(
                    "README.md documents `{var}` but the env registry has no such entry: \
                     register it or drop the stale documentation"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- R-OBS-NAMES

/// Does `owner` (a crate key, or a path prefix when it contains `/`) cover
/// a use site in `crate_key` / `file`?
fn owner_matches(owner: &str, crate_key: &str, file: &str) -> bool {
    if owner.contains('/') {
        file.starts_with(owner)
    } else {
        crate_key == owner
    }
}

fn obs_names(model: &WorkspaceModel, regs: &Registries, out: &mut Vec<Diagnostic>) {
    let mut used: BTreeMap<(ObsKind, &str), Vec<&crate::model::ObsSite>> = BTreeMap::new();
    for s in model.obs_sites.iter().filter(|s| s.prod) {
        used.entry((s.kind, &s.name)).or_default().push(s);
    }
    for ((kind, name), sites) in &used {
        match regs.obs.table(*kind).get(*name) {
            None => {
                let s = sites[0];
                out.push(Diagnostic {
                    file: s.file.clone(),
                    line: s.line,
                    rule: "R-OBS-NAMES",
                    msg: format!(
                        "unregistered {} name `{name}`: every metric name is committed in the \
                         obs registry with its owner so renames and collisions are reviewed",
                        kind.label()
                    ),
                });
            }
            Some(entry) => {
                for s in sites {
                    if !owner_matches(&entry.owner, &s.crate_key, &s.file) {
                        out.push(Diagnostic {
                            file: s.file.clone(),
                            line: s.line,
                            rule: "R-OBS-NAMES",
                            msg: format!(
                                "{} `{name}` is owned by `{}` but recorded here from crate \
                                 `{}`: dotted prefixes map to one owning module",
                                kind.label(),
                                entry.owner,
                                s.crate_key
                            ),
                        });
                    }
                }
            }
        }
    }
    // dead entries, prefix consistency and near-duplicates over the registry
    let mut prefix_owner: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    for kind in [ObsKind::Span, ObsKind::Counter, ObsKind::Histogram] {
        let table = regs.obs.table(kind);
        for (name, entry) in table {
            if !used.contains_key(&(kind, name.as_str())) {
                out.push(Diagnostic {
                    file: regs.obs_path.clone(),
                    line: entry.line,
                    rule: "R-OBS-NAMES",
                    msg: format!(
                        "dead registry entry: {} `{name}` is registered but never recorded in \
                         production code",
                        kind.label()
                    ),
                });
            }
            let prefix = name.split('.').next().unwrap_or(name);
            match prefix_owner.get(prefix) {
                None => {
                    prefix_owner.insert(prefix, (name, &entry.owner));
                }
                Some((other, owner)) if *owner != entry.owner => {
                    out.push(Diagnostic {
                        file: regs.obs_path.clone(),
                        line: entry.line,
                        rule: "R-OBS-NAMES",
                        msg: format!(
                            "prefix `{prefix}.*` has two owners: `{name}` -> `{}` but `{other}` \
                             -> `{owner}`; one dotted prefix, one owning module",
                            entry.owner
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        // near-duplicates fork metrics silently: `ckpt.write` and
        // `ckpt.writes` as the same kind would each collect half the data
        let names: Vec<&String> = table.keys().collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                if edit_distance_one(a, b) {
                    out.push(Diagnostic {
                        file: regs.obs_path.clone(),
                        line: table[b.as_str()].line,
                        rule: "R-OBS-NAMES",
                        msg: format!(
                            "{} names `{a}` and `{b}` differ by one edit: near-duplicates \
                             silently fork a metric; pick one spelling",
                            kind.label()
                        ),
                    });
                }
            }
        }
    }
}

/// True when the Levenshtein distance between `a` and `b` is exactly 1.
fn edit_distance_one(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match long.len() - short.len() {
        0 => short.iter().zip(long).filter(|(x, y)| x != y).count() == 1,
        1 => {
            // one insertion: skip the first mismatch in the longer string
            let mut i = 0;
            while i < short.len() && short[i] == long[i] {
                i += 1;
            }
            short[i..] == long[i + 1..]
        }
        _ => false,
    }
}

// ---------------------------------------------------------------- R-BLOB-KIND

fn blob_kinds(model: &WorkspaceModel, regs: &Registries, out: &mut Vec<Diagnostic>) {
    let prod: Vec<_> = model.blob_sites.iter().filter(|s| s.prod).collect();
    let mut defs: BTreeMap<&str, Vec<&crate::model::BlobSite>> = BTreeMap::new();
    for s in &prod {
        if s.const_name.is_some() {
            defs.entry(&s.kind).or_default().push(s);
        }
    }
    for s in &prod {
        if !regs.blob.kinds.contains_key(&s.kind) {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                rule: "R-BLOB-KIND",
                msg: format!(
                    "unregistered blob kind `{}`: every 4-byte container tag is committed in \
                     the blob registry with its version and defining file",
                    s.kind
                ),
            });
        }
    }
    for (kind, sites) in &defs {
        if sites.len() > 1 {
            out.push(Diagnostic {
                file: sites[1].file.clone(),
                line: sites[1].line,
                rule: "R-BLOB-KIND",
                msg: format!(
                    "blob kind `{kind}` is defined more than once (also in {}:{}): kinds are \
                     globally unique so a header identifies exactly one format",
                    sites[0].file, sites[0].line
                ),
            });
        }
        for s in sites.iter().take(1) {
            let name = s.const_name.as_deref().unwrap_or_default();
            if crate::analysis::find_word(&model.test_code, name).is_empty() {
                out.push(Diagnostic {
                    file: s.file.clone(),
                    line: s.line,
                    rule: "R-BLOB-KIND",
                    msg: format!(
                        "blob kind `{kind}` (`{name}`) has no corruption/round-trip test \
                         referencing the constant: assert on `{name}` in a test so header \
                         validation is pinned"
                    ),
                });
            }
        }
    }
    for (kind, entry) in &regs.blob.kinds {
        match defs.get(kind.as_str()) {
            None => out.push(Diagnostic {
                file: regs.blob_path.clone(),
                line: entry.line,
                rule: "R-BLOB-KIND",
                msg: format!(
                    "dead registry entry: blob kind `{kind}` has no production `const … = \
                     b\"{kind}\"` definition"
                ),
            }),
            Some(sites) if sites.iter().all(|s| s.file != entry.file) => out.push(Diagnostic {
                file: regs.blob_path.clone(),
                line: entry.line,
                rule: "R-BLOB-KIND",
                msg: format!(
                    "blob kind `{kind}` is registered to {} but defined in {}",
                    entry.file, sites[0].file
                ),
            }),
            Some(_) => {}
        }
    }
}

// ----------------------------------------------------------- R-FPRINT-COVERAGE

/// Is `field` referenced as `.field` (word-bounded) in the fingerprint body?
fn dot_referenced(body: &str, field: &str) -> bool {
    crate::analysis::find_word(body, field).iter().any(|&p| p > 0 && body.as_bytes()[p - 1] == b'.')
}

fn fingerprint_coverage(model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
    if model.config_fields.is_empty() {
        return;
    }
    if model.fingerprint_body.is_empty() {
        out.push(Diagnostic {
            file: FPRINT_FN.0.to_string(),
            line: 1,
            rule: "R-FPRINT-COVERAGE",
            msg: format!(
                "config structs found but no `fn {}` body: the checkpoint fingerprint must \
                 cover every result-shaping field",
                FPRINT_FN.1
            ),
        });
        return;
    }
    for ConfigField { file, line, strukt, name, excluded } in &model.config_fields {
        let covered = dot_referenced(&model.fingerprint_body, name);
        if !covered && !excluded {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: "R-FPRINT-COVERAGE",
                msg: format!(
                    "public field `{strukt}.{name}` neither flows into {} nor carries a \
                     `// fingerprint: excluded(<reason>)` justification: an uncovered \
                     result-shaping field lets two different configs resume each other's \
                     checkpoints",
                    FPRINT_FN.1
                ),
            });
        }
        if covered && *excluded {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: "R-FPRINT-COVERAGE",
                msg: format!(
                    "`{strukt}.{name}` is annotated `fingerprint: excluded` but the \
                     fingerprint references it: drop the stale annotation"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::registry::{parse_blob, parse_env, parse_obs};

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        let mut m = WorkspaceModel::default();
        for (rel, src) in files {
            m.absorb(&Analysis::new(rel, src));
        }
        m
    }

    fn regs(env: &str, obs: &str, blob: &str) -> Registries {
        Registries {
            env: parse_env(env).unwrap(),
            env_path: "env_registry.toml".into(),
            obs: parse_obs(obs).unwrap(),
            obs_path: "obs_registry.toml".into(),
            blob: parse_blob(blob).unwrap(),
            blob_path: "blob_registry.toml".into(),
        }
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn raw_env_read_fires_and_helper_impl_is_exempt() {
        let src = "pub fn f() { let _ = std::env::var(\"SDEA_ZETA\"); }\n";
        let m = model(&[("crates/bench/src/x.rs", src)]);
        let d = check(&m, &Registries::default());
        assert!(rules_of(&d).contains(&"R-ENV-STRICT"), "{d:?}");
        let m = model(&[("crates/obs/src/env.rs", src)]);
        let d = check(&m, &Registries::default());
        assert!(!rules_of(&d).contains(&"R-ENV-STRICT"), "{d:?}");
    }

    #[test]
    fn env_registry_both_directions() {
        let src = "use sdea_obs::env::parse_or_exit;\n\
                   pub fn f() { let _: Option<u32> = parse_or_exit(\"SDEA_USED\", \"int\"); }\n";
        let m = {
            let mut m = model(&[("crates/core/src/x.rs", src)]);
            m.set_readme("| `SDEA_USED` |");
            m
        };
        // complete registry: clean
        let r = regs("[env]\nSDEA_USED = \"u32 | unset | core\"\n", "", "[blob]\n");
        let mut m2 = model(&[("crates/core/src/x.rs", src)]);
        m2.set_readme("`SDEA_USED`");
        assert!(check(&m2, &r).is_empty(), "{:?}", check(&m2, &r));
        // unregistered read + dead entry + missing README row
        let r = regs("[env]\nSDEA_DEAD = \"u32 | unset | core\"\n", "", "[blob]\n");
        let d = check(&m, &r);
        assert!(d.iter().any(|d| d.msg.contains("missing from the env registry")), "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("dead registry entry")), "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("not documented in README.md")), "{d:?}");
    }

    #[test]
    fn env_registry_flags_stale_owner_and_stale_readme() {
        let src = "use sdea_obs::env::parse_or_exit;\n\
                   pub fn f() { let _: Option<u32> = parse_or_exit(\"SDEA_USED\", \"int\"); }\n";
        let mut m = model(&[("crates/core/src/x.rs", src)]);
        m.set_readme("`SDEA_USED` and `SDEA_GHOST`");
        let r = regs("[env]\nSDEA_USED = \"u32 | unset | serve\"\n", "", "[blob]\n");
        let d = check(&m, &r);
        assert!(d.iter().any(|d| d.msg.contains("stale owner")), "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("stale documentation")), "{d:?}");
    }

    #[test]
    fn obs_names_ownership_and_near_duplicates() {
        let src = "pub fn f() {\n\
                       let _s = sdea_obs::span(\"serve.handle\");\n\
                       sdea_obs::add(\"serve.requests\", 1);\n\
                   }\n";
        let m = model(&[("crates/core/src/x.rs", src)]);
        let r = regs(
            "[env]\n",
            "[span]\n\"serve.handle\" = \"serve\"\n\
             [counter]\n\"serve.requests\" = \"serve\"\n\"serve.request\" = \"serve\"\n",
            "[blob]\n",
        );
        let d = check(&m, &r);
        // both names recorded from core but owned by serve
        assert_eq!(d.iter().filter(|d| d.msg.contains("owned by `serve`")).count(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("differ by one edit")), "{d:?}");
        assert!(
            d.iter().any(|d| d.rule == "R-OBS-NAMES" && d.msg.contains("dead registry entry")),
            "{d:?}"
        );
    }

    #[test]
    fn obs_unregistered_name_fires_and_clean_passes() {
        let src = "pub fn f() { sdea_obs::add(\"eval.cells\", 1); }\n";
        let m = model(&[("crates/eval/src/x.rs", src)]);
        let d = check(&m, &Registries::default());
        assert!(d.iter().any(|d| d.msg.contains("unregistered counter")), "{d:?}");
        let r = regs("[env]\n", "[counter]\n\"eval.cells\" = \"eval\"\n", "[blob]\n");
        assert!(check(&m, &r).is_empty(), "{:?}", check(&m, &r));
    }

    #[test]
    fn obs_prefix_with_two_owners_fires() {
        let r = regs(
            "[env]\n",
            "[span]\n\"serve.a\" = \"serve\"\n[counter]\n\"serve.b\" = \"core\"\n",
            "[blob]\n",
        );
        let d = check(&WorkspaceModel::default(), &r);
        assert!(d.iter().any(|d| d.msg.contains("two owners")), "{d:?}");
    }

    #[test]
    fn module_scoped_owner_uses_path_prefix() {
        let src = "pub fn f() { sdea_obs::add(\"candidates.steps\", 1); }\n";
        let rm = regs(
            "[env]\n",
            "[counter]\n\"candidates.steps\" = \"crates/core/src/candidates\"\n",
            "[blob]\n",
        );
        let inside = model(&[("crates/core/src/candidates.rs", src)]);
        assert!(check(&inside, &rm).is_empty(), "{:?}", check(&inside, &rm));
        let outside = model(&[("crates/core/src/trainer.rs", src)]);
        assert!(
            check(&outside, &rm).iter().any(|d| d.msg.contains("owned by")),
            "{:?}",
            check(&outside, &rm)
        );
    }

    #[test]
    fn blob_kind_full_lifecycle() {
        let good = "pub const K1: &[u8; 4] = b\"SDAB\";\n\
                    #[cfg(test)]\nmod tests {\n    #[test]\n    fn rt() { assert_eq!(super::K1.len(), 4); }\n}\n";
        let m = model(&[("crates/tensor/src/x.rs", good)]);
        let r = regs("[env]\n", "", "[blob]\nSDAB = \"v1 | crates/tensor/src/x.rs\"\n");
        assert!(check(&m, &r).is_empty(), "{:?}", check(&m, &r));
        // unregistered
        let d = check(&m, &regs("[env]\n", "", "[blob]\n"));
        assert!(d.iter().any(|d| d.msg.contains("unregistered blob kind")), "{d:?}");
        // dead entry + wrong file
        let r2 = regs(
            "[env]\n",
            "",
            "[blob]\nSDAB = \"v1 | crates/core/src/y.rs\"\nSDZZ = \"v1 | crates/core/src/z.rs\"\n",
        );
        let d = check(&m, &r2);
        assert!(d.iter().any(|d| d.msg.contains("registered to crates/core/src/y.rs")), "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("dead registry entry")), "{d:?}");
    }

    #[test]
    fn blob_kind_duplicate_and_untested_fire() {
        let a = "pub const KA: &[u8; 4] = b\"SDAB\";\n";
        let b = "pub const KB: &[u8; 4] = b\"SDAB\";\n";
        let m = model(&[("crates/tensor/src/a.rs", a), ("crates/core/src/b.rs", b)]);
        let r = regs("[env]\n", "", "[blob]\nSDAB = \"v1 | crates/tensor/src/a.rs\"\n");
        let d = check(&m, &r);
        assert!(d.iter().any(|d| d.msg.contains("defined more than once")), "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("no corruption/round-trip test")), "{d:?}");
    }

    #[test]
    fn fingerprint_coverage_and_stale_exclusion() {
        let config = "pub struct SdeaConfig {\n\
                          pub dim: usize,\n\
                          pub missing: usize,\n\
                          // fingerprint: excluded(execution knob)\n\
                          pub threads: usize,\n\
                          // fingerprint: excluded(stale)\n\
                          pub stale: usize,\n\
                      }\n";
        let ckpt = "pub fn config_fingerprint(cfg: &SdeaConfig) -> u64 {\n\
                        let s = format!(\"{} {}\", cfg.dim, cfg.stale);\n\
                        s.len() as u64\n\
                    }\n";
        let m = model(&[
            ("crates/core/src/config.rs", config),
            ("crates/core/src/checkpoint.rs", ckpt),
        ]);
        let d = check(&m, &Registries::default());
        assert!(d.iter().any(|d| d.msg.contains("`SdeaConfig.missing`")), "{d:?}");
        assert!(d.iter().any(|d| d.msg.contains("stale annotation")), "{d:?}");
        assert!(!d.iter().any(|d| d.msg.contains("`SdeaConfig.dim`")), "{d:?}");
        assert!(!d.iter().any(|d| d.msg.contains("`SdeaConfig.threads`")), "{d:?}");
    }

    #[test]
    fn edit_distance_one_cases() {
        assert!(edit_distance_one("ckpt.write", "ckpt.writes"));
        assert!(edit_distance_one("serve.request", "serve.requests"));
        assert!(edit_distance_one("a.b", "a.c"));
        assert!(!edit_distance_one("same.name", "same.name"));
        assert!(!edit_distance_one("ckpt.load", "ckpt.save"));
        assert!(!edit_distance_one("eval.evaluate_ranking", "eval.evaluate_ranking_blocked"));
    }
}

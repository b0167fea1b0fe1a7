//! The committed contract registries: `env_registry.toml`,
//! `obs_registry.toml` and `blob_registry.toml` at the workspace root.
//!
//! Like `lint_baseline.toml` these are a deliberately tiny TOML subset —
//! sections of `key = "value"` lines — parsed by hand so the linter stays
//! dependency-free, with malformed lines as hard errors (the files are
//! small, reviewed, and any drift means trouble). A *missing* registry
//! file parses as empty: in a real workspace every contract name then
//! fires as unregistered (nothing is silently waved through), while the
//! linter's own miniature test repos, which have no contract surfaces at
//! all, stay clean.

use std::collections::BTreeMap;

/// One `env_registry.toml` entry: `SDEA_X = "type | default | owner"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvEntry {
    /// Value type as documented (`usize`, `bool`, `enum(quick/full)`, …).
    pub ty: String,
    /// Default when unset (free text, e.g. `ncpus` or `unset`).
    pub default: String,
    /// Crate key of the owning reader.
    pub owner: String,
    /// 1-based line in the registry file (dead-entry diagnostics).
    pub line: usize,
}

/// Parsed `env_registry.toml`.
#[derive(Debug, Clone, Default)]
pub struct EnvRegistry {
    pub vars: BTreeMap<String, EnvEntry>,
}

/// One `obs_registry.toml` entry: the owner is a crate key (`"serve"`) or,
/// for module-scoped names, a path prefix (`"crates/core/src/candidates"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEntry {
    pub owner: String,
    pub line: usize,
}

/// Parsed `obs_registry.toml`: three sections, one per name kind.
#[derive(Debug, Clone, Default)]
pub struct ObsRegistry {
    pub spans: BTreeMap<String, ObsEntry>,
    pub counters: BTreeMap<String, ObsEntry>,
    pub histograms: BTreeMap<String, ObsEntry>,
}

impl ObsRegistry {
    /// The section for one name kind.
    pub fn table(&self, kind: crate::model::ObsKind) -> &BTreeMap<String, ObsEntry> {
        match kind {
            crate::model::ObsKind::Span => &self.spans,
            crate::model::ObsKind::Counter => &self.counters,
            crate::model::ObsKind::Histogram => &self.histograms,
        }
    }
}

/// One `blob_registry.toml` entry: `SDT2 = "v2 | crates/tensor/src/serialize.rs"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobEntry {
    /// Container format version, `v<digits>`.
    pub version: String,
    /// Workspace-relative file defining the kind constant.
    pub file: String,
    pub line: usize,
}

/// Parsed `blob_registry.toml`.
#[derive(Debug, Clone, Default)]
pub struct BlobRegistry {
    pub kinds: BTreeMap<String, BlobEntry>,
}

/// Splits one `key = "value"` line of the TOML subset.
fn key_value(line: &str) -> Option<(String, String)> {
    let (key, value) = line.split_once('=')?;
    let value = value.trim();
    let value = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).unwrap_or(value);
    Some((key.trim().trim_matches('"').to_string(), value.to_string()))
}

/// Parses `env_registry.toml`: a single `[env]` section of
/// `NAME = "type | default | owner"` lines.
pub fn parse_env(text: &str) -> Result<EnvRegistry, String> {
    let mut reg = EnvRegistry::default();
    let mut in_env = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at = |m: &str| format!("env_registry.toml:{}: {m} ({raw:?})", i + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_env = section.trim() == "env";
            if !in_env {
                return Err(at("unknown section"));
            }
            continue;
        }
        if !in_env {
            return Err(at("entry outside [env]"));
        }
        let (key, value) = key_value(line).ok_or_else(|| at("expected `NAME = \"...\"`"))?;
        if !crate::model::is_env_var_name(&key) {
            return Err(at("key must be an exact SDEA_* variable name"));
        }
        let parts: Vec<&str> = value.split('|').map(str::trim).collect();
        let [ty, default, owner] = parts.as_slice() else {
            return Err(at("value must be `type | default | owner`"));
        };
        if ty.is_empty() || default.is_empty() || owner.is_empty() {
            return Err(at("type, default and owner must all be non-empty"));
        }
        reg.vars.insert(
            key,
            EnvEntry {
                ty: ty.to_string(),
                default: default.to_string(),
                owner: owner.to_string(),
                line: i + 1,
            },
        );
    }
    Ok(reg)
}

/// Parses `obs_registry.toml`: `[span]` / `[counter]` / `[histogram]`
/// sections of `"dotted.name" = "owner"` lines.
pub fn parse_obs(text: &str) -> Result<ObsRegistry, String> {
    let mut reg = ObsRegistry::default();
    let mut section: Option<&str> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at = |m: &str| format!("obs_registry.toml:{}: {m} ({raw:?})", i + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(s) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = match s.trim() {
                "span" => Some("span"),
                "counter" => Some("counter"),
                "histogram" => Some("histogram"),
                _ => return Err(at("unknown section")),
            };
            continue;
        }
        let Some(sec) = section else {
            return Err(at("entry outside [span]/[counter]/[histogram]"));
        };
        let (key, value) = key_value(line).ok_or_else(|| at("expected `\"name\" = \"owner\"`"))?;
        if key.is_empty() || value.is_empty() {
            return Err(at("name and owner must be non-empty"));
        }
        let entry = ObsEntry { owner: value, line: i + 1 };
        let table = match sec {
            "span" => &mut reg.spans,
            "counter" => &mut reg.counters,
            _ => &mut reg.histograms,
        };
        table.insert(key, entry);
    }
    Ok(reg)
}

/// Parses `blob_registry.toml`: a single `[blob]` section of
/// `KIND = "v<N> | defining/file.rs"` lines.
pub fn parse_blob(text: &str) -> Result<BlobRegistry, String> {
    let mut reg = BlobRegistry::default();
    let mut in_blob = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at = |m: &str| format!("blob_registry.toml:{}: {m} ({raw:?})", i + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_blob = section.trim() == "blob";
            if !in_blob {
                return Err(at("unknown section"));
            }
            continue;
        }
        if !in_blob {
            return Err(at("entry outside [blob]"));
        }
        let (key, value) = key_value(line).ok_or_else(|| at("expected `KIND = \"...\"`"))?;
        if key.len() != 4 || !key.starts_with("SD") {
            return Err(at("key must be a 4-byte kind starting with SD"));
        }
        let parts: Vec<&str> = value.split('|').map(str::trim).collect();
        let [version, file] = parts.as_slice() else {
            return Err(at("value must be `v<N> | defining/file.rs`"));
        };
        let digits = version.strip_prefix('v').unwrap_or("");
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(at("version must be v<digits>"));
        }
        if file.is_empty() {
            return Err(at("defining file must be non-empty"));
        }
        reg.kinds.insert(
            key,
            BlobEntry { version: version.to_string(), file: file.to_string(), line: i + 1 },
        );
    }
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_round_trip_and_errors() {
        let reg = parse_env(
            "# comment\n[env]\nSDEA_THREADS = \"usize | ncpus | tensor\"\n\
             SDEA_OBS = \"bool | off | obs\"\n",
        )
        .unwrap();
        assert_eq!(reg.vars.len(), 2);
        let t = &reg.vars["SDEA_THREADS"];
        assert_eq!(
            (t.ty.as_str(), t.default.as_str(), t.owner.as_str()),
            ("usize", "ncpus", "tensor")
        );
        assert!(parse_env("[env]\nSDEA_X = \"usize | 0\"\n").is_err(), "missing owner");
        assert!(parse_env("[env]\nlowercase = \"a | b | c\"\n").is_err(), "bad key");
        assert!(parse_env("[other]\n").is_err());
        assert!(parse_env("SDEA_X = \"a | b | c\"\n").is_err(), "entry before section");
    }

    #[test]
    fn obs_sections_and_errors() {
        let reg = parse_obs(
            "[span]\n\"eval.cosine_matrix\" = \"eval\"\n[counter]\n\"ckpt.writes\" = \"core\"\n\
             [histogram]\n\"serve.batch_size\" = \"serve\"\n",
        )
        .unwrap();
        assert_eq!(reg.spans["eval.cosine_matrix"].owner, "eval");
        assert_eq!(reg.counters["ckpt.writes"].owner, "core");
        assert_eq!(reg.histograms["serve.batch_size"].owner, "serve");
        assert!(parse_obs("[gauge]\n").is_err());
        assert!(parse_obs("\"x\" = \"y\"\n").is_err(), "entry before section");
    }

    #[test]
    fn blob_format_and_errors() {
        let reg = parse_blob("[blob]\nSDT2 = \"v2 | crates/tensor/src/serialize.rs\"\n").unwrap();
        assert_eq!(reg.kinds["SDT2"].version, "v2");
        assert!(parse_blob("[blob]\nSDT2 = \"2 | f.rs\"\n").is_err(), "version needs v prefix");
        assert!(parse_blob("[blob]\nTOOLONGX = \"v1 | f.rs\"\n").is_err(), "kind must be 4 bytes");
        assert!(parse_blob("[blob]\nXDT2 = \"v1 | f.rs\"\n").is_err(), "kind must start SD");
    }
}

//! `sdea` — command-line interface to the entity-alignment system.
//!
//! Subcommands:
//!
//! * `generate <profile> <dir> [--links N] [--seed S] [--scale F]` —
//!   generate a benchmark dataset and write it as OpenEA-style TSV files;
//!   `--scale F` grows the profile F× for scale testing.
//! * `align <dir> [--seed S] [--out model.sdt] [--encoder-out enc.sdqe]
//!   [--matching] [--tiny] [--checkpoint <ckpt-dir>] [--ckpt-every N]` —
//!   load a dataset directory (as written by `generate`, or any
//!   OpenEA-format dump), train SDEA, report metrics, optionally save the
//!   model and/or the query encoder (the artifact `sdea_serve` loads).
//!   With `--checkpoint`, training is crash-safe: rerunning the same
//!   command resumes from the last intact checkpoint in the directory,
//!   bit-identically.
//! * `rank <dir> <model.sdt> <entity-name> [--top K] [--attr]` — load a
//!   trained model and print the top-K aligned candidates for one KG1
//!   entity. `--attr` ranks in the attribute-embedding space (the space
//!   the serving path queries in) instead of the fused entity space.
//!   With `--query <text> --encoder <enc.sdqe>` the positional entity
//!   name is dropped and the query *text* is embedded through the saved
//!   encoder instead — the offline twin of `sdea_serve`'s `/v1/align`,
//!   used by CI to prove the served answer matches this path.
//! * `profiles` — list available dataset profiles.
//!
//! Each subcommand takes its positionals first, then only the flags listed
//! above. An unknown flag (`--sede 7`), an extra positional, a flag with no
//! value or a malformed numeric value (`--links 40x`) exits 2 with a
//! message naming it, before anything is read or written; nothing falls
//! back to a default.
//!
//! Dataset directory layout (`generate` writes, `align`/`rank` read):
//! `rel_triples_1  attr_triples_1  rel_triples_2  attr_triples_2  ent_links`.

#![forbid(unsafe_code)]

use sdea::obs::env::{flag, parse_flags};
use sdea::prelude::*;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("align") => cmd_align(&args[1..]),
        Some("rank") => cmd_rank(&args[1..]),
        Some("profiles") => {
            for (name, desc) in PROFILES {
                println!("{name:<10} {desc}");
            }
            0
        }
        _ => {
            eprintln!(
                "usage: sdea <generate|align|rank|profiles> ...\n\
                 \n  sdea generate <profile> <dir> [--links N] [--seed S] [--scale F]\
                 \n  sdea align <dir> [--seed S] [--out model.sdt] [--encoder-out enc.sdqe]\
                 \n             [--matching] [--tiny] [--checkpoint <ckpt-dir>] [--ckpt-every N]\
                 \n  sdea rank <dir> <model.sdt> <entity-name> [--top K] [--attr]\
                 \n  sdea rank <dir> <model.sdt> --query <text> --encoder <enc.sdqe> [--top K]\
                 \n  sdea profiles"
            );
            2
        }
    };
    exit(code);
}

const PROFILES: &[(&str, &str)] = &[
    ("zh_en", "DBP15K ZH-EN: dense, transliterated names"),
    ("ja_en", "DBP15K JA-EN: dense, transliterated names"),
    ("fr_en", "DBP15K FR-EN: dense, near-literal names"),
    ("en_fr", "SRPRS EN-FR: sparse, long-tail, literal names"),
    ("en_de", "SRPRS EN-DE: sparse, long-tail, literal names"),
    ("dbp_wd", "SRPRS DBP-WD: sparse, monolingual"),
    ("dbp_yg", "SRPRS DBP-YG: sparse, attribute-poor YAGO side"),
    ("d_w", "OpenEA D-W V1: sparse, Wikidata Q-id names"),
];

/// The flags of subcommand `cmd`, from `rest`, its arguments after the
/// positionals: exit 2 naming an argument that is not one of `valued` with
/// a value or one of `switches`.
fn flags_or_exit<'a>(
    cmd: &str,
    rest: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Vec<(&'a str, &'a str)> {
    parse_flags(rest, valued, switches).unwrap_or_else(|msg| {
        eprintln!("sdea {cmd}: {msg}");
        exit(2)
    })
}

/// Parses the value of a numeric flag: `None` when the flag is absent,
/// exit 2 with a message naming the flag when its value is malformed.
fn numeric_flag<T: FromStr>(flags: &[(&str, &str)], name: &str, expected: &str) -> Option<T> {
    sdea::obs::env::check_parse(name, flag(flags, name), expected).unwrap_or_else(|msg| {
        eprintln!("sdea: {msg}");
        exit(2)
    })
}

fn profile_by_name(name: &str, links: usize, seed: u64) -> Option<DatasetProfile> {
    Some(match name {
        "zh_en" => DatasetProfile::dbp15k_zh_en(links, seed),
        "ja_en" => DatasetProfile::dbp15k_ja_en(links, seed),
        "fr_en" => DatasetProfile::dbp15k_fr_en(links, seed),
        "en_fr" => DatasetProfile::srprs_en_fr(links, seed),
        "en_de" => DatasetProfile::srprs_en_de(links, seed),
        "dbp_wd" => DatasetProfile::srprs_dbp_wd(links, seed),
        "dbp_yg" => DatasetProfile::srprs_dbp_yg(links, seed),
        "d_w" => DatasetProfile::openea_d_w(links, seed),
        _ => return None,
    })
}

fn cmd_generate(args: &[String]) -> i32 {
    let [profile_name, dir, rest @ ..] = args else {
        eprintln!("usage: sdea generate <profile> <dir> [--links N] [--seed S] [--scale F]");
        return 2;
    };
    let flags = flags_or_exit("generate", rest, &["--links", "--seed", "--scale"], &[]);
    let links = numeric_flag(&flags, "--links", "a non-negative integer").unwrap_or(300);
    let seed = numeric_flag(&flags, "--seed", "an unsigned integer seed").unwrap_or(2022);
    // --scale F grows the profile F× (entities and triples scale
    // near-linearly with the link target; see DatasetProfile::scaled).
    let scale =
        numeric_flag(&flags, "--scale", "an integer factor >= 1").map_or(1, NonZeroUsize::get);
    let Some(profile) = profile_by_name(profile_name, links, seed) else {
        eprintln!("unknown profile {profile_name}; see `sdea profiles`");
        return 2;
    };
    let ds = sdea::synth::generate(&profile.scaled(scale));
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return 1;
    }
    let write = || -> std::io::Result<()> {
        sdea::kg::io::save_kg(ds.kg1(), &dir.join("rel_triples_1"), &dir.join("attr_triples_1"))?;
        sdea::kg::io::save_kg(ds.kg2(), &dir.join("rel_triples_2"), &dir.join("attr_triples_2"))?;
        sdea::kg::io::save_links(&ds.seeds, ds.kg1(), ds.kg2(), &dir.join("ent_links"))
    };
    if let Err(e) = write() {
        eprintln!("write failed: {e}");
        return 1;
    }
    println!(
        "wrote {} ({} + {} entities, {} links) to {}",
        ds.name,
        ds.kg1().num_entities(),
        ds.kg2().num_entities(),
        ds.seeds.len(),
        dir.display()
    );
    0
}

fn load_dir(dir: &Path) -> std::io::Result<(KnowledgeGraph, KnowledgeGraph, AlignmentSeeds)> {
    let kg1 = sdea::kg::io::load_kg(&dir.join("rel_triples_1"), &dir.join("attr_triples_1"))?;
    let kg2 = sdea::kg::io::load_kg(&dir.join("rel_triples_2"), &dir.join("attr_triples_2"))?;
    let seeds = sdea::kg::io::load_links(&kg1, &kg2, &dir.join("ent_links"))?;
    Ok((kg1, kg2, seeds))
}

fn cmd_align(args: &[String]) -> i32 {
    let [dir, rest @ ..] = args else {
        eprintln!(
            "usage: sdea align <dir> [--seed S] [--out model.sdt] [--encoder-out enc.sdqe] \
             [--matching] [--tiny] [--checkpoint <ckpt-dir>] [--ckpt-every N]"
        );
        return 2;
    };
    let flags = flags_or_exit(
        "align",
        rest,
        &["--seed", "--out", "--encoder-out", "--checkpoint", "--ckpt-every"],
        &["--matching", "--tiny"],
    );
    let seed = numeric_flag(&flags, "--seed", "an unsigned integer seed").unwrap_or(2022);
    let ckpt_every = numeric_flag(&flags, "--ckpt-every", "a non-negative integer");
    let (kg1, kg2, seeds) = match load_dir(Path::new(dir)) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot load dataset from {dir}: {e}");
            return 1;
        }
    };
    let mut rng = Rng::seed_from_u64(seed);
    let split = seeds.split_paper(&mut rng);
    let mut corpus: Vec<String> = kg1.attr_triples().iter().map(|t| t.value.clone()).collect();
    corpus.extend(kg2.attr_triples().iter().map(|t| t.value.clone()));
    // --tiny trades quality for speed (the unit-test configuration):
    // smoke runs, and the kill-and-resume integration test.
    let base = if flag(&flags, "--tiny").is_some() {
        SdeaConfig::test_tiny()
    } else {
        SdeaConfig::default()
    };
    let mut cfg = SdeaConfig { seed, ..base };
    // --checkpoint enables crash-safe training: checkpoints land in the
    // directory, and a rerun pointed at the same directory resumes from
    // the last intact state, bit-identically.
    cfg.checkpoint_dir = flag(&flags, "--checkpoint").map(PathBuf::from);
    if let Some(every) = ckpt_every {
        cfg.checkpoint_every = every;
    }
    eprintln!(
        "training SDEA on {} + {} entities ({} train / {} valid / {} test links)...",
        kg1.num_entities(),
        kg2.num_entities(),
        split.train.len(),
        split.valid.len(),
        split.test.len()
    );
    let model = match (SdeaPipeline {
        kg1: &kg1,
        kg2: &kg2,
        split: &split,
        corpus: &corpus,
        cfg,
        variant: RelVariant::Full,
    })
    .try_run()
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("alignment failed: {e}");
            return 1;
        }
    };
    let result = model.align_test(&split.test);
    let m = result.metrics();
    println!("Hits@1 {:.1}%  Hits@10 {:.1}%  MRR {:.2}", m.hits1 * 100.0, m.hits10 * 100.0, m.mrr);
    if flag(&flags, "--matching").is_some() {
        println!("Hits@1 with stable matching: {:.1}%", result.stable_matching_hits1() * 100.0);
    }
    if let Some(out) = flag(&flags, "--out") {
        if let Err(e) = sdea::core::model_io::save_model(&model, out) {
            eprintln!("cannot save model: {e}");
            return 1;
        }
        println!("model saved to {out}");
    }
    if let Some(out) = flag(&flags, "--encoder-out") {
        // The encoder only exists when the attribute stage ran in this
        // process; a resume past attr_done has tables but no weights.
        let Some(module) = model.attr_module.as_ref() else {
            eprintln!(
                "cannot save encoder: the attribute stage was skipped (checkpoint resume); \
                 retrain from scratch to export the encoder"
            );
            return 1;
        };
        if let Err(e) = sdea::core::encoder_io::save_encoder(module, out) {
            eprintln!("cannot save encoder: {e}");
            return 1;
        }
        println!("encoder saved to {out}");
    }
    0
}

fn cmd_rank(args: &[String]) -> i32 {
    let [dir, model_path, rest @ ..] = args else {
        eprintln!(
            "usage: sdea rank <dir> <model.sdt> <entity-name> [--top K] [--attr]\n\
             \x20      sdea rank <dir> <model.sdt> --query <text> --encoder <enc.sdqe> [--top K]"
        );
        return 2;
    };
    // The entity name is the third positional; `--query` text replaces it.
    let (entity, rest) = match rest {
        [name, rest @ ..] if !name.starts_with("--") => (Some(name), rest),
        _ => (None, rest),
    };
    let flags = flags_or_exit("rank", rest, &["--top", "--query", "--encoder"], &["--attr"]);
    let query_text = flag(&flags, "--query");
    if let (Some(name), Some(_)) = (entity, query_text) {
        eprintln!("sdea rank: unexpected argument {name:?}: --query replaces the entity name");
        return 2;
    }
    let top = numeric_flag(&flags, "--top", "a non-negative integer").unwrap_or(5);
    let attr_space = flag(&flags, "--attr").is_some();
    let (kg1, kg2, _) = match load_dir(Path::new(dir)) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot load dataset from {dir}: {e}");
            return 1;
        }
    };
    let model = match sdea::core::model_io::load_model(model_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot load model: {e}");
            return 1;
        }
    };
    // Two query modes: a KG1 entity looked up in its table, or free text
    // embedded through the saved encoder (the serving path's offline twin
    // — always attribute-space).
    let (src, dst_table, label) = if let Some(text) = query_text {
        let Some(encoder_path) = flag(&flags, "--encoder") else {
            eprintln!("--query needs --encoder <enc.sdqe> (from `sdea align --encoder-out`)");
            return 2;
        };
        let encoder = match sdea::core::encoder_io::load_encoder(encoder_path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("cannot load encoder: {e}");
                return 1;
            }
        };
        (encoder.embed_one(text), &model.h_a2, format!("{text:?}"))
    } else {
        let Some(entity) = entity else {
            eprintln!("usage: sdea rank <dir> <model.sdt> <entity-name> [--top K] [--attr]");
            return 2;
        };
        let Some(e1) = kg1.find_entity(entity) else {
            eprintln!("entity {entity:?} not found in KG1");
            return 1;
        };
        // --attr ranks in the attribute space (what `sdea_serve` queries
        // in); the default is the fused [H_r; H_a; H_m] entity space.
        let (src_table, dst_table) =
            if attr_space { (&model.h_a1, &model.h_a2) } else { (&model.ent1, &model.ent2) };
        (src_table.gather_rows(&[e1.0 as usize]), dst_table, entity.clone())
    };
    let sim = sdea::eval::cosine_matrix(&src, dst_table);
    let best = sdea::eval::top_k_indices(sim.data(), top);
    println!("top {top} candidates for {label}:");
    for (rank, &j) in best.iter().enumerate() {
        println!(
            "  {}. {:<30} cosine {:+.3}",
            rank + 1,
            kg2.entity_name(sdea::kg::EntityId(j as u32)),
            sim.data()[j]
        );
    }
    0
}

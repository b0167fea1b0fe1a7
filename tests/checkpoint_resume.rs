//! Kill-and-resume integration test: a training process killed mid-write by
//! an injected fault (simulating a crash / OOM-kill) must, when rerun
//! against the same checkpoint directory, finish and produce a model
//! **byte-identical** to an uninterrupted run — at thread budgets 1 and 8,
//! and identically across the two budgets. Two kill points are covered:
//! `artifact.write:1:kill` dies while the attribute-stage boundary
//! artifact is written, right after the final `H_a` tables are embedded;
//! `stage.rel.write:2:kill` dies mid relation stage.
//!
//! This drives the real `sdea` binary as separate processes: a `kill`-mode
//! fault exits mid-operation and cannot be observed in-process.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sdea");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdea_killres_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn align_cmd(data: &Path, out: &Path, ckpt: Option<&Path>, threads: &str) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("align")
        .arg(data)
        .args(["--tiny", "--seed", "7", "--out"])
        .arg(out)
        .env("SDEA_THREADS", threads)
        .env_remove("SDEA_FAULT");
    if let Some(dir) = ckpt {
        cmd.arg("--checkpoint").arg(dir);
    }
    cmd
}

#[test]
fn killed_run_resumes_bit_identically_across_thread_budgets() {
    let root = scratch("main");
    let data = root.join("data");
    let status = Command::new(BIN)
        .arg("generate")
        .args(["fr_en"])
        .arg(&data)
        .args(["--links", "40", "--seed", "5"])
        .status()
        .expect("spawn generate");
    assert!(status.success(), "dataset generation failed");

    let mut models: Vec<Vec<u8>> = Vec::new();
    for threads in ["1", "8"] {
        let clean_out = root.join(format!("clean_{threads}.sdt"));
        let status = align_cmd(&data, &clean_out, None, threads).status().expect("spawn align");
        assert!(status.success(), "clean run failed (threads={threads})");
        let clean = std::fs::read(&clean_out).unwrap();

        for (tag, fault) in
            [("artifact", "artifact.write:1:kill"), ("rel", "stage.rel.write:2:kill")]
        {
            let ckpt = root.join(format!("ckpt_{tag}_{threads}"));
            let killed_out = root.join(format!("killed_{tag}_{threads}.sdt"));
            let status = align_cmd(&data, &killed_out, Some(&ckpt), threads)
                .env("SDEA_FAULT", fault)
                .status()
                .expect("spawn faulted align");
            assert_eq!(status.code(), Some(137), "{fault} must kill the process");
            assert!(!killed_out.exists(), "killed run must not have produced a model");
            assert!(ckpt.join("manifest.sdm").exists(), "crash left no manifest");

            // Rerun against the same directory: resumes and finishes.
            let resumed_out = root.join(format!("resumed_{tag}_{threads}.sdt"));
            let status = align_cmd(&data, &resumed_out, Some(&ckpt), threads)
                .status()
                .expect("spawn resume");
            assert!(status.success(), "resumed run failed ({fault}, threads={threads})");
            let resumed = std::fs::read(&resumed_out).unwrap();
            assert_eq!(
                resumed, clean,
                "resumed model differs from uninterrupted run ({fault}, threads={threads})"
            );
        }
        models.push(clean);
    }
    assert_eq!(models[0], models[1], "results differ across thread budgets");
    let _ = std::fs::remove_dir_all(&root);
}

/// An injected *write error* (not a kill) exercises the bounded-retry path:
/// one transient failure is absorbed and the run still succeeds, producing
/// the same model as a fault-free run.
#[test]
fn transient_write_error_is_retried_and_harmless() {
    let root = scratch("retry");
    let data = root.join("data");
    let status = Command::new(BIN)
        .arg("generate")
        .args(["fr_en"])
        .arg(&data)
        .args(["--links", "30", "--seed", "6"])
        .status()
        .expect("spawn generate");
    assert!(status.success());

    let clean_out = root.join("clean.sdt");
    assert!(align_cmd(&data, &clean_out, None, "2").status().unwrap().success());

    let faulted_out = root.join("faulted.sdt");
    let ckpt = root.join("ckpt");
    let status = align_cmd(&data, &faulted_out, Some(&ckpt), "2")
        .env("SDEA_FAULT", "stage.rel.write:1:error")
        .status()
        .expect("spawn faulted align");
    assert!(status.success(), "a retried transient error must not fail the run");
    assert_eq!(std::fs::read(&faulted_out).unwrap(), std::fs::read(&clean_out).unwrap());
    let _ = std::fs::remove_dir_all(&root);
}

/// A corrupt-mode fault flips one byte of a checkpoint payload on disk; the
/// next run must reject the damaged file with a clean fallback (quarantine),
/// never a panic or silently wrong weights.
#[test]
fn corrupted_checkpoint_write_is_quarantined_on_resume() {
    let root = scratch("corrupt");
    let data = root.join("data");
    let status = Command::new(BIN)
        .arg("generate")
        .args(["fr_en"])
        .arg(&data)
        .args(["--links", "30", "--seed", "6"])
        .status()
        .expect("spawn generate");
    assert!(status.success());

    let clean_out = root.join("clean.sdt");
    assert!(align_cmd(&data, &clean_out, None, "2").status().unwrap().success());

    // Corrupt the attribute-stage boundary artifact (written exactly once
    // per run, and never pruned — unlike mid-stage epoch checkpoints).
    // The writing run completes normally with a bad file on disk.
    let ckpt = root.join("ckpt");
    let first_out = root.join("first.sdt");
    let status = align_cmd(&data, &first_out, Some(&ckpt), "2")
        .env("SDEA_FAULT", "artifact.write:1:corrupt")
        .status()
        .expect("spawn corrupting align");
    assert!(status.success(), "corrupt-mode fault must not fail the writing run");
    assert_eq!(std::fs::read(&first_out).unwrap(), std::fs::read(&clean_out).unwrap());

    // A rerun loads the directory, detects the damage, quarantines the
    // file, redoes the attribute stage from scratch, and still reproduces
    // the clean model exactly.
    let second_out = root.join("second.sdt");
    let status = align_cmd(&data, &second_out, Some(&ckpt), "2").status().expect("spawn resume");
    assert!(status.success(), "resume after corruption failed");
    assert_eq!(std::fs::read(&second_out).unwrap(), std::fs::read(&clean_out).unwrap());
    let corrupt_quarantined = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".corrupt"));
    assert!(corrupt_quarantined, "damaged checkpoint was not quarantined");
    let _ = std::fs::remove_dir_all(&root);
}

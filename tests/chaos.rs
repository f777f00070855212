//! The crash-safety chaos gate.
//!
//! Byte-determinism (see `tests/golden.rs`) must survive misfortune, not
//! just thread-count changes. These tests inject deterministic faults
//! through the PR 9 [`FaultPlan`] harness and demand that:
//!
//! * a transiently panicking `(repetition × shard)` task, retried once,
//!   reproduces every committed paper-preset golden byte-for-byte at 1
//!   and 8 threads (retries replay the identical RNG stream — the
//!   attempt count never enters the fork label),
//! * a checkpoint file torn mid-line by a crash (or losing records to
//!   injected IO errors) still resumes to byte-identical output, and
//! * *arbitrary* damage — truncation at any byte offset, any single-byte
//!   flip — either resumes byte-identically or fails loudly with a
//!   checkpoint/manifest error, never silently wrong bytes (the CRC-32
//!   frame catches every single-byte flip).

use insomnia::core::{ScenarioConfig, SchemeSpec};
use insomnia::scenarios::{
    load_checkpoint, manifest_for, parse_scheme_list, run_batch, BatchRun, CheckpointWriter,
    FaultPlan, Registry, RunControl, Telemetry,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("insomnia-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_with(batch: &BatchRun, ctl: RunControl) -> Vec<u8> {
    let mut out = Vec::new();
    run_batch(batch, &mut out, &Telemetry::quiet(), ctl)
        .unwrap_or_else(|e| panic!("controlled run: {e}"));
    out
}

/// The exact batch the golden gate runs (`--quick`, one seed), with a
/// thread-count override.
fn golden_batch(preset: &str, schemes: &str, threads: usize) -> BatchRun {
    let mut cfg =
        Registry::builtin().resolve(preset).unwrap_or_else(|e| panic!("resolve {preset}: {e}"));
    cfg.repetitions = cfg.repetitions.min(2);
    BatchRun {
        scenarios: vec![(preset.to_string(), cfg)],
        schemes: parse_scheme_list(schemes).unwrap(),
        seeds: 1,
        threads,
    }
}

fn golden_bytes(golden: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{golden}.jsonl", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

/// Transient panics plus one retry must leave every paper-preset golden
/// byte-identical, serial and parallel.
#[test]
fn transient_faults_with_retry_leave_goldens_byte_identical() {
    let presets: &[(&str, &str, &str)] = &[
        ("paper-default", "no-sleep,soi,bh2", "paper-default"),
        ("dense-urban", "no-sleep,soi,bh2", "dense-urban"),
        ("rural-sparse", "no-sleep,soi,bh2", "rural-sparse"),
        ("flash-crowd", "no-sleep,soi,bh2", "flash-crowd"),
        ("weekend-diurnal", "no-sleep,soi,bh2", "weekend-diurnal"),
        ("no-wireless-sharing", "no-sleep,soi,bh2", "no-wireless-sharing"),
        ("paper-default", "multi-doze,adaptive-soi", "paper-default-doze"),
    ];
    for (i, (preset, schemes, golden)) in presets.iter().enumerate() {
        let want = golden_bytes(golden);
        for threads in [1, 8] {
            let batch = golden_batch(preset, schemes, threads);
            // Two seeded-random task ordinals panic on their first
            // attempt; the retry must reproduce the identical stream.
            let plan =
                FaultPlan { random_panics: 2, seed: 2011 + i as u64, ..FaultPlan::default() };
            let got = run_with(
                &batch,
                RunControl { faults: Some(plan), max_attempts: 2, ..RunControl::default() },
            );
            assert_eq!(
                got, want,
                "{preset} ({schemes}) drifted from tests/golden/{golden}.jsonl \
                 under transient faults at {threads} thread(s)"
            );
        }
    }
}

/// A small 4-task batch (2 repetitions × 1 shard × 2 seeds) for the
/// checkpoint-damage tests — big enough to resume something, small
/// enough to re-simulate per property case.
fn tiny_batch() -> BatchRun {
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = insomnia::simcore::SimTime::from_hours(2);
    cfg.repetitions = 2;
    BatchRun {
        scenarios: vec![("smoke".into(), cfg)],
        schemes: vec![SchemeSpec::soi()],
        seeds: 2,
        threads: 2,
    }
}

/// A torn tail plus a dropped (IO-error) record must both be re-simulated
/// on resume, landing on byte-identical output.
#[test]
fn torn_tail_and_lost_records_resume_byte_identically() {
    let batch = tiny_batch();
    let reference = run_with(&batch, RunControl::default());

    // Checkpointed run: task 1's record write "fails", and the file is
    // torn mid-line right after task 2's record lands.
    let path = tmp_path("torn-tail.ckpt.jsonl");
    let manifest = manifest_for(&batch);
    let writer = CheckpointWriter::create(&path, &manifest).unwrap();
    let plan =
        FaultPlan { io_error_tasks: vec![1], torn_tail_task: Some(2), ..FaultPlan::default() };
    let first = run_with(
        &batch,
        RunControl { checkpoint: Some(writer), faults: Some(plan), ..RunControl::default() },
    );
    assert_eq!(first, reference, "write-side faults must never touch the result JSONL");

    let loaded = load_checkpoint(&path).unwrap();
    assert!(loaded.dropped_tail, "the torn record must be dropped, not fatal");
    assert!(
        loaded.tasks.len() < batch.n_jobs() * 2,
        "damage must have cost records: kept {}",
        loaded.tasks.len()
    );
    loaded.manifest.verify_against(&manifest).unwrap();

    let resumed = run_with(
        &batch,
        RunControl {
            checkpoint: Some(CheckpointWriter::append(&path).unwrap()),
            resume: Some(loaded.tasks),
            ..RunControl::default()
        },
    );
    assert_eq!(resumed, reference, "resume after torn tail + lost records drifted");

    // The re-simulated tasks were appended, so a second load now has the
    // full set and a clean tail.
    let reloaded = load_checkpoint(&path).unwrap();
    assert_eq!(reloaded.tasks.len(), batch.n_jobs() * 2);
    assert!(!reloaded.dropped_tail);
}

/// A two-scheme batch over a sharded lazy world, small enough to run per
/// thread count: under the default shard-major order the world-prototype
/// cache is live, so interrupting and resuming this batch exercises the
/// cache's resume bookkeeping (checkpointed tasks skip their prototype
/// claim) on top of ordinary replay.
fn sharded_batch(threads: usize) -> BatchRun {
    let mut cfg = Registry::builtin().resolve("dense-metro").unwrap();
    cfg.trace.n_clients = 1_600 * 2;
    cfg.trace.n_aps = 200 * 2;
    cfg.shards = 2;
    cfg.trace.horizon = insomnia::simcore::SimTime::from_hours(1);
    cfg.completion_cutoff = 0;
    cfg.online_cutoff = 0;
    cfg.validate().unwrap();
    BatchRun {
        scenarios: vec![("dense-metro-reduced".into(), cfg)],
        schemes: parse_scheme_list("no-sleep,soi").unwrap(),
        seeds: 1,
        threads,
    }
}

/// A shard-major run killed mid-batch (a permanently panicking task, no
/// retry budget) must leave a checkpoint that resumes to byte-identical
/// output, serial and parallel.
#[test]
fn interrupted_shard_major_run_resumes_byte_identically() {
    for threads in [1, 8] {
        let batch = sharded_batch(threads);
        let reference = run_with(&batch, RunControl::default());

        // Global task ordinal 2 is the second scheme's first task: by the
        // time it panics, at least the first scheme's opening task — served
        // from the same shard's freshly built prototype — has checkpointed.
        let path = tmp_path(&format!("shard-major-{threads}.ckpt.jsonl"));
        let manifest = manifest_for(&batch);
        let writer = CheckpointWriter::create(&path, &manifest).unwrap();
        let plan = FaultPlan { panic_tasks: vec![2], ..FaultPlan::default() };
        let mut partial = Vec::new();
        let err = run_batch(
            &batch,
            &mut partial,
            &Telemetry::quiet(),
            RunControl { checkpoint: Some(writer), faults: Some(plan), ..RunControl::default() },
        )
        .expect_err("a panicking task with max_attempts = 1 must fail the run");
        assert!(err.to_string().contains("failed"), "unexpected error: {err}");
        assert!(
            reference.starts_with(&partial),
            "the interrupted JSONL must be an in-order prefix of the reference \
             at {threads} thread(s)"
        );

        // Resume replays the checkpointed tasks and re-simulates the rest.
        let loaded = load_checkpoint(&path).unwrap();
        loaded.manifest.verify_against(&manifest).unwrap();
        assert!(!loaded.tasks.is_empty(), "the interrupted run must have checkpointed tasks");
        let resumed = run_with(
            &batch,
            RunControl {
                checkpoint: Some(CheckpointWriter::append(&path).unwrap()),
                resume: Some(loaded.tasks),
                ..RunControl::default()
            },
        );
        assert_eq!(resumed, reference, "shard-major resume drifted at {threads} thread(s)");
    }
}

/// Shared fixture for the damage property: an intact checkpoint of the
/// tiny batch plus the uninterrupted reference output.
fn damage_fixture() -> &'static (Vec<u8>, Vec<u8>) {
    static FIXTURE: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let batch = tiny_batch();
        let path = tmp_path("damage-fixture.ckpt.jsonl");
        let writer = CheckpointWriter::create(&path, &manifest_for(&batch)).unwrap();
        let reference =
            run_with(&batch, RunControl { checkpoint: Some(writer), ..RunControl::default() });
        (std::fs::read(&path).unwrap(), reference)
    })
}

/// Damaged checkpoint + resume: either byte-identical recovery or a loud
/// checkpoint error — never silently wrong output.
fn assert_recovers_or_rejects(damaged: &[u8], what: &str) {
    let (_, reference) = damage_fixture();
    let path = tmp_path("damaged.ckpt.jsonl");
    std::fs::write(&path, damaged).unwrap();
    let batch = tiny_batch();
    let loaded = match load_checkpoint(&path) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("checkpoint"), "{what}: unhelpful load error: {msg}");
            return;
        }
        Ok(loaded) => loaded,
    };
    if let Err(e) = loaded.manifest.verify_against(&manifest_for(&batch)) {
        let msg = e.to_string();
        assert!(msg.contains("manifest"), "{what}: unhelpful manifest error: {msg}");
        return;
    }
    let resumed =
        run_with(&batch, RunControl { resume: Some(loaded.tasks), ..RunControl::default() });
    assert_eq!(&resumed, reference, "{what}: resume produced wrong bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the checkpoint at any byte offset — the crash model —
    /// recovers byte-identically or rejects with a clear error.
    #[test]
    fn truncated_checkpoints_recover_or_reject(frac in 0.0f64..1.0) {
        let (intact, _) = damage_fixture();
        let cut = (intact.len() as f64 * frac) as usize;
        assert_recovers_or_rejects(&intact[..cut.min(intact.len())], "truncate");
    }

    /// Flipping any single byte anywhere in the checkpoint — bit rot —
    /// recovers byte-identically or rejects; the CRC frame guarantees a
    /// flip never smuggles wrong task bytes into the fold.
    #[test]
    fn flipped_checkpoint_bytes_recover_or_reject(
        frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let (intact, _) = damage_fixture();
        let pos = ((intact.len() as f64 * frac) as usize).min(intact.len() - 1);
        let mut damaged = intact.clone();
        damaged[pos] ^= 1 << bit;
        assert_recovers_or_rejects(&damaged, "byte flip");
    }
}

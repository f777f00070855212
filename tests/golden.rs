//! The golden-trace regression gate.
//!
//! `tests/golden/<preset>.jsonl` freezes the batch-runner JSONL of every
//! `shards = 1` paper preset (schemes `no-sleep,soi,bh2`, one seed, two
//! repetitions — the CLI's `--quick`, full 24 h horizon), generated by the
//! PR 2 driver *before* completion metrics moved to the streaming quantile
//! sketch. Each test below re-runs the identical batch through today's
//! code and demands byte-for-byte equality: any drift in the trace
//! generator, topology builder, schemes, RNG discipline, JSONL schema —
//! or in the sketch's exact-below-cutoff promise — trips it.
//!
//! `tests/golden/paper-default-doze.jsonl` extends the same freeze to the
//! multi-state sleep policies (`multi-doze,adaptive-soi`) on paper-default,
//! and `tests/golden/paper-default-optimal.jsonl` freezes the Eq. (1)
//! optimal scheme on paper-default (generated before the incremental branch
//! and bound replaced the per-node rescanning search).
//!
//! Refreshing after an *intentional* semantics change (see README):
//!
//! ```sh
//! scripts/refresh-goldens.sh
//! ```
//!
//! CI additionally replays the same comparison through the release CLI and
//! `insomnia compare` (exit-code gate), so the goldens guard both the
//! library path and the binary path.

use insomnia::scenarios::{
    compare_jsonl, parse_scheme_list, run_batch, BatchRun, Registry, RunControl, Telemetry,
};

/// Runs one preset exactly like `insomnia run --scenario <name>
/// --schemes <schemes> --seeds 1 --quick` and compares the JSONL bytes
/// against the committed golden `tests/golden/<golden>.jsonl`.
fn assert_schemes_match_golden(preset: &str, schemes: &str, golden: &str) {
    let mut cfg =
        Registry::builtin().resolve(preset).unwrap_or_else(|e| panic!("resolve {preset}: {e}"));
    cfg.repetitions = cfg.repetitions.min(2); // the CLI's --quick
    let batch = BatchRun {
        scenarios: vec![(preset.to_string(), cfg)],
        schemes: parse_scheme_list(schemes).unwrap(),
        seeds: 1,
        threads: 0,
    };
    let mut out = Vec::new();
    run_batch(&batch, &mut out, &Telemetry::stderr(), RunControl::default())
        .unwrap_or_else(|e| panic!("run {preset}: {e}"));
    let got = String::from_utf8(out).expect("JSONL is UTF-8");

    let path = format!("{}/tests/golden/{golden}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (see refresh recipe above)"));

    if got != want {
        // Byte inequality is the failure; the structured diff just makes
        // the report readable (which metric moved, by how much).
        let report = compare_jsonl("golden", &want, "current", &got, 0.0)
            .map(|r| r.render())
            .unwrap_or_else(|e| format!("(diff unavailable: {e})"));
        panic!(
            "{preset}: JSONL drifted from tests/golden/{golden}.jsonl\n{report}\
             If the change is intentional, refresh the goldens (recipe in this file's header)."
        );
    }
}

fn assert_matches_golden(preset: &str) {
    assert_schemes_match_golden(preset, "no-sleep,soi,bh2", preset);
}

#[test]
fn golden_paper_default() {
    assert_matches_golden("paper-default");
}

#[test]
fn golden_dense_urban() {
    assert_matches_golden("dense-urban");
}

#[test]
fn golden_rural_sparse() {
    assert_matches_golden("rural-sparse");
}

#[test]
fn golden_flash_crowd() {
    assert_matches_golden("flash-crowd");
}

#[test]
fn golden_weekend_diurnal() {
    assert_matches_golden("weekend-diurnal");
}

#[test]
fn golden_no_wireless_sharing() {
    assert_matches_golden("no-wireless-sharing");
}

#[test]
fn golden_paper_default_doze_schemes() {
    assert_schemes_match_golden("paper-default", "multi-doze,adaptive-soi", "paper-default-doze");
}

#[test]
fn golden_paper_default_optimal() {
    assert_schemes_match_golden("paper-default", "optimal", "paper-default-optimal");
}

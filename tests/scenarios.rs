//! Integration tests of the scenario orchestration subsystem: spec
//! round-trips, registry completeness, and the batch runner's determinism
//! guarantee (byte-identical JSONL regardless of thread count).

use insomnia::core::{ScenarioConfig, SchemeSpec, TopologyKind};
use insomnia::scenarios::{
    compare_jsonl, parse_scheme_list, run_batch, BatchRun, Registry, RunControl, ScenarioSpec,
    Telemetry,
};
use insomnia::simcore::SimTime;

#[test]
fn registry_ships_at_least_six_validating_presets() {
    let reg = Registry::builtin();
    assert!(reg.presets().len() >= 6);
    for preset in reg.presets() {
        let cfg = reg
            .resolve(preset.name)
            .unwrap_or_else(|e| panic!("preset {} failed to resolve: {e}", preset.name));
        cfg.validate().unwrap_or_else(|e| panic!("preset {} failed validation: {e}", preset.name));
        assert!(!preset.summary.is_empty(), "{} needs a summary", preset.name);
    }
}

#[test]
fn spec_roundtrips_through_toml_text() {
    // A spec using every section: scalar overrides, nested bh2 and surge
    // tables, topology and diurnal selectors.
    let spec = ScenarioSpec::from_toml(
        r#"
name = "roundtrip"
summary = "exercises every table"
n_clients = 120
n_aps = 20
horizon_hours = 12.0
rate_scale = 1.5
diurnal = "residential"
topology = "binomial"
mean_networks_in_range = 3.0
backhaul_mbps = 4.0
seed = 99

[surge]
start_h = 18.0
end_h = 21.0
intensity = 4.0

[bh2]
low_threshold = 0.08
backup = 2
"#,
    )
    .unwrap();
    let text = spec.to_toml();
    let back = ScenarioSpec::from_toml(&text).unwrap();
    assert_eq!(spec, back, "parse(serialize(spec)) must be identity");

    // And the resolved config carries the values through.
    let cfg = back.to_config().unwrap();
    assert_eq!(cfg.trace.n_clients, 120);
    assert_eq!(cfg.trace.horizon, SimTime::from_hours(12));
    assert_eq!(cfg.topology, TopologyKind::Binomial);
    assert_eq!(cfg.trace.surge.unwrap().intensity, 4.0);
    assert_eq!(cfg.bh2.backup, 2);
    assert_eq!(cfg.seed, 99);
}

#[test]
fn fully_explicit_spec_roundtrips_for_every_preset() {
    let reg = Registry::builtin();
    for preset in reg.presets() {
        let cfg = reg.resolve(preset.name).unwrap();
        let explicit = ScenarioSpec::explicit(preset.name, Some(preset.summary), &cfg);
        let back = ScenarioSpec::from_toml(&explicit.to_toml()).unwrap();
        assert_eq!(explicit, back, "{}", preset.name);
        let cfg2 = back.to_config().unwrap();
        assert_eq!(cfg2.trace.n_clients, cfg.trace.n_clients, "{}", preset.name);
        assert_eq!(cfg2.backhaul_bps, cfg.backhaul_bps, "{}", preset.name);
        assert_eq!(cfg2.bh2.epoch, cfg.bh2.epoch, "{}", preset.name);
    }
}

fn small_batch(threads: usize) -> BatchRun {
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(3);
    cfg.repetitions = 2;
    let mut rural = Registry::builtin().resolve("rural-sparse").unwrap();
    rural.trace.horizon = SimTime::from_hours(3);
    rural.repetitions = 1;
    BatchRun {
        scenarios: vec![("smoke".into(), cfg), ("rural".into(), rural)],
        schemes: parse_scheme_list("no-sleep,soi,bh2").unwrap(),
        seeds: 2,
        threads,
    }
}

#[test]
fn batch_jsonl_is_byte_identical_across_thread_counts() {
    let mut single = Vec::new();
    run_batch(&small_batch(1), &mut single, &Telemetry::stderr(), RunControl::default()).unwrap();
    for threads in [2, 4, 8] {
        let mut multi = Vec::new();
        run_batch(&small_batch(threads), &mut multi, &Telemetry::stderr(), RunControl::default())
            .unwrap();
        assert_eq!(
            single, multi,
            "JSONL output must not depend on thread count (threads = {threads})"
        );
    }
    // Sanity: the stream really contains one JSON object per job.
    let text = String::from_utf8(single).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 * 3 * 2);
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not JSONL: {line}");
    }
}

#[test]
fn batch_results_reproduce_the_papers_ordering_everywhere_sharing_exists() {
    let mut out = Vec::new();
    let summary =
        run_batch(&small_batch(0), &mut out, &Telemetry::stderr(), RunControl::default()).unwrap();
    for scenario in ["smoke", "rural"] {
        let row = |scheme: &str| {
            summary
                .rows
                .iter()
                .find(|r| r.scenario == scenario && r.scheme == scheme)
                .unwrap_or_else(|| panic!("{scenario}/{scheme} row"))
        };
        assert!(row("soi").energy_kwh < row("no-sleep").energy_kwh, "{scenario}");
        assert!(row("bh2").mean_gateways <= row("soi").mean_gateways + 0.3, "{scenario}");
    }
}

fn sharded_batch(shards: usize, threads: usize) -> BatchRun {
    let mut cfg = ScenarioConfig::default();
    cfg.trace.n_clients = 136;
    cfg.trace.n_aps = 20;
    cfg.trace.horizon = SimTime::from_hours(2);
    cfg.repetitions = 2;
    cfg.shards = shards;
    BatchRun {
        scenarios: vec![("mini-metro".into(), cfg)],
        schemes: parse_scheme_list("soi,bh2").unwrap(),
        seeds: 2,
        threads,
    }
}

#[test]
fn sharded_batch_jsonl_is_byte_identical_across_thread_counts() {
    let mut single = Vec::new();
    run_batch(&sharded_batch(4, 1), &mut single, &Telemetry::stderr(), RunControl::default())
        .unwrap();
    for threads in [2, 8] {
        let mut multi = Vec::new();
        run_batch(
            &sharded_batch(4, threads),
            &mut multi,
            &Telemetry::stderr(),
            RunControl::default(),
        )
        .unwrap();
        assert_eq!(single, multi, "sharded JSONL must not depend on threads (= {threads})");
    }
    let text = String::from_utf8(single).unwrap();
    assert_eq!(text.lines().count(), 4);
    for line in text.lines() {
        assert!(line.contains("\"shards\":4"), "sharded records carry the axis: {line}");
        assert!(line.contains("\"shard_summaries\":["), "and per-shard summaries: {line}");
    }
}

#[test]
fn unsharded_runs_never_leak_shard_fields() {
    let mut out = Vec::new();
    run_batch(&sharded_batch(1, 0), &mut out, &Telemetry::stderr(), RunControl::default()).unwrap();
    let text = String::from_utf8(out).unwrap();
    for line in text.lines() {
        assert!(!line.contains("shard"), "shards = 1 must keep the pre-shard schema: {line}");
    }
}

#[test]
fn compare_gates_batch_outputs() {
    let mut a = Vec::new();
    run_batch(&sharded_batch(4, 0), &mut a, &Telemetry::stderr(), RunControl::default()).unwrap();
    let a = String::from_utf8(a).unwrap();

    // Identical runs pass at zero tolerance.
    let same = compare_jsonl("a", &a, "b", &a, 0.0).unwrap();
    assert!(same.matches(), "{}", same.render());

    // A different shard split is a different world: the gate must trip and
    // name real metrics.
    let mut b = Vec::new();
    run_batch(&sharded_batch(2, 0), &mut b, &Telemetry::stderr(), RunControl::default()).unwrap();
    let b = String::from_utf8(b).unwrap();
    let diff = compare_jsonl("a", &a, "b", &b, 1e-6).unwrap();
    assert!(!diff.matches());
    assert!(diff.diffs.iter().any(|d| d.field == "shards"));
    assert!(diff.diffs.iter().any(|d| d.field == "energy_kwh"));
}

#[test]
fn no_sharing_control_degenerates_bh2_to_soi() {
    let mut cfg = Registry::builtin().resolve("no-wireless-sharing").unwrap();
    cfg.trace.n_clients = 68;
    cfg.trace.n_aps = 10;
    cfg.trace.horizon = SimTime::from_hours(4);
    cfg.repetitions = 1;
    let batch = BatchRun {
        scenarios: vec![("control".into(), cfg)],
        schemes: vec![SchemeSpec::soi(), SchemeSpec::bh2_k_switch()],
        seeds: 1,
        threads: 0,
    };
    let summary =
        run_batch(&batch, &mut Vec::new(), &Telemetry::stderr(), RunControl::default()).unwrap();
    let soi = &summary.records[0];
    let bh2 = &summary.records[1];
    // With nobody in range but the home gateway, BH2 has no moves to make:
    // its gateway count must match plain SoI's almost exactly.
    assert!(
        (soi.mean_gateways - bh2.mean_gateways).abs() < 0.5,
        "soi {} vs bh2 {}",
        soi.mean_gateways,
        bh2.mean_gateways
    );
}

#[test]
fn sweep_style_overrides_produce_distinct_scenarios() {
    let reg = Registry::builtin();
    let base = reg.get("paper-default").unwrap().spec.clone();
    let lo = base.with_override("bh2.low_threshold = 0.05").unwrap();
    let hi = base.with_override("bh2.low_threshold = 0.20").unwrap();
    let lo_cfg = reg.resolve_spec(&lo).unwrap();
    let hi_cfg = reg.resolve_spec(&hi).unwrap();
    assert_eq!(lo_cfg.bh2.low_threshold, 0.05);
    assert_eq!(hi_cfg.bh2.low_threshold, 0.20);
    assert_eq!(lo_cfg.bh2.high_threshold, hi_cfg.bh2.high_threshold);
}

//! Traced replay and world-build timer behind `perfbench/run.py`.
//!
//! ```text
//! perfbench-tracer setup  --threads T WORKLOAD...
//! perfbench-tracer replay --threads T --spans FILE [--checkpoint FILE] WORKLOAD...
//! ```
//!
//! `WORKLOAD` is the `insomnia run` flag subset the benchmark's workloads
//! use (`--scenario NAME`, `--set K=V`..., `--schemes LIST`, `--quick`), and
//! resolves to the same `ScenarioConfig` the CLI builds. Both subcommands
//! print one JSON object on stdout.
//!
//! * `setup` builds every shard world of the workload's single seed through
//!   `build_world_shard_streaming` on `T` threads, at least
//!   [`SETUP_MIN_PASSES`] times and until [`SETUP_MIN_SECONDS`] have passed,
//!   and reports each pass's wall-clock plus the world's flow count.
//! * `replay` re-runs the batch's `(repetition × shard) × scheme` tasks in
//!   batch order with the batch's RNG forks, calling each layer's public
//!   API and timing it: `FlowStream::new` and a full drain (traffic),
//!   `shard_spans` plus the topology builder (wireless), the driver over an
//!   `ArrivalSource::Slice` of the drained flows (driver, or optimal),
//!   `SchemeFolder::absorb`/`finish` (fold) and, with `--checkpoint`,
//!   `CheckpointWriter::write_task` and `load_checkpoint`. Spans (name,
//!   start, end, parent) are kept in memory and written to the `--spans`
//!   file at the end.

use insomnia_core::{
    run_single_source_threads, Aggregation, ArrivalSource, RunCounters, RunResult, ScenarioConfig,
    SchemeFolder, SchemeSpec, ShardedWorld, TopologyKind,
};
use insomnia_scenarios::batch::job_seed;
use insomnia_scenarios::{
    load_checkpoint, manifest_for, parse_scheme_list, scheme_key, BatchRun, CheckpointWriter,
    Registry,
};
use insomnia_simcore::{par_fold_indexed, par_map_indexed, SimError, SimResult, SimRng};
use insomnia_traffic::{FlowRecord, FlowStream};
use insomnia_wireless::{binomial_topology, overlap_topology, shard_spans, Topology};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Set-up passes: at least this many, and until this much time is spent,
/// so that worlds built in milliseconds still give a steady median.
const SETUP_MIN_PASSES: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// A resolved workload: one scenario, its schemes, the batch thread budget.
struct Workload {
    name: String,
    cfg: ScenarioConfig,
    schemes: Vec<SchemeSpec>,
    threads: usize,
}

impl Workload {
    /// The batch the CLI expands the same flags into (one seed).
    fn batch(&self) -> BatchRun {
        BatchRun {
            scenarios: vec![(self.name.clone(), self.cfg.clone())],
            schemes: self.schemes.clone(),
            seeds: 1,
            threads: self.threads,
        }
    }

    /// Master seed of seed index 0: both the world seed and the task RNG
    /// master of every job, exactly as the batch runner derives them.
    fn seed(&self) -> u64 {
        job_seed(self.cfg.seed, 0)
    }

    fn n_shards(&self) -> usize {
        self.cfg.shards.max(1)
    }
}

/// Parsed command line.
struct Args {
    command: String,
    workload: Workload,
    spans: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
}

fn invalid(msg: impl Into<String>) -> SimError {
    SimError::InvalidInput(msg.into())
}

fn parse_args(argv: &[String]) -> SimResult<Args> {
    let command = argv.first().cloned().ok_or_else(|| invalid("missing subcommand"))?;
    let mut scenario = None;
    let mut sets: Vec<String> = Vec::new();
    let mut schemes = None;
    let mut quick = false;
    let mut threads = 1usize;
    let mut spans = None;
    let mut checkpoint = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| invalid(format!("{flag} needs a value")))?.clone();
        match flag.as_str() {
            "--scenario" => scenario = Some(value),
            "--set" => sets.push(value),
            "--schemes" => schemes = Some(value),
            "--threads" => {
                threads = value
                    .parse::<usize>()
                    .map_err(|_| invalid(format!("--threads expects an integer, got `{value}`")))?
                    .max(1)
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value)),
            other => return Err(invalid(format!("unknown flag `{other}`"))),
        }
    }
    let name = scenario.ok_or_else(|| invalid("--scenario is required"))?;
    let reg = Registry::builtin();
    let mut spec = reg.get_or_err(&name)?.spec.clone();
    for assignment in &sets {
        let (key, value) = assignment
            .split_once('=')
            .ok_or_else(|| invalid(format!("--set expects key=value, got `{assignment}`")))?;
        spec = spec.with_assignment(key.trim(), value.trim())?;
    }
    let mut cfg = reg.flatten(&spec, 0)?.to_config()?;
    if quick {
        cfg.repetitions = cfg.repetitions.min(2);
    }
    let schemes = parse_scheme_list(&schemes.ok_or_else(|| invalid("--schemes is required"))?)?;
    Ok(Args { command, workload: Workload { name, cfg, schemes, threads }, spans, checkpoint })
}

/// `setup`: wall-clock of building every shard world, pass after pass.
fn cmd_setup(args: &Args) -> String {
    let w = &args.workload;
    let seed = w.seed();
    let mut passes: Vec<f64> = Vec::with_capacity(SETUP_MIN_PASSES);
    let mut world_flows = 0usize;
    while passes.len() < SETUP_MIN_PASSES || passes.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let start = Instant::now();
        let flows = par_map_indexed(w.n_shards(), w.threads, |shard| {
            let (stream, topo) = insomnia_core::build_world_shard_streaming(&w.cfg, seed, shard);
            std::hint::black_box(&topo);
            stream.total_flows()
        });
        passes.push(start.elapsed().as_secs_f64());
        world_flows = flows.iter().sum();
    }
    let passes: Vec<String> = passes.iter().map(|s| format!("{s}")).collect();
    format!(
        "{{\"setup_s\":[{}],\"world_flows\":{world_flows},\"shards\":{}}}",
        passes.join(","),
        w.n_shards()
    )
}

/// One recorded span: name, start, end (µs since the tracer's epoch), the
/// span that caused it, and the worker thread it ran on.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    thread: String,
}

/// In-memory span sink; written out once, after the replay.
struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Allocates a span id (so children can name their parent before the
    /// parent closes) and stamps its start.
    fn open(&self) -> (u64, Instant) {
        (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Records a span opened with [`Tracer::open`]; returns its length in ms.
    fn close(&self, (id, start): (u64, Instant), parent: u64, name: &'static str) -> f64 {
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let thread = std::thread::current().name().unwrap_or("worker").to_string();
        self.spans.lock().expect("span sink lock").push(Span {
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(end),
            thread,
        });
        end.duration_since(start).as_secs_f64() * 1e3
    }

    fn write(&self, path: &Path) -> SimResult<()> {
        let spans = self.spans.lock().expect("span sink lock");
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| invalid(format!("create {}: {e}", path.display())))?,
        );
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"thread\":\"{}\"}}",
                s.id, s.parent, s.name, s.start_us, s.end_us, s.thread
            )
            .map_err(|e| invalid(format!("write spans: {e}")))?;
        }
        out.flush().map_err(|e| invalid(format!("flush spans: {e}")))
    }
}

/// A built shard: its drained flows and its topology.
struct ShardWorld {
    flows: Vec<FlowRecord>,
    topo: Topology,
}

/// Per-layer timings of one shard build.
#[derive(Default, Clone, Copy)]
struct BuildTimes {
    setup_ms: f64,
    topology_ms: f64,
    drain_ms: f64,
    flows: u64,
    refills: u64,
    merge_pops: u64,
}

/// Builds shard `shard` exactly as `build_world_shard_streaming` does — the
/// same span split and RNG labels — but times each layer call on its own,
/// then drains a fresh stream into the slice the driver replays.
fn build_shard(
    tracer: &Tracer,
    parent: u64,
    cfg: &ScenarioConfig,
    seed: u64,
    shard: usize,
) -> (ShardWorld, BuildTimes) {
    let mut t = BuildTimes::default();
    let master = SimRng::new(seed);
    let span = tracer.open();
    let (trace_cfg, mut trace_rng, mut topo_rng) = if cfg.shards <= 1 {
        (cfg.trace.clone(), master.fork("trace"), master.fork("topology"))
    } else {
        let s = shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, cfg.shards)
            .expect("validated shard split")[shard];
        let mut trace_cfg = cfg.trace.clone();
        trace_cfg.n_clients = s.n_clients;
        trace_cfg.n_aps = s.n_gateways;
        (
            trace_cfg,
            master.fork_idx("shard-trace", shard as u64),
            master.fork_idx("shard-topology", shard as u64),
        )
    };
    t.topology_ms += tracer.close(span, parent, "wireless.shard_spans");

    let span = tracer.open();
    let mut stream = FlowStream::new(&trace_cfg, &mut trace_rng);
    t.setup_ms = tracer.close(span, parent, "traffic.setup");

    let span = tracer.open();
    let home: Vec<usize> = stream.home().iter().map(|ap| ap.index()).collect();
    let topo = match cfg.topology {
        TopologyKind::Overlap => overlap_topology(
            &home,
            trace_cfg.n_aps,
            cfg.mean_networks_in_range,
            cfg.channel,
            &mut topo_rng,
        ),
        TopologyKind::Binomial => binomial_topology(
            &home,
            trace_cfg.n_aps,
            cfg.mean_networks_in_range,
            cfg.channel,
            &mut topo_rng,
        ),
    }
    .expect("valid scenario topology");
    t.topology_ms += tracer.close(span, parent, "wireless.topology");

    let span = tracer.open();
    let mut flows = Vec::with_capacity(stream.total_flows());
    while let Some(f) = stream.next_flow() {
        flows.push(f);
    }
    t.drain_ms = tracer.close(span, parent, "traffic.drain");
    let stats = stream.stats();
    t.flows = flows.len() as u64;
    t.refills = stats.refills;
    t.merge_pops = stats.merge_pops;
    (ShardWorld { flows, topo }, t)
}

/// One scheme's run within a `(repetition, shard)` group.
struct TaskOut {
    scheme: usize,
    result: RunResult,
    run_ms: f64,
    task_ms: f64,
}

/// Everything one `(repetition, shard)` group hands the in-order folder.
struct GroupOut {
    build: Option<BuildTimes>,
    tasks: Vec<TaskOut>,
    busy_ms: f64,
    write_ms: f64,
}

/// Per-layer totals, accumulated on the folding thread.
#[derive(Default)]
struct Layers {
    build: BuildTimes,
    loop_ms: Vec<f64>,
    driver_events: u64,
    driver_ms: f64,
    bh2_ticks: u64,
    optimal_ms: f64,
    optimal_solves: u64,
    absorb_ms: f64,
    task_ms: Vec<f64>,
    busy_ms: f64,
    write_ms: f64,
}

/// `replay`: the traced batch replay.
fn cmd_replay(args: &Args) -> SimResult<String> {
    let w = &args.workload;
    let cfg = &w.cfg;
    let seed = w.seed();
    let n_shards = w.n_shards();
    let n_tasks = cfg.repetitions * n_shards;
    let tracer = Tracer::new();
    let root = tracer.open();
    let root_id = root.0;

    let writer = match &args.checkpoint {
        Some(path) => Some(CheckpointWriter::create(path, &manifest_for(&w.batch()))?),
        None => None,
    };
    let world = ShardedWorld::lazy(cfg, seed);
    let mut folders: Vec<Option<SchemeFolder>> =
        w.schemes.iter().map(|&s| Some(SchemeFolder::new(cfg, s, &world))).collect();
    // One shard is replayed by every repetition: build it once. Multi-shard
    // workloads build each shard in its group and drop it afterwards.
    let single: OnceLock<ShardWorld> = OnceLock::new();
    let mut layers = Layers { loop_ms: vec![0.0; w.schemes.len()], ..Layers::default() };
    let mut per_scheme = vec![RunCounters::default(); w.schemes.len()];

    let run_group = |g: usize| -> GroupOut {
        let (rep, shard) = (g / n_shards, g % n_shards);
        let group = tracer.open();
        let mut build = None;
        let owned;
        let shard_world = if n_shards == 1 {
            single.get_or_init(|| {
                let (sw, t) = build_shard(&tracer, group.0, cfg, seed, shard);
                build = Some(t);
                sw
            })
        } else {
            let (sw, t) = build_shard(&tracer, group.0, cfg, seed, shard);
            build = Some(t);
            owned = sw;
            &owned
        };
        // The build is attributed to the group's first task, the way the
        // batch attributes a shard's setup to the task that built it.
        let mut pending_ms = build.map_or(0.0, |t| t.setup_ms + t.topology_ms + t.drain_ms);
        let mut tasks = Vec::with_capacity(w.schemes.len());
        let mut write_ms = 0.0;
        for (ci, &spec) in w.schemes.iter().enumerate() {
            let task = tracer.open();
            let master = SimRng::new(seed).fork_idx("rep", rep as u64);
            let rng = if n_shards == 1 { master } else { master.fork_idx("shard", shard as u64) };
            let run = tracer.open();
            let result = run_single_source_threads(
                cfg,
                spec,
                ArrivalSource::Slice(&shard_world.flows),
                &shard_world.topo,
                rng,
                1,
            );
            let name = if spec.aggregation == Aggregation::Optimal {
                "optimal.run"
            } else {
                "driver.loop"
            };
            let run_ms = tracer.close(run, task.0, name);
            if let Some(writer) = &writer {
                let span = tracer.open();
                let i = rep * n_shards + shard;
                writer.write_task(ci * n_tasks + i, ci, i, rep, shard, &result);
                write_ms += tracer.close(span, task.0, "checkpoint.write");
            }
            let task_ms = tracer.close(task, group.0, "task") + pending_ms;
            pending_ms = 0.0;
            tasks.push(TaskOut { scheme: ci, result, run_ms, task_ms });
        }
        let busy_ms = tracer.close(group, root_id, "group");
        GroupOut { build, tasks, busy_ms, write_ms }
    };

    par_fold_indexed(n_tasks, w.threads, run_group, |step, out| {
        if let Some(t) = out.build {
            let b = &mut layers.build;
            b.setup_ms += t.setup_ms;
            b.topology_ms += t.topology_ms;
            b.drain_ms += t.drain_ms;
            b.flows += t.flows;
            b.refills += t.refills;
            b.merge_pops += t.merge_pops;
        }
        layers.busy_ms += out.busy_ms;
        layers.write_ms += out.write_ms;
        for task in out.tasks {
            let c = task.result.counters;
            if w.schemes[task.scheme].aggregation == Aggregation::Optimal {
                layers.optimal_ms += task.run_ms;
                layers.optimal_solves += c.optimal_solves;
            } else {
                layers.loop_ms[task.scheme] += task.run_ms;
                layers.driver_ms += task.run_ms;
                layers.driver_events += c.delivered();
                layers.bh2_ticks += c.bh2_ticks;
            }
            layers.task_ms.push(task.task_ms);
            let span = tracer.open();
            folders[task.scheme].as_mut().expect("folder open").absorb(step.index, task.result);
            layers.absorb_ms += tracer.close(span, root_id, "fold.absorb");
        }
    });

    // Batch-wide totals merge the finished jobs' counters, exactly like
    // the sidecar summary `insomnia profile --counters` prints.
    let mut totals = RunCounters::default();
    for (ci, folder) in folders.iter_mut().enumerate() {
        let span = tracer.open();
        let result = folder.take().expect("folder finished once").finish();
        layers.absorb_ms += tracer.close(span, root_id, "fold.finish");
        per_scheme[ci] = result.counters;
        totals.merge(&result.counters);
    }

    let mut checkpoint = String::from("null");
    if let (Some(writer), Some(path)) = (writer, &args.checkpoint) {
        let written = writer.finish().records;
        let span = tracer.open();
        let loaded = load_checkpoint(path)?;
        let load_ms = tracer.close(span, root_id, "checkpoint.load");
        if loaded.tasks.len() as u64 != written {
            return Err(invalid(format!(
                "checkpoint round trip: wrote {written} task records, loaded {}",
                loaded.tasks.len()
            )));
        }
        let bytes = std::fs::metadata(path).map_err(|e| invalid(format!("stat: {e}")))?.len();
        checkpoint =
            format!("{{\"write_ms\":{},\"load_ms\":{load_ms},\"bytes\":{bytes}}}", layers.write_ms);
    }
    tracer.close(root, 0, "replay");
    if let Some(path) = &args.spans {
        tracer.write(path)?;
    }

    let json = |c: &RunCounters| serde_json::to_string(c).expect("counters serialize");
    let schemes: Vec<String> = w
        .schemes
        .iter()
        .zip(&per_scheme)
        .map(|(&s, c)| format!("\"{}\":{}", scheme_key(s), json(c)))
        .collect();
    let loop_ms: Vec<String> = w
        .schemes
        .iter()
        .zip(&layers.loop_ms)
        .filter(|(s, _)| s.aggregation != Aggregation::Optimal)
        .map(|(&s, ms)| format!("\"{}\":{ms}", scheme_key(s)))
        .collect();
    let task_ms: Vec<String> = layers.task_ms.iter().map(|ms| format!("{ms}")).collect();
    let b = layers.build;
    Ok(format!(
        concat!(
            "{{\"busy_ms\":{},",
            "\"traffic\":{{\"setup_ms\":{},\"drain_ms\":{},\"flows\":{},\"refills\":{},\"merge_pops\":{}}},",
            "\"wireless\":{{\"topology_ms\":{}}},",
            "\"driver\":{{\"loop_ms\":{{{}}},\"events\":{},\"ms\":{},\"bh2_ticks\":{}}},",
            "\"optimal\":{{\"run_ms\":{},\"solves\":{}}},",
            "\"fold\":{{\"absorb_ms\":{}}},",
            "\"checkpoint\":{},",
            "\"task_ms\":[{}],",
            "\"totals\":{{\"jobs\":{},\"tasks\":{},\"events\":{},\"flows\":{},\"counters\":{}}},",
            "\"per_scheme\":{{{}}}}}"
        ),
        layers.busy_ms,
        b.setup_ms,
        b.drain_ms,
        b.flows,
        b.refills,
        b.merge_pops,
        b.topology_ms,
        loop_ms.join(","),
        layers.driver_events,
        layers.driver_ms,
        layers.bh2_ticks,
        layers.optimal_ms,
        layers.optimal_solves,
        layers.absorb_ms,
        checkpoint,
        task_ms.join(","),
        w.schemes.len(),
        w.schemes.len() * n_tasks,
        totals.delivered(),
        totals.flows_total,
        json(&totals),
        schemes.join(","),
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "setup" => Ok(cmd_setup(&args)),
        "replay" => cmd_replay(&args),
        other => Err(invalid(format!("unknown subcommand `{other}` (setup | replay)"))),
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}

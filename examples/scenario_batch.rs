//! Scenario orchestration quickstart: run a small (scenario × scheme ×
//! seed) matrix through the parallel batch runner and print the summary.
//!
//! ```sh
//! cargo run --release --example scenario_batch
//! ```
//!
//! The same matrix is available from the command line:
//!
//! ```sh
//! cargo run --release --bin insomnia -- run \
//!     --scenario paper-default,rural-sparse --schemes soi,bh2 --seeds 2 --quick
//! ```

use insomnia::scenarios::{
    parse_scheme_list, run_batch, BatchRun, Registry, RunControl, Telemetry,
};

fn main() {
    let registry = Registry::builtin();

    // Three registry presets over the full 24-hour day (the flash-crowd
    // surge fires at 19-22 h), one repetition each so the example
    // finishes in seconds.
    let mut scenarios = Vec::new();
    for name in ["paper-default", "flash-crowd", "no-wireless-sharing"] {
        let mut cfg = registry.resolve(name).expect("builtin preset");
        cfg.repetitions = 1;
        scenarios.push((name.to_string(), cfg));
    }

    let batch = BatchRun {
        scenarios,
        schemes: parse_scheme_list("no-sleep,soi,bh2").expect("valid schemes"),
        seeds: 1,
        threads: 0, // all cores
    };

    println!("running {} jobs...", batch.n_jobs());
    // JSONL lines go to a sink here; see `insomnia run --out` for files.
    let summary =
        run_batch(&batch, &mut std::io::sink(), &Telemetry::stderr(), RunControl::default())
            .expect("batch runs");
    print!("{}", summary.table());

    println!("\nnote how the flash crowd keeps more gateways awake in the");
    println!("evening, and how BH2 degenerates to SoI without wireless sharing.");
}

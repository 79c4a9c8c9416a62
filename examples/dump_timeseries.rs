//! Dump the raw 10-second monitoring series for one configuration and
//! workload as CSV — the data behind the paper's Fig. 9c–g time plots
//! (CPU %, GPU/system memory, pool busy fractions over the run). Pipe to
//! a file and plot with anything.
//!
//! ```sh
//! cargo run --release --example dump_timeseries -- preliminary 80 > series.csv
//! ```

use e2clab::plantnet::sim::{Experiment, ExperimentSpec};
use e2clab::plantnet::PoolConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config_name = args.first().map(|s| s.as_str()).unwrap_or("preliminary");
    let clients: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(80);
    let config = match config_name {
        "baseline" => PoolConfig::baseline(),
        "preliminary" => PoolConfig::preliminary_optimum(),
        "refined" => PoolConfig::refined_optimum(),
        other => {
            eprintln!("unknown config `{other}` (use baseline|preliminary|refined)");
            std::process::exit(2);
        }
    };
    let spec = ExperimentSpec::paper(config, clients);
    eprintln!(
        "dumping series: {config_name} ({config}) at {clients} simultaneous requests, {} s",
        spec.duration.as_secs_f64()
    );
    Experiment::run(spec, 42)
        .registry
        .write_csv(std::io::stdout().lock())
        .expect("write CSV to stdout");
}

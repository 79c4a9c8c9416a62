//! The exhibit registry: every table and figure of the paper, plus the
//! extensions, ablations and calibration probe, as one list of named
//! functions that write deterministic text.
//!
//! Each exhibit runs at the paper's protocol — [`REPS`] repetitions of
//! [`DURATION_SECS`]-second runs — with no override, so the committed
//! `results/<name>.txt` and the code cannot disagree about the settings.
//! The `exhibit` binary prints any of them; CI byte-diffs each against
//! its committed file. Output that varies between runs (wall-clock
//! timings) goes to stderr, never to the writer.
//!
//! ```sh
//! cargo run --release -p e2c-bench --bin exhibit                 # list
//! cargo run --release -p e2c-bench --bin exhibit fig3_response_curve
//! ```

mod ablations;
mod extensions;
mod paper;

use e2c_conf::parse;
use e2c_conf::schema::{ExperimentConf, OptimizationConf};
use plantnet::PoolConfig;
use std::io::{self, Write};

/// Repetitions per configuration (the paper's protocol).
pub const REPS: usize = 7;

/// Seconds per run (the paper's protocol, as in `ExperimentSpec::paper`).
pub const DURATION_SECS: u64 = 1380;

/// One exhibit: a name (its committed file is `results/<name>.txt`) and
/// the function that writes its text.
pub struct Exhibit {
    /// Registry key and results file stem.
    pub name: &'static str,
    /// Write the exhibit's deterministic text.
    pub write: fn(&mut dyn Write) -> io::Result<()>,
}

/// Registry entries named after their functions, so an exhibit's name,
/// function and results file can never disagree.
macro_rules! registry {
    ($($module:ident::$name:ident),* $(,)?) => {
        &[$(Exhibit { name: stringify!($name), write: $module::$name }),*]
    };
}

/// Every exhibit, in the paper's order, then the extensions, the
/// calibration probe and the ablations.
pub static EXHIBITS: &[Exhibit] = registry![
    paper::fig2_user_growth,
    paper::fig3_response_curve,
    paper::fig8_workload_scaling,
    paper::fig9_extract_oat,
    paper::fig10_simsearch_oat,
    paper::table3_bayesopt,
    paper::table4_fig11_final,
    extensions::ext_capacity,
    extensions::ext_second_gpu,
    extensions::ext_tail_latency,
    extensions::calibrate,
    ablations::ablation_acquisitions,
    ablations::ablation_designs,
    ablations::ablation_surrogates,
    ablations::ablation_parallel,
];

/// The exhibit registered under `name`.
pub fn find(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// The three configurations the paper compares (Table IV).
fn configs() -> [(&'static str, PoolConfig); 3] {
    [
        ("baseline", PoolConfig::baseline()),
        ("preliminary", PoolConfig::preliminary_optimum()),
        ("refined", PoolConfig::refined_optimum()),
    ]
}

/// The paper's optimizer_conf (Listing 1) as a configuration document,
/// with the knobs the exhibits vary.
fn listing1_conf(
    name: &str,
    num_samples: usize,
    max_concurrent: usize,
    n_initial_points: usize,
    acq_func: &str,
) -> OptimizationConf {
    let src = format!(
        r#"
name: {name}
optimization:
  metric: user_resp_time
  mode: min
  name: {name}
  num_samples: {num_samples}
  max_concurrent: {max_concurrent}
  search:
    algo: extra_trees
    n_initial_points: {n_initial_points}
    initial_point_generator: lhs
    acq_func: {acq_func}
  config:
    - name: http
      type: randint
      bounds: [20, 60]
    - name: download
      type: randint
      bounds: [20, 60]
    - name: simsearch
      type: randint
      bounds: [20, 60]
    - name: extract
      type: randint
      bounds: [3, 9]
"#
    );
    ExperimentConf::from_value(&parse(&src).expect("static conf parses"))
        .expect("static conf validates")
        .optimization
        .expect("optimization section present")
}

/// Render a percentage difference `new vs base` with sign, e.g. `-6.9%`.
fn pct(new: f64, base: f64) -> String {
    format!("{:+.1}%", (new - base) / base * 100.0)
}

/// Render a pool configuration point as `(http,dl,ss,ex)`.
fn point(p: &[f64]) -> String {
    format!("({},{},{},{})", p[0], p[1], p[2], p[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2c_des::SimTime;
    use plantnet::sim::ExperimentSpec;

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(93.1, 100.0), "-6.9%");
        assert_eq!(pct(110.0, 100.0), "+10.0%");
    }

    #[test]
    fn the_paper_spec_runs_at_the_protocol() {
        let s = ExperimentSpec::paper(PoolConfig::baseline(), 80);
        assert_eq!(s.clients, 80);
        assert_eq!(s.duration, SimTime::from_secs(DURATION_SECS));
        assert_eq!(s.warmup, SimTime::from_secs(60));
    }

    #[test]
    fn names_are_unique_and_findable() {
        for (i, e) in EXHIBITS.iter().enumerate() {
            assert!(EXHIBITS[..i].iter().all(|o| o.name != e.name), "{}", e.name);
            assert_eq!(find(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn listing1_conf_carries_its_knobs() {
        let conf = listing1_conf("x", 24, 4, 8, "ei");
        assert_eq!((conf.num_samples, conf.max_concurrent), (24, 4));
        assert_eq!(conf.variables.len(), 4);
    }
}

//! Extensions beyond the paper's exhibits, and the calibration probe.

use super::{configs, DURATION_SECS, REPS};
use e2c_metrics::Table;
use plantnet::model::EngineModel;
use plantnet::monitor::names;
use plantnet::sim::{Experiment, ExperimentSpec};
use plantnet::PoolConfig;
use std::io::{self, Write};

/// Largest client count in [40, 400] with mean response ≤ `bound`, by
/// binary search (response is monotone in the closed-loop population).
fn capacity(cfg: PoolConfig, bound: f64, seed: u64) -> usize {
    let (mut lo, mut hi) = (40usize, 400usize);
    if Experiment::run(ExperimentSpec::paper(cfg, hi), seed)
        .response
        .mean
        <= bound
    {
        return hi;
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if Experiment::run(ExperimentSpec::paper(cfg, mid), seed)
            .response
            .mean
            <= bound
        {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// **Capacity** — the paper's §II question, answered directly: "How many
/// more users can the system serve if we find a better thread pool
/// configuration?" The largest number of simultaneous requests each
/// configuration sustains within the 4-second tolerance.
pub fn ext_capacity(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Extension — capacity at the 4 s user tolerance ({DURATION_SECS} s runs)\n"
    )?;
    let configs = configs();
    let caps = configs.map(|(_, cfg)| capacity(cfg, 4.0, 42));
    let gain = |cap: usize| format!("{:+.0}%", (cap as f64 / caps[0] as f64 - 1.0) * 100.0);
    let mut table = Table::new(["config", "max_simultaneous_requests_at_4s", "vs_baseline"]);
    for ((name, _), cap) in configs.iter().zip(caps) {
        table.row([name.to_string(), cap.to_string(), gain(cap)]);
    }
    write!(out, "{table}")?;
    let (base_http, prelim_http) = (configs[0].1.http, configs[1].1.http);
    let (base_cap, prelim_gain, refined_gain) = (caps[0], gain(caps[1]), gain(caps[2]));
    writeln!(
        out,
        "\npaper context: Fig. 3 caps the baseline near 120 simultaneous requests (we measure {base_cap}).\n\
         note: the paper's '35% more simultaneous users' counts HTTP admission slots ({prelim_http} vs {base_http});\n\
         end-to-end capacity at the 4 s bound grows by {prelim_gain} (preliminary) and {refined_gain} (refined) — admission\n\
         slots beyond the bottleneck's ability to serve them queue internally instead of externally."
    )
}

/// **Second GPU** — the paper's §IV remark that hardware changes "will
/// require a new search for the thread pool sizes", demonstrated: the
/// chifflot nodes carry two V100s but the engine uses one. Sweep the
/// extract pool under both, other pools at the optimum's 54/54/53.
pub fn ext_second_gpu(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Extension — enabling the second V100 ({DURATION_SECS} s runs, workload 80)\n"
    )?;
    let mut table = Table::new([
        "extract_threads",
        "1 GPU resp(s)",
        "1 GPU cpu%",
        "2 GPUs resp(s)",
        "2 GPUs cpu%",
    ]);
    let mut best: [(u32, f64); 2] = [(0, f64::INFINITY); 2];
    for extract in [4u32, 5, 6, 7, 8, 9, 10, 12, 14] {
        let cfg = PoolConfig {
            extract,
            ..PoolConfig::preliminary_optimum()
        };
        let mut row = vec![extract.to_string()];
        for (slot, gpus) in [1u32, 2].into_iter().enumerate() {
            let mut s = ExperimentSpec::paper(cfg, 80);
            s.model = EngineModel {
                gpus,
                ..EngineModel::default()
            };
            let m = Experiment::run(s, 42);
            if m.response.mean < best[slot].1 {
                best[slot] = (extract, m.response.mean);
            }
            row.push(format!("{:.3}", m.response.mean));
            row.push(format!("{:.0}", m.mean_cpu() * 100.0));
        }
        table.row(row);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nbest with 1 GPU: extract={} ({:.3} s); best with 2 GPUs: extract={} ({:.3} s)",
        best[0].0, best[0].1, best[1].0, best[1].1
    )?;
    writeln!(
        out,
        "\nreading: the second GPU shifts the optimal extract pool and buys some response time,\n\
         but the 40-core CPU becomes the wall (feeding + simsearch): doubling GPU capacity does\n\
         not double capacity — exactly why the paper insists hardware changes need a fresh search."
    )
}

/// **Tail latency** — the 4-second bound is a *user tolerance*, so the
/// per-request tail matters as much as the window mean the paper
/// reports: p50/p95/p99 per configuration and workload.
pub fn ext_tail_latency(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Extension — per-request tail latency ({DURATION_SECS} s runs)\n"
    )?;
    let mut table = Table::new(["config", "clients", "mean(s)", "p50(s)", "p95(s)", "p99(s)"]);
    for (name, cfg) in configs() {
        for clients in [80usize, 120, 140] {
            let m = Experiment::run(ExperimentSpec::paper(cfg, clients), 42);
            // `None` means no request finished after warm-up (crashed or
            // starved run) — print it as such instead of fake zeros.
            let ps = m.response_percentiles.map(|(a, b, c)| [a, b, c]);
            let pct = |i: usize| ps.map_or("n/a".to_string(), |p| format!("{:.3}", p[i]));
            table.row([
                name.to_string(),
                clients.to_string(),
                format!("{:.3}", m.response.mean),
                pct(0),
                pct(1),
                pct(2),
            ]);
        }
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nreading: the optimized configurations improve the tail, not just the mean —\n\
         at 120 clients the baseline's p95 already brushes the 4 s tolerance that its mean still satisfies."
    )
}

/// **Calibration probe** — the model's behaviour at the paper's anchor
/// points, kept for transparency about how the `EngineModel` constants
/// were tuned. Not a paper figure; the extract sweep it once printed is
/// `fig9_extract_oat`.
pub fn calibrate(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "calibration probe ({REPS} reps x {DURATION_SECS} s)\n")?;
    let mut table = Table::new([
        "config",
        "clients",
        "resp(s)",
        "std",
        "X(req/s)",
        "cpu%",
        "extract_busy%",
        "ss_busy%",
        "wait-extract(ms)",
        "simsearch(ms)",
        "gpu_mem(GB)",
    ]);
    for (name, cfg) in configs() {
        for clients in [80usize, 120, 140] {
            let rep = Experiment::run_repeated(ExperimentSpec::paper(cfg, clients), REPS, 42);
            let busy = |pool: &str| rep.mean_of(|r| r.mean_busy(pool)) * 100.0;
            table.row([
                name.to_string(),
                clients.to_string(),
                format!("{:.3}", rep.response.mean),
                format!("{:.4}", rep.response.std),
                format!("{:.1}", rep.mean_of(|r| r.throughput)),
                format!("{:.0}", rep.mean_of(|r| r.mean_cpu()) * 100.0),
                format!("{:.0}", busy(names::EXTRACT_BUSY)),
                format!("{:.0}", busy(names::SIMSEARCH_BUSY)),
                format!("{:.0}", rep.task_mean("wait-extract") * 1e3),
                format!("{:.0}", rep.task_mean("simsearch") * 1e3),
                format!("{:.1}", rep.runs[0].gpu_mem_gb),
            ]);
        }
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\npaper anchors: baseline@80=2.657  baseline@120=3.86  prelim@80=2.484  refined@80=2.476"
    )
}

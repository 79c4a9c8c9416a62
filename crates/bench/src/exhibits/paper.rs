//! The paper's own tables and figures.

use super::{configs, listing1_conf, pct, DURATION_SECS, REPS};
use e2c_core::OptimizationManager;
use e2c_metrics::Table;
use e2c_optim::sensitivity::OatPlan;
use e2c_workload::seasonal::GrowthModel;
use plantnet::monitor::{names, RepeatedMetrics};
use plantnet::pipeline::Task;
use plantnet::sim::{Experiment, ExperimentSpec};
use plantnet::PoolConfig;
use std::io::{self, Write};

/// **Fig. 2** — "Exponential growth of new users every spring (peaks in
/// May–June)": the synthetic monthly new-user trace, 2017–2021.
pub fn fig2_user_growth(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 2 — Pl@ntNet new users per month (synthetic trace)\n"
    )?;
    let trace = GrowthModel::default().trace(2017, 2021);
    let mut table = Table::new(["year", "month", "new_users"]);
    for s in &trace {
        table.row([
            s.year.to_string(),
            s.month.to_string(),
            format!("{:.0}", s.new_users),
        ]);
    }
    write!(out, "{table}")?;

    writeln!(out, "\nyearly spring peaks:")?;
    let mut peaks = Table::new(["year", "peak_month", "peak_new_users", "vs_prev_year"]);
    let mut prev: Option<f64> = None;
    for year in 2017..=2021 {
        let best = trace
            .iter()
            .filter(|s| s.year == year)
            .max_by(|a, b| a.new_users.partial_cmp(&b.new_users).expect("finite"))
            .expect("year present");
        let growth = prev
            .map(|p| format!("{:+.0}%", (best.new_users / p - 1.0) * 100.0))
            .unwrap_or_else(|| "-".to_string());
        peaks.row([
            year.to_string(),
            best.month.to_string(),
            format!("{:.0}", best.new_users),
            growth,
        ]);
        prev = Some(best.new_users);
    }
    write!(out, "{peaks}")?;
    writeln!(
        out,
        "\npaper shape: peaks every May–June, each spring larger than the last."
    )
}

/// **Fig. 3** — user response time versus simultaneous requests, baseline
/// configuration. Paper: ≈3.86 ± 0.13 s at 120 requests; the 4-second
/// tolerance is crossed shortly above 120.
pub fn fig3_response_curve(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 3 — user response time vs simultaneous requests (baseline config, {REPS} reps x {DURATION_SECS} s)\n"
    )?;
    let mut table = Table::new([
        "simultaneous_requests",
        "resp_mean(s)",
        "resp_std(s)",
        "over_4s",
    ]);
    let mut knee: Option<usize> = None;
    for clients in (40..=160).step_by(10) {
        let rep = Experiment::run_repeated(
            ExperimentSpec::paper(PoolConfig::baseline(), clients),
            REPS,
            7,
        );
        let over = rep.response.mean > 4.0;
        if over && knee.is_none() {
            knee = Some(clients);
        }
        table.row([
            clients.to_string(),
            format!("{:.3}", rep.response.mean),
            format!("{:.4}", rep.response.std),
            if over { "yes" } else { "" }.to_string(),
        ]);
    }
    write!(out, "{table}")?;
    match knee {
        Some(k) => writeln!(
            out,
            "\n4 s tolerance exceeded from {k} simultaneous requests"
        )?,
        None => writeln!(out, "\n4 s tolerance never exceeded in the swept range")?,
    }
    writeln!(
        out,
        "paper: 3.86 ± 0.13 s at 120 simultaneous requests; cannot serve more than ~120 within 4 s"
    )
}

/// **Fig. 8** — baseline vs preliminary optimum across the three
/// workloads. Paper gaps: 6.9%, 2.2% and 6.7%.
pub fn fig8_workload_scaling(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 8 — baseline vs preliminary optimum across workloads ({REPS} reps x {DURATION_SECS} s)\n"
    )?;
    let [(_, baseline), (_, preliminary), _] = configs();
    let mut table = Table::new([
        "simultaneous_requests",
        "baseline(s)",
        "preliminary(s)",
        "difference",
    ]);
    for clients in [80usize, 120, 140] {
        let base = Experiment::run_repeated(ExperimentSpec::paper(baseline, clients), REPS, 42);
        let prem = Experiment::run_repeated(ExperimentSpec::paper(preliminary, clients), REPS, 42);
        table.row([
            clients.to_string(),
            format!("{}", base.response),
            format!("{}", prem.response),
            pct(prem.response.mean, base.response.mean),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\npaper: preliminary optimum wins at every workload; gaps -6.9% / -2.2% / -6.7%"
    )
}

/// One-at-a-time sweep of Eq. 2 dimension `dim` by `±delta` around the
/// preliminary optimum at 80 clients: `(value, metrics)` per step, plus
/// the centre's mean response.
fn oat_sweep(dim: usize, delta: f64, centre: u32) -> (Vec<(u32, RepeatedMetrics)>, f64) {
    let plan = OatPlan::around(
        &PoolConfig::space(),
        &PoolConfig::preliminary_optimum().to_point(),
        &[(dim, delta)],
    );
    let results: Vec<_> = plan
        .sweep_of(dim)
        .iter()
        .map(|(v, point)| {
            let cfg = PoolConfig::from_point(point);
            (
                *v as u32,
                Experiment::run_repeated(ExperimentSpec::paper(cfg, 80), REPS, 42),
            )
        })
        .collect();
    let centre_resp = results
        .iter()
        .find(|(v, _)| *v == centre)
        .expect("centre in sweep")
        .1
        .response
        .mean;
    (results, centre_resp)
}

/// The sweep step with the lowest mean response.
fn sweep_minimum(results: &[(u32, RepeatedMetrics)]) -> &(u32, RepeatedMetrics) {
    results
        .iter()
        .min_by(|a, b| {
            a.1.response
                .mean
                .partial_cmp(&b.1.response.mean)
                .expect("finite")
        })
        .expect("non-empty sweep")
}

/// Mean busy fraction of pool `name`, in percent.
fn busy(rep: &RepeatedMetrics, name: &str) -> String {
    format!("{:.0}", rep.mean_of(|r| r.mean_busy(name)) * 100.0)
}

/// **Fig. 9 (a–g)** — the *Extract* pool varied ±2 around the
/// preliminary optimum at 80 requests. Paper: minimum at 6 threads (−8.5%
/// vs 7); wait-extract falls and simsearch time rises with the pool; CPU
/// pinned at 100% at 8–9; GPU and system memory grow with the pool.
pub fn fig9_extract_oat(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 9 — OAT on the Extract pool around the preliminary optimum ({REPS} reps x {DURATION_SECS} s)\n"
    )?;
    // Eq. 2 order: (http, download, simsearch, extract); extract is dim 3.
    let centre = PoolConfig::preliminary_optimum().extract;
    let (results, centre_resp) = oat_sweep(3, 2.0, centre);

    writeln!(out, "(a) user response time")?;
    let mut ta = Table::new(["extract_threads", "resp(s)", "vs_extract_7"]);
    for (e, rep) in &results {
        ta.row([
            e.to_string(),
            format!("{}", rep.response),
            pct(rep.response.mean, centre_resp),
        ]);
    }
    write!(out, "{ta}")?;
    writeln!(
        out,
        "minimum at extract={} | paper: minimum at 6 (-8.5% vs 7)\n",
        sweep_minimum(&results).0
    )?;

    writeln!(out, "(b) identification processing time per task (ms)")?;
    let mut tb = Table::new([
        "extract_threads",
        "pre-process",
        "wait-download",
        "download",
        "wait-extract",
        "extract",
        "process",
        "wait-simsearch",
        "simsearch",
        "post-process",
    ]);
    for (e, rep) in &results {
        let mut row = vec![e.to_string()];
        for task in Task::ORDER {
            row.push(format!("{:.0}", rep.task_mean(task.label()) * 1e3));
        }
        tb.row(row);
    }
    write!(out, "{tb}")?;
    writeln!(out, "paper: wait-extract falls with more threads; simsearch time rises; extract time does not fall\n")?;

    writeln!(out, "(c-g) resource usage")?;
    let mut tc = Table::new([
        "extract_threads",
        "cpu_usage%",
        "gpu_mem(GB)",
        "sys_mem(GB)",
        "extract_busy%",
        "simsearch_busy%",
    ]);
    for (e, rep) in &results {
        tc.row([
            e.to_string(),
            format!("{:.0}", rep.mean_of(|r| r.mean_cpu()) * 100.0),
            format!("{:.1}", rep.runs[0].gpu_mem_gb),
            format!("{:.1}", rep.runs[0].sys_mem_gb),
            busy(rep, names::EXTRACT_BUSY),
            busy(rep, names::SIMSEARCH_BUSY),
        ]);
    }
    write!(out, "{tc}")?;
    writeln!(out, "paper: CPU 100% at 8-9; GPU/system memory grow with the pool; extract busy ~100% at 5-7; simsearch busy ~50-60% at 5-7")
}

/// **Fig. 10 (a–d)** — the *Simsearch* pool varied ±3 around the
/// preliminary optimum at 80 requests. Paper: ~4% better at 55 threads
/// than at 53; busy ~90–100% at 52, <60% at 53–55.
pub fn fig10_simsearch_oat(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 10 — OAT on the Simsearch pool around the preliminary optimum ({REPS} reps x {DURATION_SECS} s)\n"
    )?;
    // Eq. 2 order: simsearch is dimension 2.
    let centre = PoolConfig::preliminary_optimum().simsearch;
    let (results, centre_resp) = oat_sweep(2, 3.0, centre);

    writeln!(
        out,
        "(a) user response time / (b) task times / (c,d) pool busy"
    )?;
    let mut table = Table::new([
        "simsearch_threads",
        "resp(s)",
        "vs_53",
        "simsearch_task(ms)",
        "wait-simsearch(ms)",
        "wait-extract(ms)",
        "simsearch_busy%",
        "extract_busy%",
    ]);
    for (s, rep) in &results {
        table.row([
            s.to_string(),
            format!("{}", rep.response),
            pct(rep.response.mean, centre_resp),
            format!("{:.0}", rep.task_mean("simsearch") * 1e3),
            format!("{:.0}", rep.task_mean("wait-simsearch") * 1e3),
            format!("{:.0}", rep.task_mean("wait-extract") * 1e3),
            busy(rep, names::SIMSEARCH_BUSY),
            busy(rep, names::EXTRACT_BUSY),
        ]);
    }
    write!(out, "{table}")?;
    let best = sweep_minimum(&results);
    writeln!(
        out,
        "\nminimum at simsearch={} ({} vs 53)",
        best.0,
        pct(best.1.response.mean, centre_resp)
    )?;
    writeln!(
        out,
        "paper: ~-4% at 55 threads; busy ~90-100% at 52, <60% at 53-55, ~80% at 56.\n\
         note: in our calibrated model the simsearch pool has headroom at 52-56 threads,\n\
         so the response curve is nearly flat here — see EXPERIMENTS.md for the deviation discussion."
    )
}

/// The four pools in the paper's table order, with their sizes.
fn pools(c: &PoolConfig) -> [(&'static str, u32); 4] {
    [
        ("HTTP", c.http),
        ("Download", c.download),
        ("Extract", c.extract),
        ("Simsearch", c.simsearch),
    ]
}

/// **Table III** — Bayesian optimization of the four pools at 80
/// requests (§IV-A, Listing 1): Extra-Trees surrogate, LHS
/// initialization, `gp_hedge`, two concurrent evaluations. `num_samples`
/// is 40, not the paper's 10, because this surrogate starts from scratch
/// (the paper seeds 45 LHS points into the model first).
pub fn table3_bayesopt(out: &mut dyn Write) -> io::Result<()> {
    let opt_reps = 1.max(REPS / 3); // per-evaluation repetitions inside BO
    writeln!(
        out,
        "Table III — Bayesian optimization at 80 simultaneous requests ({REPS} reps per final config)\n"
    )?;
    let conf = listing1_conf("plantnet_engine", 40, 2, 20, "gp_hedge");
    let budget = conf.num_samples;
    let summary = OptimizationManager::new(conf)
        .with_seed(2021)
        .run(|ctx| {
            let cfg = PoolConfig::from_point(&ctx.point);
            Experiment::run_repeated(
                ExperimentSpec::paper(cfg, 80),
                opt_reps,
                1000 + ctx.trial_id,
            )
            .response
            .mean
        })
        .expect("optimization run");
    writeln!(out, "{}", summary.render())?;

    let optimum = PoolConfig::from_point(
        summary
            .best_point
            .as_ref()
            .expect("optimization produced a best point"),
    );
    let baseline = PoolConfig::baseline();

    // Re-measure both configurations with the full repetition protocol.
    let base = Experiment::run_repeated(ExperimentSpec::paper(baseline, 80), REPS, 42);
    let best = Experiment::run_repeated(ExperimentSpec::paper(optimum, 80), REPS, 42);

    let mut table = Table::new(["Thread pool", "baseline", "found optimum"]);
    for ((pool, b), (_, o)) in pools(&baseline).into_iter().zip(pools(&optimum)) {
        table.row([pool.to_string(), b.to_string(), o.to_string()]);
    }
    table.row([
        "User response time".to_string(),
        format!("{}", base.response),
        format!("{}", best.response),
    ]);
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nimprovement: {} response time; admission capacity {} → {} HTTP slots ({}).",
        pct(best.response.mean, base.response.mean),
        baseline.http,
        optimum.http,
        pct(optimum.http as f64, baseline.http as f64)
    )?;
    writeln!(
        out,
        "evaluations spent: {} ({} BO budget)",
        summary.analysis.trials().len(),
        budget
    )?;
    writeln!(out, "paper: baseline (40/40/7/40) 2.657±0.0914 vs preliminary optimum (54/54/7/53) 2.484±0.0912 (-7%), +35% simultaneous users")
}

/// **Table IV and Fig. 11** — baseline, preliminary and refined optima
/// head to head: Table IV at 80 requests, Fig. 11 at 80/120/140. Paper
/// gaps vs baseline: preliminary −6.9/−2.2/−6.7%, refined −7.2/−6.3/−9.8%;
/// 30% less GPU memory for the refined optimum.
pub fn table4_fig11_final(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table IV + Fig. 11 — baseline vs preliminary vs refined ({REPS} reps x {DURATION_SECS} s)\n"
    )?;
    let configs = configs();
    let run_all = |clients| -> Vec<RepeatedMetrics> {
        configs
            .iter()
            .map(|(_, cfg)| {
                Experiment::run_repeated(ExperimentSpec::paper(*cfg, clients), REPS, 42)
            })
            .collect()
    };

    writeln!(out, "Table IV (workload: 80 simultaneous requests)")?;
    let mut t4 = Table::new(["Thread pool", "baseline", "preliminary", "refined"]);
    let sizes = configs.map(|(_, c)| pools(&c));
    for (i, (pool, _)) in sizes[0].iter().enumerate() {
        let mut row = vec![pool.to_string()];
        row.extend(sizes.iter().map(|s| s[i].1.to_string()));
        t4.row(row);
    }
    let at80 = run_all(80);
    let mut row = vec!["User response time".to_string()];
    row.extend(at80.iter().map(|r| format!("{}", r.response)));
    t4.row(row);
    write!(out, "{t4}")?;
    writeln!(
        out,
        "paper: 2.657(±0.0914) / 2.484(±0.0912) / 2.476(±0.0826)\n"
    )?;

    writeln!(out, "Fig. 11 (all workloads)")?;
    let mut f11 = Table::new([
        "simultaneous_requests",
        "baseline(s)",
        "preliminary(s)",
        "refined(s)",
        "prelim_vs_base",
        "refined_vs_base",
    ]);
    for clients in [80usize, 120, 140] {
        let runs = run_all(clients);
        f11.row([
            clients.to_string(),
            format!("{:.3}", runs[0].response.mean),
            format!("{:.3}", runs[1].response.mean),
            format!("{:.3}", runs[2].response.mean),
            pct(runs[1].response.mean, runs[0].response.mean),
            pct(runs[2].response.mean, runs[0].response.mean),
        ]);
    }
    write!(out, "{f11}")?;
    writeln!(
        out,
        "paper: prelim -6.9/-2.2/-6.7%, refined -7.2/-6.3/-9.8% vs baseline\n"
    )?;

    // GPU memory claim of the conclusions.
    let gpu_base = at80[0].runs[0].gpu_mem_gb;
    let gpu_refined = at80[2].runs[0].gpu_mem_gb;
    writeln!(
        out,
        "GPU memory: baseline(extract=7) {:.1} GB vs refined(extract=6) {:.1} GB ({})",
        gpu_base,
        gpu_refined,
        pct(gpu_refined, gpu_base)
    )?;
    writeln!(out, "paper: 30% less GPU memory (7 GB vs 10 GB) — our memory model is linear in the pool size; see EXPERIMENTS.md")
}

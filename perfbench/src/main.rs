//! SQL-in/rows-out benchmark of `QueryService`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch_mix|short_lookups|tpch_spill> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) it sets the workload up several times, runs its
//! closed-loop clients for `--seconds`, checks every result and prints the
//! end-to-end metrics. Traced (`--trace 1`) it alternates untraced and
//! traced rounds for `--seconds`, folds the traced ones into the per-layer
//! metrics and writes its spans to `perfbench/out/`. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A result that differs from the reference aborts the run
//! with exit code 1 and no JSON line.

mod layers;
mod run;
mod spans;
mod stats;
mod workload;

use layers::{CacheDelta, HubDelta, TracedRound};
use run::{execute, Checker, Executed, Ready, Source};
use spans::SpanLog;
use stats::{geomean, median, percentile, ratio};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use uot_core::{ExecOptions, QueryService};
use workload::{Pinned, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds and set-ups during which the host stole more than this share of
/// the CPU time are left out of the metrics (see [`stats::quiet`]).
const STEAL_LIMIT: f64 = 0.05;
/// Calls per statement when timing the frontend functions.
const FRONTEND_REPS: usize = 15;
/// Distinct texts per lookup template timed in the frontend.
const FRONTEND_TEXTS_PER_TEMPLATE: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The output line: every metric with its unit, plus the attempt counts.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("# {name:<28} {value:>14.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{name} is not a finite number");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Set up `SETUPS` times and keep the last; the earlier services are shut
/// down and their data dropped before the next generation.
/// Returns the set-up and data-generation times of the set-ups during
/// which the host was quiet (see [`stats::quiet`]).
fn set_up(pin: &Pinned, checker: &Checker) -> Result<(Ready, Vec<f64>, Vec<f64>), String> {
    let (mut totals, mut generates, mut steal) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some(prev) = ready.take() {
            let Ready { service, .. } = prev;
            service.shutdown();
        }
        let before = run::cpu_steal();
        let r = run::set_up(pin, checker)?;
        steal.push(run::steal_share(before, run::cpu_steal()));
        totals.push(r.total.as_secs_f64());
        generates.push(r.generate.as_secs_f64());
        ready = Some(r);
    }
    let kept = stats::quiet(&steal, STEAL_LIMIT);
    let pick = |v: &[f64]| kept.iter().map(|&i| v[i]).collect::<Vec<_>>();
    Ok((
        ready.expect("at least one set-up"),
        pick(&totals),
        pick(&generates),
    ))
}

/// Failure accounting: counts per `EngineError` variant and statement.
#[derive(Default)]
struct Failures {
    by_kind: BTreeMap<(&'static str, String), usize>,
}

impl Failures {
    fn record(&mut self, ex: &Executed) {
        if let Err(e) = &ex.outcome {
            *self
                .by_kind
                .entry((run::error_kind(e), ex.stmt.group()))
                .or_default() += 1;
        }
    }

    fn total(&self) -> usize {
        self.by_kind.values().sum()
    }

    fn print(&self) {
        for ((kind, group), n) in &self.by_kind {
            let class = if *kind == "BudgetExceeded" {
                "budget"
            } else {
                "NON-BUDGET"
            };
            println!("# failed {class} {kind} {group}: {n}");
        }
    }
}

fn end_to_end(pin: &Pinned, seconds: f64) -> Result<Report, String> {
    let checker = Checker::default();
    let (ready, setup_totals, _) = set_up(pin, &checker)?;
    let mut sources = run::sources(pin.workload, pin.seed, pin.clients, &ready.db);
    let epoch = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let steal = run::cpu_steal();
    // Per round: its completed-per-second rate, the host's CPU steal while
    // it ran, and its submissions (results dropped after the check).
    let (mut rates, mut round_steal, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut failures = Failures::default();
    while epoch.elapsed() < deadline {
        let before = run::cpu_steal();
        let (executed, wall) = round(&ready.service, &mut sources, false, epoch, &checker)?;
        round_steal.push(run::steal_share(before, run::cpu_steal()));
        let completed = executed.iter().filter(|ex| ex.outcome.is_ok()).count();
        rates.push(ratio(completed as f64, wall.as_secs_f64()));
        executed.iter().for_each(|ex| failures.record(ex));
        let samples: Vec<_> = executed
            .into_iter()
            .map(|ex| (ex.stmt, ex.latency(), ex.outcome.is_ok()))
            .collect();
        rounds.push(samples);
    }
    let wall = epoch.elapsed();
    let peak_rss = run::peak_rss_mib().ok_or("VmHWM is not readable")?;
    print_steal(steal);
    ready.service.shutdown();

    // The metrics come from the rounds the hypervisor left alone: a burst
    // of CPU steal from other tenants slows every layer at once and says
    // nothing about the engine.
    let kept = stats::quiet(&round_steal, STEAL_LIMIT);
    println!(
        "# metrics over {} of {} rounds (the rest ran while the host stole more than {}% \
         of CPU time)",
        kept.len(),
        rounds.len(),
        STEAL_LIMIT * 100.0
    );
    let rates: Vec<f64> = kept.iter().map(|&i| rates[i]).collect();
    let attempted: usize = rounds.iter().map(Vec::len).sum();
    let measured = kept.iter().map(|&i| rounds[i].len()).sum::<usize>();
    let mut ok_ms: Vec<f64> = Vec::new();
    let mut by_group: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (stmt, latency, ok) in kept.iter().flat_map(|&i| &rounds[i]) {
        if *ok {
            let ms = latency.as_secs_f64() * 1e3;
            ok_ms.push(ms);
            by_group.entry(stmt.group()).or_default().push(ms);
        }
    }
    ok_ms.sort_by(f64::total_cmp);
    let completed = ok_ms.len();
    let group_medians: Vec<f64> = by_group.values().map(|v| median(v)).collect();
    let per_group: Vec<String> = by_group
        .keys()
        .zip(&group_medians)
        .map(|(g, m)| format!("{g}={m:.3}"))
        .collect();
    println!("# median latency ms per statement: {}", per_group.join(" "));
    println!(
        "# {attempted} submissions in {:.3} s, {measured} of them in the kept rounds \
         ({completed} completed); latency percentiles over completed submissions",
        wall.as_secs_f64(),
    );
    failures.print();

    let checked = checker.verify(&ready.db, pin.workers)?;
    println!("# results of {checked} distinct statements match the reference");
    Ok(Report {
        attempted,
        failed: failures.total(),
        metrics: vec![
            // The median round rate: a burst of CPU contention from outside
            // the benchmark moves it less than a mean over the window.
            ("throughput_qps".into(), median(&rates), "1/s"),
            (
                "latency_p50_ms".into(),
                percentile(&ok_ms, 0.5).unwrap_or(0.0),
                "ms",
            ),
            (
                "latency_p90_ms".into(),
                percentile(&ok_ms, 0.9).unwrap_or(0.0),
                "ms",
            ),
            ("latency_geomean_ms".into(), geomean(&group_medians), "ms"),
            (
                "completed_frac".into(),
                ratio(completed as f64, measured as f64),
                "ratio",
            ),
            ("setup_s".into(), median(&setup_totals), "s"),
            ("peak_rss_mib".into(), peak_rss, "MiB"),
        ],
    })
}

/// One round of every closed-loop client, traced or not: each client
/// submits its next statement once the previous one's rows are in hand.
/// Returns the round's submissions and its wall time.
fn round(
    service: &QueryService,
    sources: &mut [Source],
    traced: bool,
    epoch: Instant,
    checker: &Checker,
) -> Result<(Vec<Executed>, Duration), String> {
    let opts = if traced {
        ExecOptions::default().traced()
    } else {
        ExecOptions::default()
    };
    let start = epoch.elapsed();
    let executed = std::thread::scope(|s| {
        let clients: Vec<_> = sources
            .iter_mut()
            .map(|source| {
                let opts = &opts;
                s.spawn(move || -> Result<Vec<Executed>, String> {
                    let mut out = Vec::new();
                    for stmt in source.next_round() {
                        let ex = execute(service, stmt, opts, epoch);
                        if let Ok(result) = &ex.outcome {
                            checker.check(&stmt, result)?;
                        }
                        out.push(ex);
                    }
                    Ok(out)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((
        executed.into_iter().flatten().collect(),
        epoch.elapsed() - start,
    ))
}

/// Time `uot_sql::parse`, `uot_sql::bind` and `uot_core::lower` on each
/// text; returns the mean over texts of each function's per-text median,
/// in microseconds, and records one span per call.
fn frontend(
    texts: &[String],
    db: &uot_tpch::TpchDb,
    epoch: Instant,
    log: &mut SpanLog,
) -> Result<[f64; 3], String> {
    let mut per_text = [Vec::new(), Vec::new(), Vec::new()];
    for text in texts {
        let mut reps = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..FRONTEND_REPS {
            let t0 = epoch.elapsed();
            let ast = uot_sql::parse(std::hint::black_box(text)).map_err(|e| e.to_string())?;
            let t1 = epoch.elapsed();
            let logical = uot_sql::bind(&ast, db.catalog()).map_err(|e| e.to_string())?;
            let t2 = epoch.elapsed();
            let plan = uot_core::lower(&logical).map_err(|e| e.to_string())?;
            let t3 = epoch.elapsed();
            std::hint::black_box(plan);
            let root = log.push("frontend", t0, t3, None, 0);
            for (name, (a, b)) in
                ["parse", "bind", "lower"]
                    .into_iter()
                    .zip([(t0, t1), (t1, t2), (t2, t3)])
            {
                log.push(name, a, b, Some(root), 0);
            }
            for (r, (a, b)) in reps.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                r.push((b - a).as_secs_f64() * 1e6);
            }
        }
        for (p, r) in per_text.iter_mut().zip(&reps) {
            p.push(median(r));
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    Ok([mean(&per_text[0]), mean(&per_text[1]), mean(&per_text[2])])
}

/// The distinct texts the frontend is timed on: every TPC-H statement, or
/// the first few distinct texts of each lookup template.
fn frontend_texts(rounds: &[TracedRound]) -> Vec<String> {
    let mut per_group: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for ex in rounds.iter().flat_map(|r| &r.executed) {
        let texts = per_group.entry(ex.stmt.group()).or_default();
        let sql = ex.stmt.sql();
        if texts.len() < FRONTEND_TEXTS_PER_TEMPLATE && !texts.contains(&sql) {
            texts.push(sql);
        }
    }
    per_group.into_values().flatten().collect()
}

fn per_layer(pin: &Pinned, seconds: f64) -> Result<Report, String> {
    let checker = Checker::default();
    let (ready, _, generates) = set_up(pin, &checker)?;
    let service = &ready.service;
    let mut sources = run::sources(pin.workload, pin.seed, pin.clients, &ready.db);
    let epoch = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);

    // Alternate untraced and traced rounds, at least two of each, so both
    // see the same conditions; each round's completed-per-second rate goes
    // to its side.
    let mut traced_rounds = Vec::new();
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut failures = Failures::default();
    let mut attempted = 0;
    let mut i = 0;
    let steal = run::cpu_steal();
    while epoch.elapsed() < deadline || i < 4 {
        let traced = i % 2 == 1;
        let (hub0, cache0) = (service.hub_snapshot(), service.plan_cache_stats());
        let (executed, wall) = round(service, &mut sources, traced, epoch, &checker)?;
        let (hub1, cache1) = (service.hub_snapshot(), service.plan_cache_stats());
        attempted += executed.len();
        executed.iter().for_each(|ex| failures.record(ex));
        let completed = executed.iter().filter(|ex| ex.outcome.is_ok()).count();
        let rate = ratio(completed as f64, wall.as_secs_f64());
        if traced {
            traced_rates.push(rate);
            traced_rounds.push(TracedRound {
                executed,
                hub: HubDelta::between(&hub0, &hub1),
                cache: CacheDelta::between(&cache0, &cache1),
            });
        } else {
            plain_rates.push(rate);
        }
        i += 1;
    }
    print_steal(steal);
    let (plain_qps, traced_qps) = (median(&plain_rates), median(&traced_rates));
    println!(
        "# {i} rounds, median round rate: untraced {plain_qps:.3} q/s, traced {traced_qps:.3} q/s"
    );
    failures.print();

    let mut log = SpanLog::default();
    let layers = layers::fold(&traced_rounds, pin.workers, &mut log);
    if layers.dropped_events > 0 {
        println!(
            "# engine trace sinks dropped {} events",
            layers.dropped_events
        );
    }
    let [parse_us, bind_us, lower_us] =
        frontend(&frontend_texts(&traced_rounds), &ready.db, epoch, &mut log)?;

    let mut metrics = vec![
        ("dbgen.generate_s".to_string(), median(&generates), "s"),
        ("sql.parse_us".into(), parse_us, "us"),
        ("sql.bind_us".into(), bind_us, "us"),
        ("sql.lower_us".into(), lower_us, "us"),
        (
            "sql.plan_cache_entries".into(),
            service.plan_cache_stats().entries as f64,
            "count",
        ),
    ];
    metrics.extend(layers.metrics);
    metrics.push((
        "obs.trace_overhead_frac".into(),
        1.0 - ratio(traced_qps, plain_qps),
        "ratio",
    ));

    // The first traced round on the run's timeline: its engine traces and
    // bench spans, plus the frontend spans (query id 0). Later rounds only
    // feed the figures above, which keeps the file to a few MiB.
    let first = traced_rounds.first().map_or(&[][..], |r| &r.executed[..]);
    let traces: Vec<(&uot_core::Trace, Duration)> = first
        .iter()
        .filter_map(|ex| {
            let trace = ex.outcome.as_ref().ok()?.trace.as_ref()?;
            Some((trace, ex.submit_end))
        })
        .collect();
    let keep: HashSet<u64> = first.iter().map(|ex| ex.query).chain([0]).collect();
    let path = out_dir().join(format!(
        "trace-{}-seed{}.json",
        pin.workload.name(),
        pin.seed
    ));
    std::fs::write(&path, log.chrome_json(&traces, &keep))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());

    let checked = checker.verify(&ready.db, pin.workers)?;
    println!("# results of {checked} distinct statements match the reference");
    ready.service.shutdown();
    Ok(Report {
        attempted,
        failed: failures.total(),
        metrics,
    })
}

/// The host's CPU steal since `before`, as a `#` line (skipped where
/// `/proc/stat` is not readable).
fn print_steal(before: Option<(u64, u64)>) {
    if let Some(share) = run::steal_share(before, run::cpu_steal()) {
        println!(
            "# host CPU steal during the window: {:.1}% of CPU time",
            share * 100.0
        );
    }
}

/// Where the benchmark writes: span files, and the spill tier's temporary
/// files (kept inside the package directory).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tpch_mix|short_lookups|tpch_spill> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // `SpillStore` puts its files under `std::env::temp_dir()`; point that
    // inside the package before any thread starts.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: {}: {e}", tmp.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    let pin = run::pinned(args.workload, args.seed);
    println!("# config {pin}");
    let report = if args.trace {
        per_layer(&pin, args.seconds)
    } else {
        end_to_end(&pin, args.seconds)
    };
    match report {
        Ok(r) => r.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

//! Driving a workload through `QueryService`: set-up, closed-loop clients,
//! the result check and the reference computation.

use crate::workload::{
    tpch_round, Domains, Lookup, LookupStream, Pinned, Rng, Statement, Workload,
};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use uot_core::{
    Engine, EngineConfig, EngineError, ExecOptions, FusionPolicy, QueryResult, QueryService,
    ServiceConfig, Uot,
};
use uot_storage::{BlockFormat, Value};
use uot_tpch::{TpchConfig, TpchDb};

pub const SCALE_FACTOR: f64 = 0.1;
pub const BLOCK_BYTES: usize = 128 * 1024;
pub const MEMORY_BUDGET: usize = 256 << 20;
/// Service workers and clients never exceed this many, nor the CPU count.
const MAX_THREADS: usize = 2;
/// Lookups per client in one round (the unit the traced run alternates).
const LOOKUP_ROUND: usize = 250;

pub fn pinned(workload: Workload, seed: u64) -> Pinned {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Pinned {
        workload,
        seed,
        scale_factor: SCALE_FACTOR,
        block_bytes: BLOCK_BYTES,
        base_format: "column",
        temp_format: "row",
        uot: "LOW (1 block)",
        fusion: FusionPolicy::Auto,
        memory_budget: MEMORY_BUDGET,
        workers: MAX_THREADS.min(nproc),
        clients: workload.clients().min(MAX_THREADS).min(nproc),
        nproc,
    }
}

/// First-seen sorted result rows per statement; every later result of the
/// same statement must equal them, and after the run they must equal the
/// reference.
#[derive(Default)]
pub struct Checker {
    seen: Mutex<HashMap<Statement, Vec<Vec<Value>>>>,
}

impl Checker {
    pub fn check(&self, stmt: &Statement, result: &QueryResult) -> Result<(), String> {
        let rows = result.sorted_rows();
        let mut seen = self.seen.lock().expect("no checker holder panics");
        match seen.get(stmt) {
            Some(first) if *first != rows => Err(format!(
                "{} returned {} rows, differing from its earlier {} rows",
                stmt.sql(),
                rows.len(),
                first.len()
            )),
            Some(_) => Ok(()),
            None => {
                seen.insert(*stmt, rows);
                Ok(())
            }
        }
    }

    /// Compare every statement's result with a reference computed by a
    /// different path: the hand-built plan on a serial `Engine` with
    /// `FusionPolicy::Never` and `Uot::Table`, spread over `threads`.
    /// Returns the number of distinct statements checked.
    pub fn verify(self, db: &TpchDb, threads: usize) -> Result<usize, String> {
        let seen: Vec<(Statement, Vec<Vec<Value>>)> = self
            .seen
            .into_inner()
            .expect("no checker holder panics")
            .into_iter()
            .collect();
        let engine = Engine::new(
            EngineConfig::serial()
                .with_block_bytes(BLOCK_BYTES)
                .with_uot(Uot::Table)
                .with_fusion(FusionPolicy::Never),
        );
        let chunk = seen.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let workers: Vec<_> = seen
                .chunks(chunk)
                .map(|part| {
                    let engine = &engine;
                    s.spawn(move || -> Result<(), String> {
                        for (stmt, rows) in part {
                            let plan = stmt
                                .reference_plan(db)
                                .map_err(|e| format!("reference plan for {stmt:?}: {e}"))?;
                            let reference = engine
                                .execute(plan)
                                .map_err(|e| format!("reference run of {stmt:?}: {e}"))?
                                .sorted_rows();
                            if reference != *rows {
                                return Err(format!(
                                    "{} returned {} rows, the reference {} rows",
                                    stmt.sql(),
                                    rows.len(),
                                    reference.len()
                                ));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("reference thread"))
        })?;
        Ok(seen.len())
    }
}

/// Where each client's statements come from.
pub enum Source {
    /// The 14 TPC-H statements in a new seeded order per round.
    Tpch(Rng),
    /// A lookup stream, cut into rounds of `LOOKUP_ROUND`.
    Lookups(Box<LookupStream>),
}

impl Source {
    pub fn next_round(&mut self) -> Vec<Statement> {
        match self {
            Source::Tpch(rng) => tpch_round(rng),
            Source::Lookups(s) => (0..LOOKUP_ROUND)
                .map(|_| Statement::Lookup(s.next_lookup()))
                .collect(),
        }
    }
}

pub fn sources(workload: Workload, seed: u64, clients: usize, db: &TpchDb) -> Vec<Source> {
    let domains = Domains {
        customers: db.config.n_customer(),
        parts: db.config.n_part(),
        suppliers: db.config.n_supplier(),
    };
    (0..clients)
        .map(|c| match workload {
            Workload::ShortLookups => {
                Source::Lookups(Box::new(LookupStream::new(seed, c, clients, domains)))
            }
            Workload::TpchMix | Workload::TpchSpill => {
                Source::Tpch(Rng::new(seed.wrapping_add(c as u64)))
            }
        })
        .collect()
}

/// One submission, timed at the layer boundaries (offsets from the run's
/// epoch): the `submit_sql_with` call, then `QueryHandle::wait`.
pub struct Executed {
    pub stmt: Statement,
    pub submit_start: Duration,
    pub submit_end: Duration,
    pub wait_start: Duration,
    pub wait_end: Duration,
    pub query: u64,
    pub outcome: Result<QueryResult, EngineError>,
}

impl Executed {
    /// From the `submit_sql_with` call until the rows are in hand.
    pub fn latency(&self) -> Duration {
        self.wait_end - self.submit_start
    }
}

pub fn execute(
    service: &QueryService,
    stmt: Statement,
    opts: &ExecOptions,
    epoch: Instant,
) -> Executed {
    let sql = stmt.sql();
    let submit_start = epoch.elapsed();
    let submitted = service.submit_sql_with(&sql, opts.clone());
    let submit_end = epoch.elapsed();
    let (query, outcome, wait_start, wait_end) = match submitted {
        Ok(handle) => {
            let query = handle.id().raw();
            let wait_start = epoch.elapsed();
            let outcome = handle.wait();
            (query, outcome, wait_start, epoch.elapsed())
        }
        Err(e) => (0, Err(e), submit_end, submit_end),
    };
    Executed {
        stmt,
        submit_start,
        submit_end,
        wait_start,
        wait_end,
        query,
        outcome,
    }
}

/// The `EngineError` variant, for the failure breakdown.
pub fn error_kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Storage(_) => "Storage",
        EngineError::Expr(_) => "Expr",
        EngineError::Sql(_) => "Sql",
        EngineError::InvalidOperatorRef { .. } => "InvalidOperatorRef",
        EngineError::InvalidPlan(_) => "InvalidPlan",
        EngineError::Config(_) => "Config",
        EngineError::WorkOrderPanic { .. } => "WorkOrderPanic",
        EngineError::Cancelled { .. } => "Cancelled",
        EngineError::BudgetExceeded { .. } => "BudgetExceeded",
        EngineError::AdmissionRejected { .. } => "AdmissionRejected",
        EngineError::ServiceShutdown => "ServiceShutdown",
        EngineError::Internal(_) => "Internal",
    }
}

/// A started service over freshly generated data, warmed up.
pub struct Ready {
    pub db: TpchDb,
    pub service: QueryService,
    pub generate: Duration,
    pub total: Duration,
}

/// Set-up: generate the data, start the service and run every template
/// once (so the plan cache holds the TPC-H statements). Warm-up results go
/// through the checker too.
pub fn set_up(pin: &Pinned, checker: &Checker) -> Result<Ready, String> {
    let t0 = Instant::now();
    let db = TpchDb::generate(TpchConfig {
        scale_factor: SCALE_FACTOR,
        block_bytes: BLOCK_BYTES,
        format: BlockFormat::Column,
        seed: pin.seed,
    });
    let generate = t0.elapsed();
    let w = pin.workload;
    let service = QueryService::start(ServiceConfig {
        workers: pin.workers,
        memory_budget: MEMORY_BUDGET,
        default_reservation: w.reservation(),
        block_bytes: BLOCK_BYTES,
        temp_format: BlockFormat::Row,
        default_uot: Uot::LOW,
        fusion: pin.fusion,
        degrade: w.degrade(),
        catalog: db.catalog().clone(),
        ..Default::default()
    })
    .map_err(|e| format!("service start: {e}"))?;
    let warm_up: Vec<Statement> = match w {
        Workload::TpchMix | Workload::TpchSpill => uot_tpch::all_queries()
            .into_iter()
            .map(Statement::Tpch)
            .collect(),
        Workload::ShortLookups => [
            Lookup::Customer(1),
            Lookup::Part(1),
            Lookup::Supplier(1),
            Lookup::RegionBalance {
                region: 0,
                cents: 0,
            },
        ]
        .into_iter()
        .map(Statement::Lookup)
        .collect(),
    };
    for stmt in warm_up {
        if let Ok(result) = &execute(&service, stmt, &ExecOptions::default(), t0).outcome {
            checker.check(&stmt, result)?;
        }
    }
    Ok(Ready {
        db,
        service,
        generate,
        total: t0.elapsed(),
    })
}

/// Machine-wide CPU time so far as `(steal, total)` jiffies, from the
/// `cpu` line of `/proc/stat`. Steal is time the hypervisor ran something
/// else on this machine's CPUs; printed with a run, it tells a slow host
/// apart from a slow engine.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The share of CPU time stolen between two [`cpu_steal`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

//! `serve_small`: an in-process `ConclaveServer` with a shared dealer pool
//! and two tenants. One closed-loop client sends a small grouped SUM to each
//! tenant in turn. One request in 64 per tenant first rebinds that tenant's
//! inputs with fresh rows, so the expected answer changes between cached
//! reads.
//!
//! One client, not one per tenant: the run is pinned to one CPU, where two
//! clients only interleave. Their request times then fell into two peaks,
//! near 5 and 8 ms, and the median jumped between them from run to run.

use crate::gen::{self, Rng};
use crate::oneshot::{common_layer_probes, traced_spans, write_trace, Tally};
use crate::stats::{mean, median};
use crate::trace::Recorder;
use crate::{probes, Args, Outcome};
use conclave_core::config::ConclaveConfig;
use conclave_core::plan::compile;
use conclave_core::report::RunReport;
use conclave_core::session::PersistentSession;
use conclave_engine::{Relation, Table};
use conclave_mpc::dealer::{generate_blocks, MaterialPool, MaterialSpec};
use conclave_server::{ConclaveServer, ServerConfig, ServerHandle};
use conclave_sql::Catalog;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_small";

const TENANTS: usize = 2;
/// Rows per input table and distinct keys; every key occurs in every table.
const ROWS: usize = 16;
const KEYS: i64 = 4;
/// A tenant's inputs are rebound before every 64th request to it.
const REBIND_EVERY: usize = 64;
/// The client sends a fixed stream of this many requests per second of
/// `--seconds` (6,250 at `--seconds 25`), so that the memory the run peaks
/// at, which grows with every request, compares across versions. The
/// stream is cut at `MAX_EXTENSION` times `--seconds`.
const REQUESTS_PER_SECOND: u64 = 250;
const MAX_EXTENSION: u32 = 3;
/// One bundle per query, sized to the query with about 20% headroom. The
/// query consumes 83 triples, 707 bit triples, 64 shared bits, 20 daBits
/// and 8 input masks per owner. `PartySession::refill` keeps every item a
/// query leaves unused, so a persistent mesh's stock grows by the unused
/// part of each bundle: with `MaterialSpec::default()`, about 9 times this
/// bundle, a 2-vCPU run of this workload peaked at 6.9 GB.
pub const POOL_SPEC: MaterialSpec = MaterialSpec {
    triples: 100,
    bit_triples: 850,
    shared_bits: 77,
    dabits: 24,
    input_masks: 10,
};
const POOL_DEPTH: usize = 8;
/// Compilations timed for `sql.compile_us` and `core.plan_us`, the work a
/// plan-cache miss costs.
const COMPILES: usize = 200;

const SQL: &str = "CREATE TABLE ta (k INT, v INT) WITH OWNER p1;
CREATE TABLE tb (k INT, v INT) WITH OWNER p2;
SELECT k, SUM(v) AS total FROM (ta UNION ALL tb) GROUP BY k REVEAL TO p1;";

/// Per-layer metrics only this workload exercises; the other workloads
/// report them as 0.
pub const SERVE_ONLY: [(&str, &str); 6] = [
    ("server.cache_hit_ratio", "ratio"),
    ("server.invalidations", "count"),
    ("server.rejected", "count"),
    ("server.direct_run_ms_mean", "ms"),
    ("pool.starved_ratio", "ratio"),
    ("pool.dealt_bytes_per_query", "bytes"),
];

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

fn session_config() -> ConclaveConfig {
    ConclaveConfig::standard()
        .with_sequential_local()
        .with_channel_runtime()
}

/// One tenant's inputs at one rebind epoch, with their reference answer.
struct TenantData {
    ta: Relation,
    tb: Relation,
    expected: BTreeMap<i64, i64>,
}

fn tenant_data(seed: u64, t: usize, epoch: usize) -> TenantData {
    let mut rng = Rng::new(seed, &format!("serve-{t}-{epoch}"));
    let ta = gen::keyed_rows(&mut rng, ROWS, KEYS, 0, 1000);
    let tb = gen::keyed_rows(&mut rng, ROWS, KEYS, 0, 1000);
    TenantData {
        expected: gen::grouped_sum(&[&ta, &tb]),
        ta: gen::relation(["k", "v"], &ta),
        tb: gen::relation(["k", "v"], &tb),
    }
}

fn check(report: &RunReport, data: &TenantData) -> Result<(), String> {
    let out = report.output_for(1).ok_or("no result delivered to P1")?;
    match gen::keyed_result(out, "k", "total") {
        Some(got) if got == data.expected => Ok(()),
        _ => Err("result differs from the reference".into()),
    }
}

fn bind(server: &ServerHandle, t: usize, data: &TenantData) -> Result<(), String> {
    let name = tenant_name(t);
    server
        .bind(&name, "ta", data.ta.clone())
        .and_then(|()| server.bind(&name, "tb", data.tb.clone()))
        .map_err(|e| e.to_string())
}

fn serve_one(server: &ServerHandle, t: usize, data: &TenantData) -> Result<RunReport, String> {
    let outcome = server
        .query(&tenant_name(t), SQL)
        .map_err(|e| e.to_string())?;
    check(&outcome.report, data)?;
    Ok(outcome.report)
}

/// Server and pool start, tenant registration, binds, and each tenant's
/// first correct result. Returns the server and how many of the first
/// requests succeeded.
fn start(seed: u64) -> Result<(ServerHandle, usize), String> {
    let pool = MaterialPool::start(seed, 3, POOL_SPEC, POOL_DEPTH);
    let server = ConclaveServer::start(ServerConfig::new(session_config()).with_pool(pool));
    let mut ok = 0;
    for t in 0..TENANTS {
        server
            .register_tenant(&tenant_name(t), Catalog::new())
            .map_err(|e| e.to_string())?;
        bind(&server, t, &tenant_data(seed, t, 0))?;
    }
    for t in 0..TENANTS {
        match serve_one(&server, t, &tenant_data(seed, t, 0)) {
            Ok(_) => ok += 1,
            Err(e) => eprintln!("set-up request of {} failed: {e}", tenant_name(t)),
        }
    }
    Ok((server, ok))
}

/// Request `i` of the stream: the tenant it goes to, and whether that
/// tenant's inputs are rebound before it.
fn stream_position(i: usize) -> (usize, bool) {
    let t = i % TENANTS;
    let nth = i / TENANTS;
    (t, nth % REBIND_EVERY == REBIND_EVERY - 1)
}

/// What the client saw.
struct ClientLog {
    latencies: Vec<f64>,
    failed: u64,
    tally: Tally,
}

fn client(server: &ServerHandle, args: &Args, rec: &mut Recorder) -> ClientLog {
    let mut log = ClientLog {
        latencies: Vec::new(),
        failed: 0,
        tally: Tally::default(),
    };
    let requests = REQUESTS_PER_SECOND * args.seconds.as_secs();
    let mut epochs = [0; TENANTS];
    let mut data: Vec<TenantData> = (0..TENANTS).map(|t| tenant_data(args.seed, t, 0)).collect();
    let start = Instant::now();
    while (log.latencies.len() as u64) < requests && start.elapsed() < args.seconds * MAX_EXTENSION
    {
        let i = log.latencies.len();
        let (t, rebind) = stream_position(i);
        let id = i as u64;
        let t0 = Instant::now();
        let root = rec.begin("request", None, id);
        let mut result = Ok(());
        if rebind {
            let span = rec.begin("server.bind", Some(root), id);
            epochs[t] += 1;
            data[t] = tenant_data(args.seed, t, epochs[t]);
            result = bind(server, t, &data[t]);
            rec.end(span);
        }
        let span = rec.begin("server.query", Some(root), id);
        let outcome = result.and_then(|()| {
            server
                .query(&tenant_name(t), SQL)
                .map_err(|e| e.to_string())
        });
        rec.end(span);
        let span = rec.begin("bench.check", Some(root), id);
        let result = outcome.and_then(|o| check(&o.report, &data[t]).map(|()| o.report));
        rec.end(span);
        rec.end(root);
        log.latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(report) => log.tally.add(&report),
            Err(e) => {
                log.failed += 1;
                eprintln!("request {i} to {} failed: {e}", tenant_name(t));
            }
        }
    }
    log
}

/// The request stream the client sent, replayed through
/// `PersistentSession::run_plan` with a pooled dealer and no server: one
/// session per tenant, the same plan, the same rebinds at the same
/// positions, after one warm-up query per tenant that builds its mesh. The
/// replay stops early once `budget` has passed. Returns each replayed
/// request's `run_plan` time in ms, how many requests ran (warm-ups
/// included) and how many results were wrong.
fn direct_replay(
    seed: u64,
    requests: usize,
    pool: MaterialPool,
    budget: Duration,
) -> Result<(Vec<f64>, u64, u64), String> {
    let start = Instant::now();
    let config = session_config().with_pooled_dealer(pool);
    let plan = conclave_sql::compile_sql(SQL)
        .map_err(|e| e.to_string())
        .and_then(|q| compile(&q, &config).map_err(|e| e.to_string()))?;
    let mut sessions: Vec<PersistentSession> = (0..TENANTS)
        .map(|_| PersistentSession::new(config.clone()))
        .collect();
    let mut data: Vec<TenantData> = (0..TENANTS).map(|t| tenant_data(seed, t, 0)).collect();
    let run = |session: &mut PersistentSession, data: &TenantData| {
        let t0 = Instant::now();
        let ok = session
            .run_plan(&plan)
            .map_err(|e| e.to_string())
            .and_then(|r| check(&r, data))
            .is_ok();
        (t0.elapsed().as_secs_f64() * 1e3, ok)
    };
    let (mut attempted, mut failed) = (0, 0);
    for (session, data) in sessions.iter_mut().zip(&data) {
        session
            .bind("ta", data.ta.clone())
            .bind("tb", data.tb.clone());
        attempted += 1;
        failed += u64::from(!run(session, data).1);
    }
    let mut epochs = [0; TENANTS];
    let mut times = Vec::with_capacity(requests);
    for i in 0..requests {
        if start.elapsed() > budget {
            break;
        }
        let (t, rebind) = stream_position(i);
        if rebind {
            epochs[t] += 1;
            data[t] = tenant_data(seed, t, epochs[t]);
            sessions[t]
                .bind("ta", data[t].ta.clone())
                .bind("tb", data[t].tb.clone());
        }
        let (ms, ok) = run(&mut sessions[t], &data[t]);
        times.push(ms);
        attempted += 1;
        failed += u64::from(!ok);
    }
    Ok((times, attempted, failed))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server = None;
    while crate::more_setups(&setups) {
        let t0 = Instant::now();
        let (s, ok) = start(args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        for t in 0..TENANTS {
            out.count(t < ok);
        }
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let mut rec = Recorder::new(args.trace);
    let t0 = Instant::now();
    let log = client(&server, args, &mut rec);
    let wall = t0.elapsed().as_secs_f64();
    let latencies = log.latencies;
    let tally = log.tally;
    out.add(latencies.len() as u64, log.failed);

    if !args.trace {
        out.timings(&latencies, wall, &setups);
        tally.end_to_end(&mut out.metrics);
        return Ok(out);
    }
    let m = &mut out.metrics;

    // Serving-layer counters of the measured server.
    let stats = server.stats();
    let (mut hits, mut lookups, mut invalidations, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for ts in stats.tenants.values() {
        hits += ts.cache.hits;
        lookups += ts.cache.hits + ts.cache.misses;
        invalidations += ts.cache.invalidations;
        rejected += ts.rejected;
    }
    let pool = stats.pool.ok_or("the server runs without a pool")?;
    let served = (latencies.len() + TENANTS) as f64;
    let bundle_bytes = probes::bundle_bytes(&generate_blocks(args.seed, 3, POOL_SPEC)) as f64;
    m.put(
        "server.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put("server.invalidations", invalidations as f64, "count");
    m.put("server.rejected", rejected as f64, "count");
    m.put(
        "pool.starved_ratio",
        pool.starved as f64 / pool.taken.max(1) as f64,
        "ratio",
    );
    m.put(
        "pool.dealt_bytes_per_query",
        pool.dealt as f64 * bundle_bytes / served,
        "bytes",
    );
    drop(server);

    // The cache-miss path, timed alone.
    for i in 0..COMPILES as u64 {
        let span = rec.begin("sql.compile", None, i);
        let query = conclave_sql::compile_sql(SQL).map_err(|e| e.to_string())?;
        rec.end(span);
        let span = rec.begin("core.plan", None, i);
        compile(&query, &session_config()).map_err(|e| e.to_string())?;
        rec.end(span);
    }
    tally.layers(m);
    traced_spans(&rec, &latencies, m);

    // The same stream without the server.
    let replay_pool = MaterialPool::start(args.seed, 3, POOL_SPEC, POOL_DEPTH);
    let (direct, attempted, failed) =
        direct_replay(args.seed, latencies.len(), replay_pool, args.seconds / 2)?;
    out.add(attempted, failed);
    let m = &mut out.metrics;
    m.put("server.direct_run_ms_mean", mean(&direct), "ms");
    m.put("core.run_plan_ms", median(&direct), "ms");

    let config = session_config();
    let plan = compile(
        &conclave_sql::compile_sql(SQL).map_err(|e| e.to_string())?,
        &config,
    )
    .map_err(|e| e.to_string())?;
    m.put("core.mpc_nodes", plan.mpc_node_count() as f64, "count");
    m.put(
        "core.hybrid_nodes",
        plan.hybrid_node_count() as f64,
        "count",
    );
    let data = tenant_data(args.seed, 0, 0);
    let bindings: HashMap<String, Table> = [("ta", data.ta), ("tb", data.tb)]
        .into_iter()
        .map(|(n, r)| (n.to_string(), Table::from_rows(r)))
        .collect();
    probes::plan_steps(
        &plan,
        &bindings,
        config.mpc,
        config.party_runtime,
        config.engine_mode,
        m,
    )?;
    common_layer_probes(args.seed, m)?;
    out.samples.insert("trace.latency_ms_mean", latencies.len());
    out.samples
        .insert("server.direct_run_ms_mean", direct.len());
    write_trace(&rec, args);
    Ok(out)
}

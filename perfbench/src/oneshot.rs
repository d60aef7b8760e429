//! The one-shot workloads: every request is SQL text in, checked result out,
//! through `compile_sql` → `plan::compile` → `Session::run_plan`, so each
//! request pays compilation and builds its own party mesh. One client runs
//! one query at a time (a closed loop).

use crate::gen::{self, Rng};
use crate::stats::{mean, median};
use crate::trace::Recorder;
use crate::{probes, Args, Metrics, Outcome};
use conclave_core::config::ConclaveConfig;
use conclave_core::plan::{compile, PhysicalPlan};
use conclave_core::report::RunReport;
use conclave_core::session::Session;
use conclave_engine::{ColumnarRelation, Relation, Table};
use conclave_mpc::PrimitiveCounts;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAMES: [&str; 3] = ["mpc_groupby", "mpc_pipeline_bulk", "hybrid_credit_tcp"];

/// The party every workload reveals its result to.
const RECIPIENT: u32 = 1;

const GROUPBY_SQL: &str = "CREATE TABLE a (k INT, v INT) WITH OWNER p1;
CREATE TABLE b (k INT, v INT) WITH OWNER p2;
SELECT k, SUM(v) AS total FROM (a UNION ALL b) GROUP BY k REVEAL TO p1;";

const PIPELINE_SQL: &str = "CREATE TABLE a (k INT, v INT) WITH OWNER p1;
CREATE TABLE b (k INT, v INT) WITH OWNER p2;
SELECT SUM(w) AS total FROM (SELECT v * 3 AS w FROM (a UNION ALL b) WHERE v > 0)
REVEAL TO p1;";

const CREDIT_SQL: &str =
    "CREATE TABLE demographics (ssn INT, zip INT TRUSTED BY (p1)) WITH OWNER p1;
CREATE TABLE scores1 (ssn INT TRUSTED BY (p1), score INT) WITH OWNER p2;
CREATE TABLE scores2 (ssn INT TRUSTED BY (p1), score INT) WITH OWNER p3;
SELECT zip, SUM(score) AS total
FROM demographics JOIN (scores1 UNION ALL scores2) ON ssn = ssn
GROUP BY zip
REVEAL TO p1;";

/// The reference answer a result must equal.
enum Expected {
    /// `total` per value of the key column.
    Keyed(&'static str, BTreeMap<i64, i64>),
    Scalar(i64),
}

impl Expected {
    fn matches(&self, out: &Relation) -> bool {
        match self {
            Expected::Keyed(key, want) => {
                gen::keyed_result(out, key, "total").is_some_and(|got| &got == want)
            }
            Expected::Scalar(want) => gen::scalar_result(out) == Some(*want),
        }
    }
}

struct Workload {
    sql: &'static str,
    config: ConclaveConfig,
    tables: Vec<(&'static str, Table)>,
    expected: Expected,
}

fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    let keyed = |stream: &str, rows, keys, lo, hi| {
        gen::keyed_rows(&mut Rng::new(seed, stream), rows, keys, lo, hi)
    };
    Ok(match name {
        // 2 × 100 rows, 8 keys: a grouped SUM whose oblivious sort and scan
        // are round-bound.
        "mpc_groupby" => {
            let (a, b) = (
                keyed("a", 100, 8, -1000, 1000),
                keyed("b", 100, 8, -1000, 1000),
            );
            Workload {
                sql: GROUPBY_SQL,
                config: ConclaveConfig::mpc_only()
                    .with_sequential_local()
                    .with_channel_runtime(),
                expected: Expected::Keyed("k", gen::grouped_sum(&[&a, &b])),
                tables: vec![
                    ("a", gen::relation(["k", "v"], &a).into()),
                    ("b", gen::relation(["k", "v"], &b).into()),
                ],
            }
        }
        // 2 × 10,000 rows through concat → filter → multiply → SUM at a
        // constant round count: bandwidth- and compute-bound.
        "mpc_pipeline_bulk" => {
            let (a, b) = (
                keyed("a", 10_000, 7, -100, 900),
                keyed("b", 10_000, 7, -100, 900),
            );
            Workload {
                sql: PIPELINE_SQL,
                config: ConclaveConfig::mpc_only()
                    .with_sequential_local()
                    .with_channel_runtime(),
                expected: Expected::Scalar(gen::pipeline_total(&[&a, &b])),
                tables: vec![
                    ("a", gen::relation(["k", "v"], &a).into()),
                    ("b", gen::relation(["k", "v"], &b).into()),
                ],
            }
        }
        // 50,000 rows per table: hybrid join and hybrid aggregate with the
        // regulator as the selectively-trusted party, MPC over TCP.
        "hybrid_credit_tcp" => {
            let inputs = gen::credit_inputs(seed, 50_000, 200);
            let columnar = |names, rows: &[[i64; 2]]| -> Table {
                ColumnarRelation::from_rows(&gen::relation(names, rows)).into()
            };
            Workload {
                sql: CREDIT_SQL,
                config: ConclaveConfig::standard()
                    .with_sequential_local()
                    .with_columnar()
                    .with_tcp_runtime(),
                expected: Expected::Keyed("zip", gen::credit_totals(&inputs)),
                tables: vec![
                    (
                        "demographics",
                        columnar(["ssn", "zip"], &inputs.demographics),
                    ),
                    ("scores1", columnar(["ssn", "score"], &inputs.scores1)),
                    ("scores2", columnar(["ssn", "score"], &inputs.scores2)),
                ],
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Sums of every per-query counter the program reports, over the measured
/// requests. Every workload's counters are the same on every request, so
/// the per-query means are exact.
#[derive(Default)]
pub struct Tally {
    queries: u64,
    rounds: u64,
    wire_bytes: u64,
    messages: u64,
    mesh_builds: u64,
    conversions: u64,
    bytes_by_kind: BTreeMap<String, u64>,
    counts: PrimitiveCounts,
}

/// The `bytes_by_kind` labels reported as `net.bytes.<label>`.
const WIRE_KINDS: [&str; 5] = ["share", "masked-open", "reveal", "mac-check", "control"];

impl Tally {
    pub fn add(&mut self, r: &RunReport) {
        self.queries += 1;
        self.rounds += r.net.rounds;
        self.wire_bytes += r.net.total_bytes();
        self.messages += r.net.total_messages();
        self.mesh_builds += r.net.mesh_builds;
        self.conversions += r.conversions.total();
        for (kind, bytes) in &r.net.bytes_by_kind {
            *self.bytes_by_kind.entry(kind.clone()).or_default() += bytes;
        }
        self.counts.merge(&r.mpc_stats.counts);
    }

    fn per_query(&self, total: u64) -> f64 {
        total as f64 / self.queries.max(1) as f64
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("rounds_per_query", self.per_query(self.rounds), "count");
        m.put(
            "wire_bytes_per_query",
            self.per_query(self.wire_bytes),
            "bytes",
        );
    }

    pub fn layers(&self, m: &mut Metrics) {
        m.put(
            "core.mesh_builds",
            self.per_query(self.mesh_builds),
            "count",
        );
        m.put(
            "core.conversions",
            self.per_query(self.conversions),
            "count",
        );
        m.put("net.messages", self.per_query(self.messages), "count");
        for kind in WIRE_KINDS {
            let bytes = self.bytes_by_kind.get(kind).copied().unwrap_or(0);
            m.put(&format!("net.bytes.{kind}"), self.per_query(bytes), "bytes");
        }
        let c = &self.counts;
        for (name, total) in [
            ("mults", c.mults),
            ("comparisons", c.comparisons),
            ("equalities", c.equalities),
            ("bit_ands", c.bit_ands),
            ("circuit_rounds", c.circuit_rounds),
            ("opened_elems", c.opened_elems),
            ("mac_checks", c.mac_checks),
            ("shuffled_elems", c.shuffled_elems),
        ] {
            m.put(&format!("mpc.{name}"), self.per_query(total), "count");
        }
    }
}

/// One request: SQL text in, checked result out. Returns the run report of
/// a correct result, or why the request failed.
fn request(
    session: &Session,
    w: &Workload,
    rec: &mut Recorder,
    id: u64,
) -> Result<(RunReport, PhysicalPlan), String> {
    let root = rec.begin("request", None, id);
    let span = rec.begin("sql.compile", Some(root), id);
    let query = conclave_sql::compile_sql(w.sql).map_err(|e| e.to_string());
    rec.end(span);
    let span = rec.begin("core.plan", Some(root), id);
    let plan = query.and_then(|q| compile(&q, session.config()).map_err(|e| e.to_string()));
    rec.end(span);
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            rec.end(root);
            return Err(e);
        }
    };
    let span = rec.begin("core.run_plan", Some(root), id);
    let report = session.run_plan(&plan).map_err(|e| e.to_string());
    rec.end(span);
    let span = rec.begin("bench.check", Some(root), id);
    let checked = report.and_then(|r| match r.output_for(RECIPIENT) {
        Some(out) if w.expected.matches(out) => Ok(r),
        Some(_) => Err("result differs from the reference".into()),
        None => Err(format!("no result delivered to P{RECIPIENT}")),
    });
    rec.end(span);
    rec.end(root);
    Ok((checked?, plan))
}

fn bound_session(w: &Workload) -> Session {
    w.tables
        .iter()
        .fold(Session::new(w.config.clone()), |s, (name, table)| {
            s.bind(*name, table.clone())
        })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = workload(&args.workload, args.seed)?;
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.trace);
    let mut off = Recorder::new(false);

    // Set-up: session, bindings and the first correct result, several times.
    let mut setups = Vec::new();
    let mut session = None;
    while crate::more_setups(&setups) {
        let t0 = Instant::now();
        let s = bound_session(&w);
        let first = request(&s, &w, &mut off, 0);
        setups.push(t0.elapsed().as_secs_f64());
        out.count(first.is_ok());
        if let Err(e) = first {
            eprintln!("set-up request failed: {e}");
        }
        session = Some(s);
    }
    let session = session.expect("at least one set-up");

    // The measured closed loop.
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let mut plan = None;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let t0 = Instant::now();
        let result = request(&session, &w, &mut rec, latencies.len() as u64 + 1);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        out.count(result.is_ok());
        match result {
            Ok((report, p)) => {
                tally.add(&report);
                plan = Some(p);
            }
            Err(e) => eprintln!("request failed: {e}"),
        }
    }
    let wall = start.elapsed().as_secs_f64();

    if !args.trace {
        out.timings(&latencies, wall, &setups);
        tally.end_to_end(&mut out.metrics);
        return Ok(out);
    }
    let m = &mut out.metrics;

    let plan = plan.ok_or("no request succeeded")?;
    tally.layers(m);
    traced_spans(&rec, &latencies, m);
    m.put("core.mpc_nodes", plan.mpc_node_count() as f64, "count");
    m.put(
        "core.hybrid_nodes",
        plan.hybrid_node_count() as f64,
        "count",
    );
    probes::plan_steps(
        &plan,
        session.bindings(),
        w.config.mpc,
        w.config.party_runtime,
        w.config.engine_mode,
        m,
    )?;
    common_layer_probes(args.seed, m)?;
    for (name, unit) in crate::serve::SERVE_ONLY {
        m.put(name, 0.0, unit);
    }
    out.samples.insert("trace.latency_ms_mean", latencies.len());
    write_trace(&rec, args);
    Ok(out)
}

/// Per-layer metrics read off the request spans: the median time in each
/// layer, the traced mean latency, and how much of each request the top-level
/// spans cover.
pub fn traced_spans(rec: &Recorder, latencies: &[f64], m: &mut Metrics) {
    let med = |name| median(&rec.durations_ms(name));
    m.put("sql.compile_us", med("sql.compile") * 1e3, "us");
    m.put("core.plan_us", med("core.plan") * 1e3, "us");
    m.put("core.run_plan_ms", med("core.run_plan"), "ms");
    m.put("trace.latency_ms_mean", mean(latencies), "ms");
    let coverage = rec.coverage("request");
    let min = coverage.iter().copied().reduce(f64::min).unwrap_or(0.0);
    m.put("trace.span_coverage_min", min, "ratio");
}

/// The probes every traced run makes, whatever its workload: the MPC
/// runtime, the transports and the dealer.
pub fn common_layer_probes(seed: u64, m: &mut Metrics) -> Result<(), String> {
    probes::runtime(seed, m)?;
    probes::net(m)?;
    probes::dealer(seed, crate::serve::POOL_SPEC, m);
    Ok(())
}

/// Writes the run's spans under `perfbench/traces/` (relative to the
/// working directory); a failure to write is reported, not fatal.
pub fn write_trace(rec: &Recorder, args: &Args) {
    let path = std::path::PathBuf::from("perfbench/traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", rec.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

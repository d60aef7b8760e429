//! The multi-party driver: executes a compiled [`PhysicalPlan`].
//!
//! The driver plays the role of the per-party Conclave agents (§4.1): it
//! walks the compiled DAG in topological order and dispatches every node to
//! the engine its execution site calls for — a cleartext [`Executor`]
//! (sequential or data-parallel, row or columnar) for local and STP steps,
//! the MPC engine for operators inside the MPC frontier, and the dedicated
//! hybrid-protocol implementations for the operators §5.3 introduces.
//!
//! All intermediate results move through the unified [`Table`] data plane:
//! the result store is a `HashMap<NodeId, Table>`, executors produce tables
//! in their native representation, and row↔columnar conversion happens only
//! where data genuinely changes domain (input binding, secret-share reveals,
//! result collection). The per-run conversion tally lands in
//! [`RunReport::conversions`]. Along the way the driver accumulates simulated
//! per-party runtimes, MPC statistics, network traffic, and a *leakage audit*
//! that checks every cleartext reveal against the authorization the trust
//! analysis derived.

use crate::analysis;
use crate::config::{ConclaveConfig, LocalBackend};
use crate::hybrid_exec;
use crate::party_exec;
use crate::plan::PhysicalPlan;
use crate::report::RunReport;
use conclave_engine::{
    sequential_executor, ConversionCounts, EngineError, Executor, Relation, Table,
};
use conclave_ir::dag::NodeId;
use conclave_ir::error::IrError;
use conclave_ir::ops::{ExecSite, Operator};
use conclave_ir::party::PartyId;
use conclave_mpc::backend::{MpcEngine, MpcError, MpcStepStats};
use conclave_parallel::ParallelEngine;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Errors raised during plan execution.
#[derive(Debug)]
pub enum DriverError {
    /// An input relation named by the query was not bound to data.
    MissingInput(String),
    /// The SQL text passed to [`Driver::run_sql`] failed to parse or lower.
    Sql(conclave_sql::SqlError),
    /// The query lowered from SQL failed to compile under the driver's
    /// configuration.
    Compile(crate::plan::CompileError),
    /// A cleartext engine error (typed; the source chain is preserved).
    Engine(EngineError),
    /// An MPC backend error (including garbled-circuit out-of-memory).
    Mpc(MpcError),
    /// An IR-level error.
    Ir(IrError),
    /// A transport failure in the distributed party runtime (timeout,
    /// disconnect, socket I/O).
    Transport(conclave_net::TransportError),
    /// The plan would reveal data to a party that the trust analysis does not
    /// authorize — the driver refuses to execute it.
    UnauthorizedReveal {
        /// Offending node.
        node: NodeId,
        /// Party that would receive the data.
        to_party: PartyId,
        /// Description of the data.
        what: String,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::MissingInput(n) => write!(f, "no data bound for input relation `{n}`"),
            DriverError::Sql(e) => write!(f, "SQL frontend error: {e}"),
            DriverError::Compile(e) => write!(f, "compilation error: {e}"),
            DriverError::Engine(e) => write!(f, "cleartext engine error: {e}"),
            DriverError::Mpc(e) => write!(f, "MPC error: {e}"),
            DriverError::Ir(e) => write!(f, "IR error: {e}"),
            DriverError::Transport(e) => write!(f, "party-runtime transport error: {e}"),
            DriverError::UnauthorizedReveal {
                node,
                to_party,
                what,
            } => write!(
                f,
                "refusing to reveal {what} of node #{node} to unauthorized party P{to_party}"
            ),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Engine(e) => Some(e),
            DriverError::Mpc(e) => Some(e),
            DriverError::Ir(e) => Some(e),
            DriverError::Transport(e) => Some(e),
            DriverError::Sql(e) => Some(e),
            DriverError::Compile(e) => Some(e),
            DriverError::MissingInput(_) | DriverError::UnauthorizedReveal { .. } => None,
        }
    }
}

impl From<EngineError> for DriverError {
    fn from(e: EngineError) -> Self {
        DriverError::Engine(e)
    }
}

impl From<MpcError> for DriverError {
    fn from(e: MpcError) -> Self {
        DriverError::Mpc(e)
    }
}

impl From<IrError> for DriverError {
    fn from(e: IrError) -> Self {
        DriverError::Ir(e)
    }
}

/// Executes compiled plans over bound input data.
pub struct Driver {
    config: ConclaveConfig,
    mpc: MpcEngine,
    /// Executor for local per-party cleartext steps (site-selected backend).
    local_exec: Box<dyn Executor + Send + Sync>,
    /// Executor for STP/helper steps of hybrid protocols (always sequential:
    /// the trusted party runs them single-site).
    stp_exec: Box<dyn Executor + Send + Sync>,
    /// When [`Driver::retain_mesh`] is on: the party mesh kept alive between
    /// [`Driver::run_tables`] calls, so repeated queries reuse one set of
    /// workers, sessions and MAC key (`mesh_builds` stays at 1). Errors drop
    /// it — the next run starts from a clean mesh.
    persistent_mesh: Option<party_exec::PartyMeshRuntime>,
    retain_mesh: bool,
}

impl Driver {
    /// Creates a driver for the given configuration.
    pub fn new(config: ConclaveConfig) -> Self {
        let mpc = MpcEngine::new(config.mpc);
        let local_exec: Box<dyn Executor + Send + Sync> = match config.local_backend {
            LocalBackend::Parallel => {
                Box::new(ParallelEngine::new(config.cluster).with_mode(config.engine_mode))
            }
            LocalBackend::Sequential => sequential_executor(config.engine_mode),
        };
        let stp_exec = sequential_executor(config.engine_mode);
        Driver {
            config,
            mpc,
            local_exec,
            stp_exec,
            persistent_mesh: None,
            retain_mesh: false,
        }
    }

    /// Keeps the distributed party mesh alive across [`Driver::run_tables`]
    /// calls (the serving-layer mode): the first MPC-bearing plan builds the
    /// mesh, later plans reuse its workers and sessions via
    /// [`party_exec::PartyMeshRuntime::begin_query`]/`end_query`, and each
    /// run's report carries only that query's traffic. Any run error discards
    /// the mesh, so a failed query can never leave stale shares or a
    /// desynchronized work queue behind.
    pub fn retain_mesh(&mut self, keep: bool) {
        self.retain_mesh = keep;
        if !keep {
            self.persistent_mesh = None;
        }
    }

    /// Drops the retained party mesh (if any), joining its workers. The next
    /// run builds a fresh one.
    pub fn reset_mesh(&mut self) {
        self.persistent_mesh = None;
    }

    /// Whether a retained party mesh is currently alive.
    pub fn has_live_mesh(&self) -> bool {
        self.persistent_mesh.is_some()
    }

    /// The executor used for local cleartext steps.
    pub fn local_executor(&self) -> &dyn Executor {
        &*self.local_exec
    }

    /// Executes a plan over row-major relations. This is a thin shim over
    /// [`Driver::run_tables`] kept for compatibility with the pre-`Table`
    /// API: each relation is wrapped into a [`Table`] once and shared from
    /// there.
    pub fn run(
        &mut self,
        plan: &PhysicalPlan,
        inputs: &HashMap<String, Relation>,
    ) -> Result<RunReport, DriverError> {
        let tables: HashMap<String, Table> = inputs
            .iter()
            .map(|(name, rel)| (name.clone(), Table::from_rows(rel.clone())))
            .collect();
        self.run_tables(plan, &tables)
    }

    /// Compiles and executes a self-contained SQL script (see `docs/SQL.md`)
    /// in one call: the script's `CREATE TABLE` declarations must cover every
    /// referenced relation, the SQL is lowered to an IR query, compiled under
    /// this driver's configuration, and executed over `inputs`.
    ///
    /// Most callers should prefer [`crate::session::Session::run_sql`], which
    /// additionally validates the declared schemas against the bound data;
    /// this entry point exists for code already driving compiled plans by
    /// hand.
    pub fn run_sql(
        &mut self,
        sql: &str,
        inputs: &HashMap<String, Table>,
    ) -> Result<RunReport, DriverError> {
        let query = conclave_sql::compile_sql(sql).map_err(|e| DriverError::Sql(e.located(sql)))?;
        let plan = crate::plan::compile(&query, &self.config).map_err(DriverError::Compile)?;
        self.run_tables(&plan, inputs)
    }

    /// Executes a plan. `inputs` binds every `input` relation name to a
    /// [`Table`]; binding column-backed tables lets a columnar-mode plan run
    /// with zero row↔columnar conversions before the reveal boundary.
    pub fn run_tables(
        &mut self,
        plan: &PhysicalPlan,
        inputs: &HashMap<String, Table>,
    ) -> Result<RunReport, DriverError> {
        // Re-verify the plan before executing a single node: even a plan
        // tampered with after compilation (or built by hand) must pass the
        // static leakage linter, and its certified report rides on the run
        // report for the differential wire checks.
        let static_leakage =
            crate::passes::leakage::run(&plan.dag, &plan.parties).map_err(|e| match e {
                crate::plan::CompileError::Leakage(v) => DriverError::UnauthorizedReveal {
                    node: v.node,
                    to_party: v.party,
                    what: format!("column `{}`", v.column),
                },
                other => DriverError::Compile(other),
            })?;
        let mut report = RunReport {
            static_leakage: Some(static_leakage),
            ..RunReport::default()
        };
        let mut results: HashMap<NodeId, Table> = HashMap::new();
        // Every table that enters the result store, with its conversion
        // counter at insertion time: the per-run conversion tally is the sum
        // of the deltas (tables bound by the caller may carry pre-run
        // conversions that must not be charged to this run).
        let mut tracked: Vec<(Table, ConversionCounts)> = Vec::new();
        let viewers = analysis::authorized_viewers(&plan.dag, &plan.parties)?;
        let order = plan.dag.topo_order()?;

        // Distributed party runtime: one mesh and one set of party workers
        // for the whole plan, created lazily at the first MPC step. Steps are
        // enqueued without waiting; their intermediate results stay resident
        // on the workers as shares and are opened only at reveal boundaries.
        let distributed = self.config.party_runtime.is_distributed()
            && self.mpc.config().kind.is_secret_sharing();
        // A retained mesh from an earlier run is taken (not borrowed): if
        // this run errors out anywhere below, the mesh is dropped with it and
        // the driver is back in a defined, mesh-less state.
        let mut mesh_rt: Option<party_exec::PartyMeshRuntime> = self.persistent_mesh.take();
        // Whether this plan actually opened a query on the mesh (built it
        // fresh, or called `begin_query` on a reused one).
        let mut query_started = false;
        // Node → enqueued step id, for wiring resident inputs and reveals.
        let mut mpc_steps: HashMap<NodeId, u32> = HashMap::new();
        // Step id → index into `report.per_node` whose duration is patched
        // once the step's primitive counts arrive at finish.
        let mut step_nodes: HashMap<u32, usize> = HashMap::new();
        let pipelined = |node: &conclave_ir::dag::DagNode| {
            distributed && node.site.is_mpc() && party_exec::op_is_party_capable(&node.op)
        };
        // Which nodes consume each node's output: a step must be revealed iff
        // some consumer runs outside the party pipeline (or nothing consumes
        // it, so the result would otherwise be lost).
        let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for node in plan.dag.iter() {
            for &i in &node.inputs {
                consumers.entry(i).or_default().push(node.id);
            }
        }

        for id in order {
            let node = plan.dag.node(id)?;
            if pipelined(node) {
                match mesh_rt.as_mut() {
                    None => {
                        mesh_rt = Some(party_exec::PartyMeshRuntime::with_dealer(
                            self.mpc.config().kind.parties(),
                            self.config.mpc.seed,
                            self.config.party_runtime,
                            &self.config.dealer,
                        )?);
                        query_started = true;
                    }
                    Some(rt) if !query_started => {
                        // Reusing a retained mesh: top up pooled material for
                        // this query before the first step lands on it.
                        rt.begin_query()?;
                        query_started = true;
                    }
                    Some(_) => {}
                }
                let rt = mesh_rt.as_mut().expect("just created");
                let reveal = consumers.get(&id).is_none_or(|cs| {
                    cs.iter()
                        .any(|&c| plan.dag.node(c).map(|cn| !pipelined(cn)).unwrap_or(true))
                });
                let step_inputs: Vec<party_exec::StepInput> = node
                    .inputs
                    .iter()
                    .map(|i| match mpc_steps.get(i) {
                        Some(&s) => party_exec::StepInput::Resident(s),
                        None => party_exec::StepInput::Table(
                            results.get(i).expect("topological order").as_rows().clone(),
                        ),
                    })
                    .collect();
                let presorted = self.aggregate_is_presorted(plan, id, &node.op)?;
                let step = rt.enqueue(&node.op, step_inputs, presorted, reveal)?;
                mpc_steps.insert(id, step);
                step_nodes.insert(step, report.per_node.len());
                report.per_node.push((id, node.site, Duration::ZERO));
                continue;
            }
            // This node runs outside the party pipeline: any MPC-resident
            // input it consumes crosses a reveal boundary here, so block
            // until the opened (and cross-party-checked) relation arrives.
            for &i in &node.inputs {
                if let Some(&s) = mpc_steps.get(&i) {
                    if let std::collections::hash_map::Entry::Vacant(e) = results.entry(i) {
                        let rt = mesh_rt.as_mut().expect("enqueued steps imply a runtime");
                        let table = Table::from_rows(rt.wait_opened(s)?);
                        tracked.push((table.clone(), table.conversion_counts()));
                        e.insert(table);
                    }
                }
            }
            let input_tables: Vec<&Table> = node
                .inputs
                .iter()
                .map(|i| results.get(i).expect("topological order"))
                .collect();
            let (result, elapsed) = match (&node.op, node.site) {
                (Operator::Input { name, .. }, _) => {
                    let table = inputs
                        .get(name)
                        .cloned()
                        .ok_or_else(|| DriverError::MissingInput(name.clone()))?;
                    (table, Duration::ZERO)
                }
                (Operator::Collect { recipients }, _) => {
                    let table = input_tables[0].clone();
                    for r in recipients.iter() {
                        report.record_leakage(id, r, "query result", "output recipient");
                        report.outputs.insert(r, table.as_rows().clone());
                    }
                    (table, Duration::ZERO)
                }
                (
                    Operator::HybridJoin {
                        left_keys,
                        right_keys,
                        stp,
                    },
                    _,
                ) => {
                    self.check_reveal_authorized(plan, node.inputs[0], left_keys, *stp, id)?;
                    self.check_reveal_authorized(plan, node.inputs[1], right_keys, *stp, id)?;
                    let outcome = hybrid_exec::hybrid_join(
                        &mut self.mpc,
                        &*self.stp_exec,
                        input_tables[0],
                        input_tables[1],
                        left_keys,
                        right_keys,
                        *stp,
                    )?;
                    self.absorb_hybrid(&mut report, id, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (
                    Operator::PublicJoin {
                        left_keys,
                        right_keys,
                        helper,
                    },
                    _,
                ) => {
                    let outcome = hybrid_exec::public_join(
                        &*self.stp_exec,
                        input_tables[0],
                        input_tables[1],
                        left_keys,
                        right_keys,
                        *helper,
                    )?;
                    self.absorb_hybrid(&mut report, id, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (
                    Operator::HybridAggregate {
                        group_by,
                        func,
                        over,
                        out,
                        stp,
                    },
                    _,
                ) => {
                    self.check_reveal_authorized(plan, node.inputs[0], group_by, *stp, id)?;
                    let outcome = hybrid_exec::hybrid_aggregate(
                        &mut self.mpc,
                        &*self.stp_exec,
                        input_tables[0],
                        group_by,
                        *func,
                        over.as_deref(),
                        out,
                        *stp,
                    )?;
                    self.absorb_hybrid(&mut report, id, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (op, ExecSite::Mpc) => {
                    // In distributed mode only the operators the party
                    // drivers cannot run (`Divide`) reach here; everything
                    // else was enqueued on the mesh above.
                    let (table, stats) = self.run_mpc_op(plan, id, op, &input_tables)?;
                    report.mpc_time += stats.simulated_time;
                    report.mpc_stats.merge(&stats);
                    report.network_bytes += stats.counts.bytes();
                    (table, stats.simulated_time)
                }
                (op, ExecSite::Local(party)) | (op, ExecSite::Stp(party)) => {
                    // If this cleartext step consumes an MPC-produced
                    // relation, that relation is being revealed to `party`;
                    // audit it (push-up reveals are authorized because the
                    // operator is reversible from the query output).
                    for &input in &node.inputs {
                        let parent = plan.dag.node(input)?;
                        if parent.site.is_mpc() && !parent.op.is_output() {
                            let authorized = viewers
                                .get(&input)
                                .map(|v| v.contains(party))
                                .unwrap_or(false)
                                || node.op.is_reversible()
                                || matches!(node.op, Operator::Collect { .. });
                            if !authorized {
                                return Err(DriverError::UnauthorizedReveal {
                                    node: input,
                                    to_party: party,
                                    what: "intermediate relation".into(),
                                });
                            }
                            report.record_leakage(
                                input,
                                party,
                                "MPC output opened for local post-processing",
                                if node.op.is_reversible() {
                                    "reversible push-up (simulatable from the query output)"
                                } else {
                                    "authorized by trust annotations"
                                },
                            );
                        }
                    }
                    let (table, time) = self.run_local_op(op, &input_tables)?;
                    *report.local_time.entry(party).or_default() += time;
                    (table, time)
                }
                (op, ExecSite::Undecided) => {
                    // Uncompiled DAGs (unit tests, direct execution) run in
                    // the clear sequentially.
                    let (table, time) = self.run_local_op(op, &input_tables)?;
                    (table, time)
                }
            };
            report.per_node.push((id, node.site, elapsed));
            tracked.push((result.clone(), result.conversion_counts()));
            results.insert(id, result);
        }
        // Wind down the party mesh: flush in-flight opens, collect every
        // step's primitive counts (patching the per-node duration
        // placeholders), and account the observed wire traffic exactly once.
        if let Some(mut rt) = mesh_rt {
            if !query_started {
                // The plan never touched the mesh (no pipelined MPC steps):
                // stash the retained mesh back untouched.
                self.persistent_mesh = Some(rt);
            } else {
                let summary = if self.retain_mesh {
                    let summary = rt.end_query()?;
                    self.persistent_mesh = Some(rt);
                    summary
                } else {
                    rt.finish()?
                };
                for outcome in &summary.steps {
                    let stats = self.mpc.stats_from_counts(
                        outcome.counts,
                        outcome.input_rows,
                        outcome.output_rows,
                    );
                    report.mpc_time += stats.simulated_time;
                    report.mpc_stats.merge(&stats);
                    if let Some(&idx) = step_nodes.get(&outcome.step) {
                        report.per_node[idx].2 = stats.simulated_time;
                    }
                }
                report.net.merge(&summary.net);
                report.network_bytes += summary.net.total_bytes();
                report.net_measured = true;
                report.dealer_net = summary.dealer_net;
            }
        }
        // Tally per-run conversions. Clones share one counter, so count each
        // distinct cache once, from its earliest baseline.
        let mut seen: Vec<&Table> = Vec::new();
        for (table, baseline) in &tracked {
            if seen.iter().any(|s| s.shares_cache_with(table)) {
                continue;
            }
            seen.push(table);
            report
                .conversions
                .merge(&table.conversion_counts().since(baseline));
        }
        Ok(report)
    }

    fn absorb_hybrid(
        &self,
        report: &mut RunReport,
        id: NodeId,
        outcome: &hybrid_exec::HybridOutcome,
    ) {
        report.mpc_time += outcome.mpc_stats.simulated_time;
        report.stp_time += outcome.stp_time;
        report.network_bytes += outcome.mpc_stats.counts.bytes();
        report.mpc_stats.merge(&outcome.mpc_stats);
        // Conversions on the protocol's internal tables (revealed keys,
        // enumerations, index relations) never enter the result store, so
        // they are tallied here instead of by the end-of-run sweep.
        report.conversions.merge(&outcome.conversions);
        report.record_leakage(
            id,
            outcome.revealed_to,
            format!("columns {:?} (shuffled order)", outcome.revealed_columns),
            "trust annotation designates this party as the STP / helper",
        );
    }

    /// Checks that `stp` is authorized to learn the named columns of the
    /// relation produced by `input_node`.
    fn check_reveal_authorized(
        &self,
        plan: &PhysicalPlan,
        input_node: NodeId,
        columns: &[String],
        stp: PartyId,
        at_node: NodeId,
    ) -> Result<(), DriverError> {
        let trusted =
            analysis::trusted_parties_for_columns(&plan.dag, input_node, columns, &plan.parties)?;
        if trusted.contains(stp) {
            Ok(())
        } else {
            Err(DriverError::UnauthorizedReveal {
                node: at_node,
                to_party: stp,
                what: format!("columns {columns:?}"),
            })
        }
    }

    fn run_local_op(
        &self,
        op: &Operator,
        inputs: &[&Table],
    ) -> Result<(Table, Duration), DriverError> {
        let table = self
            .local_exec
            .execute(op, inputs)
            .map_err(DriverError::Engine)?;
        let time = self
            .local_exec
            .estimate_tables(op, inputs, table.num_rows() as u64);
        Ok((table, time))
    }

    /// Whether this MPC aggregation's input is already sorted by its group-by
    /// key, so the oblivious sort can be skipped (§5.4 sort elimination).
    fn aggregate_is_presorted(
        &self,
        plan: &PhysicalPlan,
        id: NodeId,
        op: &Operator,
    ) -> Result<bool, DriverError> {
        if let Operator::Aggregate { group_by, .. } = op {
            if self.config.use_sort_elimination && self.mpc.config().kind.is_secret_sharing() {
                if let Some(key) = group_by.first() {
                    let input_node = plan.dag.node(id)?.inputs[0];
                    return Ok(
                        plan.dag.node(input_node)?.sorted_by.as_deref() == Some(key.as_str())
                    );
                }
            }
        }
        Ok(false)
    }

    /// Runs one MPC step outside the party mesh — every MPC step in
    /// [`PartyRuntime::Simulated`](crate::config::PartyRuntime::Simulated)
    /// mode and `Divide` in every mode — by evaluating it with the sequential
    /// cleartext executor and charging the modeled cost of a standalone MPC
    /// job ([`MpcEngine::estimate_job`]). Secret-sharing backends first
    /// reject what the party runtime would reject
    /// ([`MpcEngine::check_op`]), so both modes accept the same plans.
    fn run_mpc_op(
        &self,
        plan: &PhysicalPlan,
        id: NodeId,
        op: &Operator,
        inputs: &[&Table],
    ) -> Result<(Table, MpcStepStats), DriverError> {
        // Division under MPC: Sharemind supports fixed-point division, but our
        // secret-sharing layer stays integer-only, so the step is charged as
        // an oblivious division ([`MpcEngine::estimate_divide`]) and the
        // result is computed in the clear. This keeps the "whole query under
        // MPC" baselines of Figures 4 and 6 runnable.
        let divide =
            matches!(op, Operator::Divide { .. }) && self.mpc.config().kind.is_secret_sharing();
        if !divide {
            self.mpc.check_op(op, inputs)?;
        }
        let table = self.stp_exec.execute(op, inputs)?;
        let rows: Vec<u64> = inputs.iter().map(|t| t.num_rows() as u64).collect();
        let cols: Vec<u64> = inputs.iter().map(|t| t.num_cols() as u64).collect();
        let n: u64 = rows.iter().sum();
        let out_rows = table.num_rows() as u64;
        let op_stats = if divide {
            self.mpc.estimate_divide(n)
        } else if self.aggregate_is_presorted(plan, id, op)? {
            // Sort-elimination pay-off: an MPC aggregation whose input is
            // already sorted by its group-by key skips the oblivious sort.
            let width = cols.iter().copied().max().unwrap_or(1);
            self.mpc.estimate_presorted_aggregate(n, width, out_rows)
        } else {
            self.mpc.estimate_op(op, &rows, &cols, out_rows)?
        };
        let stats = self
            .mpc
            .estimate_job(op_stats, inputs, table.num_rows(), table.num_cols());
        Ok((table, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::{DataType, Value};

    fn market_inputs() -> HashMap<String, Relation> {
        let mut m = HashMap::new();
        m.insert(
            "inputA".to_string(),
            Relation::from_ints(
                &["companyID", "price"],
                &[vec![1, 10], vec![2, 0], vec![1, 5]],
            ),
        );
        m.insert(
            "inputB".to_string(),
            Relation::from_ints(&["companyID", "price"], &[vec![2, 7], vec![3, 9]]),
        );
        m.insert(
            "inputC".to_string(),
            Relation::from_ints(&["companyID", "price"], &[vec![1, 3], vec![3, 4]]),
        );
        m
    }

    fn market_query() -> conclave_ir::builder::Query {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let pc = Party::new(3, "c");
        let schema = Schema::ints(&["companyID", "price"]);
        let mut q = QueryBuilder::new();
        let a = q.input("inputA", schema.clone(), pa.clone());
        let b = q.input("inputB", schema.clone(), pb);
        let c = q.input("inputC", schema, pc);
        let taxi = q.concat(&[a, b, c]);
        let filtered = q.filter(taxi, Expr::col("price").gt(Expr::lit(0)));
        let rev = q.aggregate(filtered, "local_rev", AggFunc::Sum, &["companyID"], "price");
        q.collect(rev, &[pa]);
        q.build().unwrap()
    }

    /// Expected per-company revenue for `market_inputs` (zero fares removed).
    fn expected_market_result() -> Relation {
        Relation::from_ints(
            &["companyID", "local_rev"],
            &[vec![1, 18], vec![2, 7], vec![3, 13]],
        )
    }

    #[test]
    fn end_to_end_market_query_matches_cleartext_reference() {
        let query = market_query();
        for config in [
            ConclaveConfig::standard(),
            ConclaveConfig::standard().with_sequential_local(),
            ConclaveConfig::mpc_only(),
        ] {
            let plan = compile(&query, &config).unwrap();
            let mut driver = Driver::new(config);
            let report = driver.run(&plan, &market_inputs()).unwrap();
            let out = report.output_for(1).expect("party 1 receives the result");
            assert!(
                out.same_rows_unordered(&expected_market_result()),
                "wrong result:\n{out}"
            );
            assert!(report.total_time() > Duration::ZERO);
        }
    }

    #[test]
    fn optimized_plan_is_faster_than_mpc_only_plan() {
        let query = market_query();
        let optimized_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let baseline_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let mut d1 = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut d2 = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let optimized = d1.run(&optimized_plan, &market_inputs()).unwrap();
        let baseline = d2.run(&baseline_plan, &market_inputs()).unwrap();
        assert!(
            optimized.mpc_time < baseline.mpc_time,
            "optimized MPC time {:?} should be below baseline {:?}",
            optimized.mpc_time,
            baseline.mpc_time
        );
    }

    #[test]
    fn missing_input_is_reported() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mut driver = Driver::new(ConclaveConfig::standard());
        let mut inputs = market_inputs();
        inputs.remove("inputB");
        match driver.run(&plan, &inputs) {
            Err(DriverError::MissingInput(name)) => assert_eq!(name, "inputB"),
            other => panic!("expected MissingInput, got {other:?}"),
        }
    }

    fn credit_query() -> conclave_ir::builder::Query {
        let regulator = Party::new(1, "gov");
        let bank_a = Party::new(2, "a");
        let bank_b = Party::new(3, "b");
        let demo = Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
        ]);
        let bank = Schema::new(vec![
            ColumnDef::with_trust("ssn", DataType::Int, TrustSet::of([1])),
            ColumnDef::new("score", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let demographics = q.input("demographics", demo, regulator.clone());
        let s1 = q.input("scores1", bank.clone(), bank_a);
        let s2 = q.input("scores2", bank, bank_b);
        let scores = q.concat(&[s1, s2]);
        let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
        let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
        q.collect(total, &[regulator]);
        q.build().unwrap()
    }

    fn credit_inputs() -> HashMap<String, Relation> {
        let mut m = HashMap::new();
        m.insert(
            "demographics".to_string(),
            Relation::from_ints(
                &["ssn", "zip"],
                &[vec![1, 10], vec![2, 20], vec![3, 10], vec![4, 30]],
            ),
        );
        m.insert(
            "scores1".to_string(),
            Relation::from_ints(&["ssn", "score"], &[vec![1, 700], vec![3, 650]]),
        );
        m.insert(
            "scores2".to_string(),
            Relation::from_ints(&["ssn", "score"], &[vec![2, 600], vec![3, 640], vec![9, 1]]),
        );
        m
    }

    #[test]
    fn credit_query_with_hybrid_operators_is_correct_and_audited() {
        let query = credit_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        assert_eq!(plan.hybrid_node_count(), 2);
        let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let report = driver.run(&plan, &credit_inputs()).unwrap();
        let out = report.output_for(1).unwrap();
        // zip 10: scores 700 + 650 + 640 = 1990; zip 20: 600.
        let expected = Relation::from_ints(&["zip", "total"], &[vec![10, 1990], vec![20, 600]]);
        assert!(out.same_rows_unordered(&expected), "got\n{out}");
        // The audit shows reveals to the STP (party 1) only.
        assert!(report.leakage.iter().all(|e| e.to_party == 1));
        assert!(report
            .leakage
            .iter()
            .any(|e| e.justification.contains("STP")));
        assert!(report.stp_time > Duration::ZERO);
    }

    #[test]
    fn hybrid_and_mpc_only_plans_agree_on_results() {
        let query = credit_query();
        // Use a somewhat larger input so the asymptotic advantage of the
        // hybrid operators is visible (at a handful of rows the oblivious
        // indexing overhead dominates).
        let mut inputs = HashMap::new();
        let demo: Vec<Vec<i64>> = (0..60).map(|i| vec![i, i % 7]).collect();
        let s1: Vec<Vec<i64>> = (0..30).map(|i| vec![i * 2, 500 + i]).collect();
        let s2: Vec<Vec<i64>> = (0..30).map(|i| vec![i * 2 + 1, 600 + i]).collect();
        inputs.insert(
            "demographics".to_string(),
            Relation::from_ints(&["ssn", "zip"], &demo),
        );
        inputs.insert(
            "scores1".to_string(),
            Relation::from_ints(&["ssn", "score"], &s1),
        );
        inputs.insert(
            "scores2".to_string(),
            Relation::from_ints(&["ssn", "score"], &s2),
        );
        let hybrid_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mpc_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let mut d1 = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut d2 = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let a = d1.run(&hybrid_plan, &inputs).unwrap();
        let b = d2.run(&mpc_plan, &inputs).unwrap();
        assert!(a
            .output_for(1)
            .unwrap()
            .same_rows_unordered(b.output_for(1).unwrap()));
        // Hybrid execution needs fewer non-linear MPC operations.
        assert!(
            a.mpc_stats.counts.nonlinear_ops() < b.mpc_stats.counts.nonlinear_ops(),
            "{} vs {}",
            a.mpc_stats.counts.nonlinear_ops(),
            b.mpc_stats.counts.nonlinear_ops()
        );
    }

    #[test]
    fn driver_refuses_unauthorized_hybrid_reveals() {
        // Build a plan where the hybrid join's STP is NOT in the key columns'
        // trust sets by tampering with the compiled plan.
        let query = credit_query();
        let mut plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let join_id = plan
            .dag
            .iter()
            .find(|n| matches!(n.op, Operator::HybridJoin { .. }))
            .unwrap()
            .id;
        if let Operator::HybridJoin { ref mut stp, .. } = plan.dag.node_mut(join_id).unwrap().op {
            *stp = 2; // bank A is not trusted with the regulator's SSN column
        }
        let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
        match driver.run(&plan, &credit_inputs()) {
            Err(DriverError::UnauthorizedReveal { to_party, .. }) => assert_eq!(to_party, 2),
            other => panic!("expected UnauthorizedReveal, got {other:?}"),
        }
    }

    #[test]
    fn distributed_party_runtime_matches_the_simulated_oracle_end_to_end() {
        use crate::config::PartyRuntime;
        let query = market_query();
        let inputs = market_inputs();
        // Oracle: the default simulated path, which evaluates every MPC step
        // in the clear.
        let plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let mut oracle = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let expected = oracle.run(&plan, &inputs).unwrap();
        assert!(expected
            .output_for(1)
            .unwrap()
            .same_rows_unordered(&expected_market_result()));
        assert!(!expected.net_measured);
        assert_eq!(expected.net.total_bytes(), 0);
        for runtime in [PartyRuntime::Channel, PartyRuntime::Tcp] {
            let config = ConclaveConfig::mpc_only()
                .with_sequential_local()
                .with_party_runtime(runtime);
            let plan = compile(&query, &config).unwrap();
            let mut driver = Driver::new(config);
            let report = driver.run(&plan, &inputs).unwrap();
            let out = report.output_for(1).unwrap();
            assert!(
                out.same_rows_unordered(expected.output_for(1).unwrap()),
                "{runtime:?} runtime diverged from the oracle:\n{out}"
            );
            assert!(report.net_measured, "{runtime:?} must measure traffic");
            assert!(report.net.total_bytes() > 0);
            assert!(report.net.rounds > 0);
            assert_eq!(report.network_bytes, report.net.total_bytes());
            let shown = report.to_string();
            assert!(shown.contains("measured"));
            assert!(shown.contains("link P0 -> P1"));
        }
    }

    #[test]
    fn collect_outputs_are_recorded_per_recipient() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "v"]), pb.clone());
        let cat = q.concat(&[a, b]);
        let agg = q.aggregate(cat, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa, pb]);
        let query = q.build().unwrap();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut inputs = HashMap::new();
        inputs.insert(
            "a".to_string(),
            Relation::from_ints(&["k", "v"], &[vec![1, 2]]),
        );
        inputs.insert(
            "b".to_string(),
            Relation::from_ints(&["k", "v"], &[vec![1, 3]]),
        );
        let report = driver.run(&plan, &inputs).unwrap();
        assert!(report.output_for(1).is_some());
        assert!(report.output_for(2).is_some());
        assert_eq!(
            report.output_for(1).unwrap().rows[0],
            vec![Value::Int(1), Value::Int(5)]
        );
        let shown = report.to_string();
        assert!(shown.contains("total simulated time"));
    }
}

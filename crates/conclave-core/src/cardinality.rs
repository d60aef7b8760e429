//! Cardinality propagation and analytic runtime estimation.
//!
//! The paper's figures sweep input sizes from ten records to 1.3 billion.
//! Executing a billion-row query in-process is not possible, so the benchmark
//! harness uses this module instead: it propagates estimated row counts
//! through the *compiled* plan (so every rewrite — push-down, hybrid
//! operators, sort elimination — changes the estimate exactly as it changes
//! real execution) and converts per-node work into simulated time using the
//! same cost models the driver charges.

use crate::config::{ConclaveConfig, LocalBackend};
use crate::plan::PhysicalPlan;
use conclave_engine::SequentialCostModel;
use conclave_ir::dag::NodeId;
use conclave_ir::error::IrResult;
use conclave_ir::ops::{ExecSite, Operator};
use conclave_ir::party::PartyId;
use conclave_mpc::backend::{MpcEngine, MpcError, MpcResult};
use conclave_parallel::ClusterCostModel;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Statistical knobs describing the workload, used to estimate intermediate
/// cardinalities.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadStats {
    /// Fraction of rows that survive a filter.
    pub filter_selectivity: f64,
    /// Output rows of a join as a fraction of the smaller input.
    pub join_selectivity: f64,
    /// Number of distinct group-by keys as a fraction of the input rows
    /// (capped at 1.0); determines aggregation output sizes.
    pub distinct_key_ratio: f64,
    /// Absolute cap on the number of distinct group-by keys, if known (e.g.
    /// the number of companies or ZIP codes).
    pub max_groups: Option<u64>,
}

impl Default for WorkloadStats {
    fn default() -> Self {
        WorkloadStats {
            filter_selectivity: 0.9,
            join_selectivity: 1.0,
            distinct_key_ratio: 0.1,
            max_groups: None,
        }
    }
}

impl WorkloadStats {
    fn groups_for(&self, rows: u64) -> u64 {
        let by_ratio = ((rows as f64) * self.distinct_key_ratio).ceil().max(1.0) as u64;
        match self.max_groups {
            Some(cap) => by_ratio.min(cap).max(1),
            None => by_ratio,
        }
    }
}

/// An analytic end-to-end runtime estimate for one plan and input size.
#[derive(Debug, Clone, Default)]
pub struct RuntimeEstimate {
    /// Simulated local processing time per party.
    pub local_time: BTreeMap<PartyId, Duration>,
    /// Simulated MPC time (includes moving data in and out of the MPC).
    pub mpc_time: Duration,
    /// Simulated cleartext time at the STP / helper inside hybrid protocols.
    pub stp_time: Duration,
    /// Estimated rows per node.
    pub rows: HashMap<NodeId, u64>,
    /// Whether the MPC backend would fail (garbled-circuit out-of-memory),
    /// and at which node.
    pub failure: Option<(NodeId, String)>,
}

impl RuntimeEstimate {
    /// Total simulated runtime (slowest party's local work, then MPC and STP
    /// phases).
    pub fn total_time(&self) -> Duration {
        let local = self.local_time.values().copied().max().unwrap_or_default();
        local + self.mpc_time + self.stp_time
    }

    /// Returns `true` if the estimated execution would not complete (backend
    /// failure such as out-of-memory).
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Propagates cardinalities through a compiled plan and estimates runtime.
#[derive(Debug)]
pub struct CardinalityEstimator {
    config: ConclaveConfig,
    stats: WorkloadStats,
    mpc: MpcEngine,
    cluster_cost: ClusterCostModel,
    sequential_cost: SequentialCostModel,
}

impl CardinalityEstimator {
    /// Creates an estimator for a configuration and workload description.
    pub fn new(config: ConclaveConfig, stats: WorkloadStats) -> Self {
        let mpc = MpcEngine::new(config.mpc);
        CardinalityEstimator {
            config,
            stats,
            mpc,
            cluster_cost: ClusterCostModel::default(),
            sequential_cost: SequentialCostModel::default(),
        }
    }

    /// Estimates the output cardinality of one operator.
    fn output_rows(&self, op: &Operator, input_rows: &[u64]) -> u64 {
        let n: u64 = input_rows.iter().sum();
        match op {
            Operator::Input { .. } => n,
            Operator::Filter { .. } => ((n as f64) * self.stats.filter_selectivity).ceil() as u64,
            Operator::Join { .. } | Operator::HybridJoin { .. } | Operator::PublicJoin { .. } => {
                let smaller = input_rows.iter().copied().min().unwrap_or(0);
                ((smaller as f64) * self.stats.join_selectivity).ceil() as u64
            }
            Operator::Aggregate { group_by, .. } | Operator::HybridAggregate { group_by, .. } => {
                if group_by.is_empty() {
                    1
                } else {
                    self.stats.groups_for(n)
                }
            }
            Operator::Distinct { .. } => self.stats.groups_for(n),
            Operator::DistinctCount { .. } => 1,
            Operator::Limit { n: limit } => n.min(*limit as u64),
            _ => n,
        }
    }

    /// Estimates the end-to-end runtime of a plan given per-input row counts
    /// (keyed by the input relation names of the query).
    pub fn estimate(
        &self,
        plan: &PhysicalPlan,
        input_rows: &HashMap<String, u64>,
    ) -> IrResult<RuntimeEstimate> {
        let mut est = RuntimeEstimate::default();
        let order = plan.dag.topo_order()?;
        let mut mpc_jobs = 0u32;
        for id in order {
            let node = plan.dag.node(id)?;
            let in_rows: Vec<u64> = node
                .inputs
                .iter()
                .map(|i| est.rows.get(i).copied().unwrap_or(0))
                .collect();
            let in_cols: Vec<u64> = node
                .inputs
                .iter()
                .filter_map(|i| plan.dag.node(*i).ok())
                .map(|n| n.schema.len() as u64)
                .collect();
            let out_rows = match &node.op {
                Operator::Input { name, .. } => input_rows.get(name).copied().unwrap_or(0),
                op => self.output_rows(op, &in_rows),
            };
            est.rows.insert(id, out_rows);
            if est.failure.is_some() {
                continue;
            }

            match node.site {
                ExecSite::Local(party) | ExecSite::Stp(party) => {
                    let row_bytes = node.schema.row_byte_size() as u64;
                    let t = self.local_time(&node.op, in_rows.iter().sum(), out_rows, row_bytes);
                    *est.local_time.entry(party).or_default() += t;
                }
                ExecSite::Mpc => {
                    mpc_jobs = 1;
                    match self.mpc_time(plan, id, &node.op, &in_rows, &in_cols, out_rows) {
                        Ok((mpc, stp)) => {
                            est.mpc_time += mpc;
                            est.stp_time += stp;
                        }
                        Err(MpcError::OutOfMemory { needed, limit }) => {
                            est.failure = Some((
                                id,
                                format!(
                                    "out of memory: needs {:.1} GB, limit {:.1} GB",
                                    needed / 1e9,
                                    limit / 1e9
                                ),
                            ));
                        }
                        Err(e) => {
                            est.failure = Some((id, e.to_string()));
                        }
                    }
                }
                ExecSite::Undecided => {}
            }

            // Data crossing the MPC frontier pays sharing / opening costs.
            if node.site.is_mpc() {
                for (idx, &input) in node.inputs.iter().enumerate() {
                    let parent = plan.dag.node(input)?;
                    if parent.site.is_cleartext() {
                        let stats = self
                            .mpc
                            .estimate_input(in_rows[idx], parent.schema.len() as u64);
                        est.mpc_time += stats.simulated_time;
                    }
                }
            } else if node.site.is_cleartext() {
                for (idx, &input) in node.inputs.iter().enumerate() {
                    let parent = plan.dag.node(input)?;
                    if parent.site.is_mpc() {
                        let stats = self
                            .mpc
                            .estimate_open(in_rows[idx], parent.schema.len() as u64);
                        est.mpc_time += stats.simulated_time;
                    }
                }
            }
        }
        // Fixed per-job overheads: one MPC session plus (for the parallel
        // backend) one cluster job per party that does local work.
        if mpc_jobs > 0 {
            est.mpc_time += Duration::from_secs_f64(self.config.mpc.ss_cost.job_overhead);
        }
        if self.config.local_backend == LocalBackend::Parallel {
            for t in est.local_time.values_mut() {
                *t += Duration::from_secs_f64(self.cluster_cost.job_overhead);
            }
        }
        Ok(est)
    }

    fn local_time(&self, op: &Operator, in_rows: u64, out_rows: u64, row_bytes: u64) -> Duration {
        match self.config.local_backend {
            LocalBackend::Parallel => {
                self.cluster_cost
                    .estimate(&self.config.cluster, op, in_rows, out_rows, row_bytes)
            }
            LocalBackend::Sequential => self.sequential_cost.estimate(op, in_rows, out_rows),
        }
    }

    fn mpc_time(
        &self,
        plan: &PhysicalPlan,
        id: NodeId,
        op: &Operator,
        in_rows: &[u64],
        in_cols: &[u64],
        out_rows: u64,
    ) -> MpcResult<(Duration, Duration)> {
        let cols = in_cols.iter().copied().max().unwrap_or(1);
        match op {
            Operator::HybridJoin { .. } => {
                let stats = self.mpc.estimate_hybrid_join(
                    in_rows.first().copied().unwrap_or(0),
                    in_rows.get(1).copied().unwrap_or(0),
                    out_rows,
                    cols,
                );
                // STP cleartext join over the revealed key columns.
                let stp = self.sequential_cost.estimate(
                    &Operator::Join {
                        left_keys: vec!["k".into()],
                        right_keys: vec!["k".into()],
                        kind: conclave_ir::ops::JoinKind::Inner,
                    },
                    in_rows.iter().sum(),
                    out_rows,
                );
                Ok((stats.simulated_time, stp))
            }
            Operator::PublicJoin { .. } => {
                let stats = self
                    .mpc
                    .estimate_public_join(in_rows.iter().sum(), out_rows);
                let stp = self.local_time(
                    &Operator::Join {
                        left_keys: vec!["k".into()],
                        right_keys: vec!["k".into()],
                        kind: conclave_ir::ops::JoinKind::Inner,
                    },
                    in_rows.iter().sum(),
                    out_rows,
                    16,
                );
                Ok((stats.simulated_time, stp))
            }
            Operator::HybridAggregate { .. } => {
                let n = in_rows.iter().sum();
                let stats = self.mpc.estimate_hybrid_aggregate(n, out_rows, cols);
                let stp = self.sequential_cost.estimate(
                    &Operator::SortBy {
                        column: "k".into(),
                        ascending: true,
                    },
                    n,
                    n,
                );
                Ok((stats.simulated_time, stp))
            }
            // Sort-elimination pay-off: a pre-sorted MPC aggregation skips the
            // oblivious sort and costs only the linear accumulation scan.
            Operator::Aggregate { group_by, .. }
                if self.config.use_sort_elimination
                    && !group_by.is_empty()
                    && plan
                        .dag
                        .node(id)
                        .ok()
                        .and_then(|n| n.inputs.first().copied())
                        .and_then(|i| plan.dag.node(i).ok())
                        .map(|n| n.sorted_by.as_deref() == group_by.first().map(|s| s.as_str()))
                        .unwrap_or(false) =>
            {
                let stats =
                    self.mpc
                        .estimate_presorted_aggregate(in_rows.iter().sum(), cols, out_rows);
                Ok((stats.simulated_time, Duration::ZERO))
            }
            // Division under the secret-sharing backend: charged as an
            // oblivious fixed-point division, as the driver charges it.
            Operator::Divide { .. } if self.config.mpc.kind.is_secret_sharing() => {
                let stats = self.mpc.estimate_divide(in_rows.iter().sum());
                Ok((stats.simulated_time, Duration::ZERO))
            }
            _ => {
                let stats = self.mpc.estimate_op(op, in_rows, in_cols, out_rows)?;
                Ok((stats.simulated_time, Duration::ZERO))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::DataType;

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
        let proj = q.project(taxi, &["companyID", "price"]);
        let rev = q.aggregate(proj, "local_rev", AggFunc::Sum, &["companyID"], "price");
        q.collect(rev, &[pa]);
        q.build().unwrap()
    }

    fn inputs(n: u64) -> HashMap<String, u64> {
        let mut m = HashMap::new();
        m.insert("inputA".to_string(), n / 3);
        m.insert("inputB".to_string(), n / 3);
        m.insert("inputC".to_string(), n - 2 * (n / 3));
        m
    }

    fn stats() -> WorkloadStats {
        WorkloadStats {
            max_groups: Some(12),
            ..Default::default()
        }
    }

    #[test]
    fn conclave_scales_where_mpc_only_does_not() {
        // Figure 4's shape: at 100 k records the MPC-only plan already takes
        // hours, while Conclave stays in the minutes range even at 100 M.
        let query = market_query();
        let conclave_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mpc_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let conclave = CardinalityEstimator::new(ConclaveConfig::standard(), stats());
        let mpc_only = CardinalityEstimator::new(ConclaveConfig::mpc_only(), stats());

        let c_100m = conclave
            .estimate(&conclave_plan, &inputs(100_000_000))
            .unwrap();
        assert!(!c_100m.failed());
        assert!(
            c_100m.total_time().as_secs_f64() < 1_800.0,
            "Conclave at 100 M rows should stay under 30 min, got {:.0} s",
            c_100m.total_time().as_secs_f64()
        );

        let m_100k = mpc_only.estimate(&mpc_plan, &inputs(100_000)).unwrap();
        assert!(
            m_100k.total_time().as_secs_f64() > 900.0,
            "MPC-only at 100 k rows should be far beyond Figure 4's plotted range, got {:.0} s",
            m_100k.total_time().as_secs_f64()
        );
        let m_1m = mpc_only.estimate(&mpc_plan, &inputs(1_000_000)).unwrap();
        assert!(
            m_1m.total_time().as_secs_f64() > 2.0 * 3_600.0,
            "MPC-only at 1 M rows should exceed the two-hour cutoff, got {:.0} s",
            m_1m.total_time().as_secs_f64()
        );
        // And the gap at the same size is enormous.
        let c_100k = conclave.estimate(&conclave_plan, &inputs(100_000)).unwrap();
        assert!(m_100k.total_time() > c_100k.total_time() * 10);
    }

    #[test]
    fn estimates_grow_monotonically_with_input_size() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let est = CardinalityEstimator::new(ConclaveConfig::standard(), stats());
        let mut last = Duration::ZERO;
        for n in [1_000u64, 100_000, 10_000_000, 1_000_000_000] {
            let e = est.estimate(&plan, &inputs(n)).unwrap();
            assert!(e.total_time() >= last, "estimate should grow with n");
            last = e.total_time();
        }
        // Even at 1 B rows the Conclave plan finishes within ~20 minutes
        // (Figure 4's headline result).
        assert!(
            last.as_secs_f64() < 2_400.0,
            "1 B rows should stay under ~40 min, got {:.0} s",
            last.as_secs_f64()
        );
    }

    #[test]
    fn hybrid_credit_plan_beats_mpc_only_estimate() {
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
        let query = q.build().unwrap();

        let mut rows = HashMap::new();
        rows.insert("demographics".to_string(), 100_000u64);
        rows.insert("scores1".to_string(), 50_000);
        rows.insert("scores2".to_string(), 50_000);

        let wstats = WorkloadStats {
            max_groups: Some(100),
            ..Default::default()
        };
        let hybrid_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mpc_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let hybrid = CardinalityEstimator::new(ConclaveConfig::standard(), wstats)
            .estimate(&hybrid_plan, &rows)
            .unwrap();
        let full = CardinalityEstimator::new(ConclaveConfig::mpc_only(), wstats)
            .estimate(&mpc_plan, &rows)
            .unwrap();
        assert!(
            hybrid.total_time() * 5 < full.total_time(),
            "hybrid {:.0} s vs full MPC {:.0} s",
            hybrid.total_time().as_secs_f64(),
            full.total_time().as_secs_f64()
        );
    }

    #[test]
    fn garbled_backend_reports_oom_at_scale() {
        let query = market_query();
        let config =
            ConclaveConfig::mpc_only().with_mpc(conclave_mpc::backend::MpcBackendConfig::obliv_c());
        let plan = compile(&query, &config).unwrap();
        let est = CardinalityEstimator::new(config, stats());
        let e = est.estimate(&plan, &inputs(10_000_000)).unwrap();
        assert!(e.failed(), "10 M rows should exceed the GC memory limit");
        assert!(e.failure.as_ref().unwrap().1.contains("memory"));
    }

    #[test]
    fn workload_stats_group_cap() {
        let s = WorkloadStats {
            distinct_key_ratio: 0.5,
            max_groups: Some(10),
            ..Default::default()
        };
        assert_eq!(s.groups_for(1_000), 10);
        let s2 = WorkloadStats {
            distinct_key_ratio: 0.5,
            max_groups: None,
            ..Default::default()
        };
        assert_eq!(s2.groups_for(1_000), 500);
        assert_eq!(s2.groups_for(0), 1);
    }
}

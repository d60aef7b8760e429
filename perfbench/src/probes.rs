//! Layer probes for the traced run: each one calls a single crate's public
//! functions from the benchmark's own code and times it with the wall clock.

use crate::stats::median;
use crate::Metrics;
use conclave_core::config::PartyRuntime;
use conclave_core::hybrid_exec::{hybrid_aggregate, hybrid_join};
use conclave_core::party_exec::{execute_op_distributed, op_is_party_capable};
use conclave_core::plan::PhysicalPlan;
use conclave_engine::{sequential_executor, EngineMode, Table};
use conclave_ir::ops::Operator;
use conclave_mpc::dealer::{generate_blocks, MaterialBlocks, MaterialSpec};
use conclave_mpc::{AuthShare, MpcBackendConfig, MpcEngine, PartyResult, PartySession};
use conclave_net::{ChannelTransport, MessageKind, TcpTransport, Transport};
use std::collections::HashMap;
use std::time::Instant;

/// The MPC operators whose per-step cost is reported
/// (`mpc.step.<op>.{ms,rounds,bytes}`): every party-run node of the four
/// workloads' plans is one of these.
pub const STEP_OPS: [&str; 5] = ["concat", "filter", "multiply", "project", "aggregate"];

/// Timing repetitions per probe: at most this many, and no new repetition
/// once a probe has spent a second.
const REPS: usize = 3;

fn timed_reps<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let budget = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if times.len() >= REPS || budget.elapsed().as_secs_f64() > 1.0 {
            return (times, out);
        }
    }
}

/// Evaluates the plan node by node on cleartext inputs. Each MPC-sited node
/// the party runtime runs is executed alone through
/// `execute_op_distributed` on its cleartext inputs, each hybrid node alone
/// through `hybrid_join` / `hybrid_aggregate`; the rest runs on the
/// sequential cleartext engine. Emits `mpc.step.*` and `hybrid.*`.
pub fn plan_steps(
    plan: &PhysicalPlan,
    bindings: &HashMap<String, Table>,
    mpc: MpcBackendConfig,
    runtime: PartyRuntime,
    engine_mode: EngineMode,
    m: &mut Metrics,
) -> Result<(), String> {
    let exec = sequential_executor(engine_mode);
    let parties = mpc.kind.parties();
    let mut results: HashMap<usize, Table> = HashMap::new();
    let (mut join_ms, mut agg_ms) = (0.0, 0.0);
    let mut steps: HashMap<&'static str, [f64; 3]> = HashMap::new();
    for id in plan.dag.topo_order().map_err(|e| e.to_string())? {
        let node = plan.dag.node(id).map_err(|e| e.to_string())?;
        let inputs: Vec<&Table> = node.inputs.iter().map(|i| &results[i]).collect();
        let table = match &node.op {
            Operator::Input { name, .. } => bindings
                .get(name)
                .cloned()
                .ok_or_else(|| format!("input `{name}` is not bound"))?,
            Operator::Collect { .. } => inputs[0].clone(),
            Operator::HybridJoin {
                left_keys,
                right_keys,
                stp,
            } => {
                let (times, out) = timed_reps(|| {
                    hybrid_join(
                        &mut MpcEngine::new(mpc),
                        &*exec,
                        inputs[0],
                        inputs[1],
                        left_keys,
                        right_keys,
                        *stp,
                    )
                });
                join_ms += median(&times);
                out.map_err(|e| e.to_string())?.result
            }
            Operator::HybridAggregate {
                group_by,
                func,
                over,
                out,
                stp,
            } => {
                let (times, res) = timed_reps(|| {
                    hybrid_aggregate(
                        &mut MpcEngine::new(mpc),
                        &*exec,
                        inputs[0],
                        group_by,
                        *func,
                        over.as_deref(),
                        out,
                        *stp,
                    )
                });
                agg_ms += median(&times);
                res.map_err(|e| e.to_string())?.result
            }
            op if node.site.is_mpc() && op_is_party_capable(op) => {
                let (times, out) = timed_reps(|| {
                    execute_op_distributed(op, &inputs, parties, mpc.seed, runtime, false)
                });
                let out = out.map_err(|e| e.to_string())?;
                match STEP_OPS.iter().find(|n| **n == op.name()) {
                    Some(name) => {
                        let acc = steps.entry(name).or_default();
                        acc[0] += median(&times);
                        acc[1] += out.net.rounds as f64;
                        acc[2] += out.net.total_bytes() as f64;
                    }
                    None => eprintln!("MPC step `{}` has no metric; not reported", op.name()),
                }
                Table::from_rows(out.relation)
            }
            op => exec.execute(op, &inputs).map_err(|e| e.to_string())?,
        };
        results.insert(id, table);
    }
    for op in STEP_OPS {
        let [ms, rounds, bytes] = steps.get(op).copied().unwrap_or_default();
        m.put(&format!("mpc.step.{op}.ms"), ms, "ms");
        m.put(&format!("mpc.step.{op}.rounds"), rounds, "count");
        m.put(&format!("mpc.step.{op}.bytes"), bytes, "bytes");
    }
    m.put("hybrid.join_ms", join_ms, "ms");
    m.put("hybrid.aggregate_ms", agg_ms, "ms");
    Ok(())
}

/// Pairs per batch for the runtime probes.
const PAIRS: usize = 20_000;
/// One-pair `lt` calls timed for `mpc.lt_single_us`.
const SINGLE_LTS: usize = 100;

/// Party 0's wall time for each runtime call, in ms.
struct RuntimeTimes {
    lt_batch: f64,
    mul_batch: f64,
    check_integrity: f64,
    lt_single: Vec<f64>,
}

fn runtime_program(sess: &mut PartySession, seed: u64) -> PartyResult<RuntimeTimes> {
    let mut rng = crate::gen::Rng::new(seed, "runtime-probe");
    let xs: Vec<i64> = (0..PAIRS).map(|_| rng.range(-1 << 20, 1 << 20)).collect();
    let ys: Vec<i64> = (0..PAIRS).map(|_| rng.range(-1 << 20, 1 << 20)).collect();
    let mut proto = sess.step(0);
    let own0 = proto.party() == 0;
    let own1 = proto.party() == 1;
    let sx = proto.input_column(0, own0.then_some(xs.as_slice()), PAIRS)?;
    let sy = proto.input_column(1, own1.then_some(ys.as_slice()), PAIRS)?;
    let pairs: Vec<(AuthShare, AuthShare)> = sx.iter().copied().zip(sy.iter().copied()).collect();
    let t0 = Instant::now();
    let lts = proto.lt_batch(&pairs)?;
    let lt_batch = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let prods = proto.mul_batch(&pairs)?;
    let mul_batch = t0.elapsed().as_secs_f64() * 1e3;
    let mut lt_single = Vec::with_capacity(SINGLE_LTS);
    for &(x, y) in pairs.iter().take(SINGLE_LTS) {
        let t0 = Instant::now();
        proto.lt(x, y)?;
        lt_single.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let opened_lt = proto.open_column(&lts)?;
    let opened_mul = proto.open_column(&prods)?;
    let t0 = Instant::now();
    proto.session().check_integrity()?;
    let check_integrity = t0.elapsed().as_secs_f64() * 1e3;
    let correct = (0..PAIRS).all(|i| {
        opened_lt[i] == i64::from(xs[i] < ys[i]) && opened_mul[i] == xs[i].wrapping_mul(ys[i])
    });
    if !correct {
        return Err(conclave_mpc::PartyError::Proto(
            "runtime probe opened a wrong value".into(),
        ));
    }
    Ok(RuntimeTimes {
        lt_batch,
        mul_batch,
        check_integrity,
        lt_single,
    })
}

/// `mpc.lt_batch_ms`, `mpc.mul_batch_ms`, `mpc.check_integrity_ms` at
/// 20,000 pairs and `mpc.lt_single_us`, on a 3-party channel mesh with
/// MACed shares.
pub fn runtime(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let mut runs = Vec::new();
    for rep in 0..REPS as u64 {
        let mesh = ChannelTransport::mesh(3);
        let mut outs: Vec<PartyResult<RuntimeTimes>> = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let mut sess = PartySession::new(&t, seed ^ rep);
                        runtime_program(&mut sess, seed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("runtime probe party panicked"))
                .collect()
        });
        runs.push(outs.swap_remove(0).map_err(|e| e.to_string())?);
    }
    let pick = |f: fn(&RuntimeTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    m.put("mpc.lt_batch_ms", pick(|r| r.lt_batch), "ms");
    m.put("mpc.mul_batch_ms", pick(|r| r.mul_batch), "ms");
    m.put("mpc.check_integrity_ms", pick(|r| r.check_integrity), "ms");
    let singles: Vec<f64> = runs.iter().flat_map(|r| r.lt_single.clone()).collect();
    m.put("mpc.lt_single_us", median(&singles), "us");
    Ok(())
}

/// Median wall time, in µs, of one all-to-all exchange of one word among
/// every endpoint of the mesh, seen from party 0.
fn round_trip_us<T: Transport>(mesh: Vec<T>, rounds: usize) -> Result<f64, String> {
    let mut outs: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                s.spawn(move || {
                    let mut times = Vec::with_capacity(rounds);
                    for r in 0..rounds as u64 {
                        let t0 = Instant::now();
                        t.send_all(MessageKind::Control, "rt", &[r])
                            .map_err(|e| e.to_string())?;
                        for p in (0..t.parties()).filter(|&p| p != t.party()) {
                            let env = t.recv_from(p).map_err(|e| e.to_string())?;
                            if env.payload != [r] {
                                return Err("round-trip probe received a wrong word".to_string());
                            }
                        }
                        times.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("round-trip probe party panicked"))
            .collect()
    });
    let times = outs.swap_remove(0)?;
    for out in outs {
        out?;
    }
    Ok(median(&times))
}

/// Words in the bandwidth probe's payload: 8 MiB.
const BULK_WORDS: usize = 1 << 20;

/// Median MB/s of moving 8 MiB from party 0 to party 1 on one link, each
/// transfer timed from the send until party 1's one-word acknowledgement
/// arrives.
fn bulk_mb_s<T: Transport>(pair: Vec<T>) -> Result<f64, String> {
    let mut ends = pair.into_iter();
    let (Some(sender), Some(receiver)) = (ends.next(), ends.next()) else {
        return Err("bandwidth probe needs two endpoints".into());
    };
    std::thread::scope(|s| {
        let acks = s.spawn(move || -> Result<(), String> {
            for _ in 0..REPS {
                let env = receiver.recv_from(0).map_err(|e| e.to_string())?;
                if env.payload.len() != BULK_WORDS {
                    return Err("bandwidth probe received a short payload".into());
                }
                receiver
                    .send_to(0, MessageKind::Control, "ack", &[1])
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let payload: Vec<u64> = (0..BULK_WORDS as u64).collect();
        let mut rates = Vec::with_capacity(REPS);
        let mut sent = || -> Result<(), String> {
            for _ in 0..REPS {
                let t0 = Instant::now();
                sender
                    .send_to(1, MessageKind::SecretShare, "bulk", &payload)
                    .map_err(|e| e.to_string())?;
                sender.recv_from(1).map_err(|e| e.to_string())?;
                rates.push((BULK_WORDS * 8) as f64 / 1e6 / t0.elapsed().as_secs_f64());
            }
            Ok(())
        };
        let sent = sent();
        let acked = acks.join().expect("bandwidth probe receiver panicked");
        sent.and(acked)?;
        Ok(median(&rates))
    })
}

/// `net.{channel,tcp}.round_trip_us` (3 endpoints) and
/// `net.{channel,tcp}.mb_s` (one link, 8 MiB).
pub fn net(m: &mut Metrics) -> Result<(), String> {
    let tcp = |n| TcpTransport::localhost_mesh(n).map_err(|e| e.to_string());
    m.put(
        "net.channel.round_trip_us",
        round_trip_us(ChannelTransport::mesh(3), 2000)?,
        "us",
    );
    m.put("net.tcp.round_trip_us", round_trip_us(tcp(3)?, 500)?, "us");
    m.put(
        "net.channel.mb_s",
        bulk_mb_s(ChannelTransport::mesh(2))?,
        "MB/s",
    );
    m.put("net.tcp.mb_s", bulk_mb_s(tcp(2)?)?, "MB/s");
    Ok(())
}

/// Payload bytes of one dealt bundle (every party's blocks), counting each
/// ring element and bit word as 8 bytes.
pub fn bundle_bytes(bundle: &[MaterialBlocks]) -> u64 {
    let share = 16u64;
    bundle
        .iter()
        .map(|b| {
            8 + b.triples.len() as u64 * 3 * share
                + b.bit_triples.len() as u64 * 24
                + b.shared_bits.len() as u64 * (8 + share)
                + b.dabits
                    .iter()
                    .map(|(_, s)| 8 + s.len() as u64 * share)
                    .sum::<u64>()
                + b.input_masks
                    .iter()
                    .flatten()
                    .map(|mask| share + if mask.clear.is_some() { 8 } else { 0 })
                    .sum::<u64>()
        })
        .sum()
}

/// `dealer.bundle_ms` and `dealer.bundle_bytes`: dealing one 3-party bundle
/// of `spec`.
pub fn dealer(seed: u64, spec: MaterialSpec, m: &mut Metrics) {
    let (times, bundle) = timed_reps(|| generate_blocks(seed, 3, spec));
    m.put("dealer.bundle_ms", median(&times), "ms");
    m.put("dealer.bundle_bytes", bundle_bytes(&bundle) as f64, "bytes");
}

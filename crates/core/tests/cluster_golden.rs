//! Golden cluster fixture: what the aggregator's fan-out answered, and what
//! it did to the fault plan, the leaf health and the counters, frozen as
//! data.
//!
//! `fixtures/cluster-fault-golden-v1.txt` was generated while
//! `ClusterSystem` still called its leaves one after another, drawing each
//! shard's fault decisions right before that shard's leaf call. The fan-out
//! now draws every decision first and runs the serving leaves as pool
//! tasks; it must still reproduce the file byte for byte, whatever the
//! aggregator's pool size (the CI chaos gate runs this suite at
//! `REIS_SCHED_WORKERS` 1 and 4).
//!
//! The scenario set crosses flat and IVF deployments, replication 1 and 2,
//! and four seeded fault scenarios — healthy, transient churn, transient
//! churn plus a single kill, and a whole-group kill — under a seeded skew
//! model with hedging armed. Halfway through each sequence every down leaf
//! rejoins. Each query line records the ids and raw distances, the three
//! modelled latencies, the hedges launched, the coverage bits, the down
//! leaves, every leaf's consumed fault-plan calls and the running retry and
//! failover counters.
//!
//! A diff means the fan-out no longer does what it used to. Regenerate
//! (`REIS_REGEN_FIXTURES=1 cargo test -p reis-core --test cluster_golden`)
//! only for an intended change of the aggregator's behaviour, and say so in
//! the PR.

use std::fmt::Write as _;
use std::path::PathBuf;

use reis_cluster::{
    ClusterSearchOutcome, ClusterSystem, FaultPlan, HedgePolicy, LatencyModel, RetryPolicy,
};
use reis_core::{CounterId, ReisConfig, ReisSystem};
use reis_nand::Nanos;
use reis_workloads::FaultScenario;

/// The fan-out hands `&mut ReisSystem` borrows to pool tasks.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ReisSystem>();
};

const DIM: usize = 32;
const ENTRIES: usize = 48;
const SHARDS: usize = 3;
const NLIST: usize = 4;
const NPROBE: usize = 2;
const QUERIES: u32 = 16;
/// Every down leaf rejoins before this query.
const REJOIN_AT: u32 = 8;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cluster-fault-golden-v1.txt")
}

fn vector_for(id: u32, salt: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| {
            let x = (id as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(d as u64 * 0x85EB_CA6B)
                .wrapping_add(salt.wrapping_mul(0xC2B2_AE35));
            ((x >> 7) % 23) as f32 - 11.0
        })
        .collect()
}

/// The four scenarios for a cluster of `SHARDS × replication` leaves. The
/// group kill takes shard 1's primary down at its fourth call and every
/// other replica of the group at its first, so the shard is lost before the
/// rejoin at either replication.
fn scenarios(replication: usize) -> Vec<FaultScenario> {
    let mut group_kill = FaultScenario::transient(0x6A0F, 0, 0).with_kill(replication, 3);
    for leaf in replication + 1..2 * replication {
        group_kill = group_kill.with_kill(leaf, 0);
    }
    vec![
        FaultScenario::healthy(),
        FaultScenario::transient(0x5EED_0001, 150_000, 80_000),
        FaultScenario::transient(0x5EED_0002, 50_000, 25_000).with_kill(0, 2),
        group_kill,
    ]
}

fn plan_for(scenario: &FaultScenario) -> FaultPlan {
    let mut plan = FaultPlan::new(scenario.seed, scenario.fail_ppm, scenario.timeout_ppm);
    for &(leaf, nth_call) in &scenario.kills {
        plan = plan.with_kill(leaf, nth_call);
    }
    plan
}

fn render(name: &str, q: u32, cluster: &ClusterSystem, o: &ClusterSearchOutcome) -> String {
    let ids: Vec<usize> = o.results.iter().map(|n| n.id).collect();
    let raw: Vec<i64> = o.results.iter().map(|n| n.distance as i64).collect();
    let cov: String = (0..cluster.num_shards())
        .map(|shard| {
            if o.shard_coverage.covered(shard) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    let plan = cluster
        .fault_plan()
        .expect("every scenario runs under a plan");
    let calls: Vec<u64> = (0..cluster.num_leaves())
        .map(|leaf| plan.calls_consumed(leaf))
        .collect();
    let telemetry = cluster.telemetry();
    let mut line = String::new();
    write!(
        line,
        "{name} q{q} ids={ids:?} raw={raw:?} latency={} fanout={} doc={} hedges={} cov={cov} \
         down={:?} calls={calls:?} retries={} failovers={}",
        o.latency.as_nanos(),
        o.fanout_latency.as_nanos(),
        o.document_latency.as_nanos(),
        o.hedges_launched,
        cluster.down_leaves(),
        telemetry.counter(CounterId::LeafRetries),
        telemetry.counter(CounterId::LeafFailovers),
    )
    .unwrap();
    line
}

/// Run every scenario and render the fixture document.
fn document() -> String {
    let vectors: Vec<Vec<f32>> = (0..ENTRIES as u32).map(|id| vector_for(id, 0)).collect();
    let documents: Vec<Vec<u8>> = (0..ENTRIES)
        .map(|id| format!("cluster golden doc {id}").into_bytes())
        .collect();
    let mut document = String::new();
    for (ivf, corpus_name) in [(false, "flat"), (true, "ivf")] {
        for replication in [1usize, 2] {
            for (s, scenario) in scenarios(replication).iter().enumerate() {
                let name = format!("{corpus_name}/r{replication}/s{s}");
                let mut cluster =
                    ClusterSystem::new_replicated(ReisConfig::tiny(), SHARDS, replication)
                        .expect("cluster")
                        .with_latency_model(LatencyModel::new(0xC1A5 + s as u64, 0, 400_000))
                        .with_hedging(Some(HedgePolicy::new(Nanos::from_micros(200))))
                        .with_fault_plan(Some(plan_for(scenario)))
                        .with_retry_policy(RetryPolicy::new(
                            1,
                            Nanos::from_micros(40),
                            Nanos::from_micros(900),
                        ));
                cluster.enable_telemetry();
                if ivf {
                    cluster.deploy_ivf(&vectors, &documents, NLIST)
                } else {
                    cluster.deploy_flat(&vectors, &documents)
                }
                .expect("deploy");
                for q in 0..QUERIES {
                    if q == REJOIN_AT {
                        let down = cluster.down_leaves();
                        for &leaf in &down {
                            cluster.rejoin_leaf(leaf).expect("rejoin");
                        }
                        writeln!(document, "{name} rejoin {down:?}").unwrap();
                    }
                    let query = vector_for(3_000 + q, 17);
                    let outcome = if ivf {
                        cluster.ivf_search_with_nprobe(&query, 5, NPROBE)
                    } else {
                        cluster.search(&query, 5)
                    }
                    .expect("search");
                    document.push_str(&render(&name, q, &cluster, &outcome));
                    document.push('\n');
                }
            }
        }
    }
    document
}

#[test]
fn cluster_fan_out_reproduces_the_golden_fault_fixture() {
    let document = document();
    let path = fixture_path();
    if std::env::var("REIS_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &document).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — regenerate with REIS_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        committed, document,
        "cluster fan-out drifted from the golden fixture"
    );
}

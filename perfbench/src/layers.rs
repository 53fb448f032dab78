//! The traced replay and the per-layer metrics.
//!
//! A replay sends one request again through the public functions that
//! `serve::run_job` calls, in the same order, each call a child span of the
//! replay: request codec, admission, catalog lookup and clone, the miner
//! entry point (metered into a per-job registry), rendering, and the keyed
//! response channel.

use crate::stats::{histogram_percentile, median_or_zero};
use crate::trace::Tracer;
use fpdm::core::ParallelConfig;
use fpdm::loadgen::{Arrival, SimConfig, KINDS, KIND_LABELS};
use fpdm::plinda::metrics::{HistogramValue, MetricsSnapshot};
use fpdm::plinda::{Chan, KeyedChan, MetricsRegistry, TupleSpace};
use fpdm::service::{Admission, DatasetCatalog, MiningRequest, ServiceConfig, Verdict};
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per menu entry (the first ones of the traced pass).
pub const REPLAY_PER_ENTRY: usize = 10;

/// Where a replay runs.
pub struct ReplayCtx<'a> {
    /// The resident datasets.
    pub catalog: &'a DatasetCatalog,
    /// The space the response round trip crosses (the service's warm space).
    pub chan_space: Arc<TupleSpace>,
    /// A socket space for the job farm (shared plane), or `None` for a
    /// private in-process space per job.
    pub farm_space: Option<Arc<TupleSpace>>,
}

/// The layer calls of one replayed request, in nanoseconds.
#[derive(Debug)]
pub struct Replayed {
    /// Menu index.
    pub menu: usize,
    /// Request kind label.
    pub kind: &'static str,
    /// The replay's root span.
    pub root: u64,
    /// `MiningRequest::encode` + `decode`.
    pub codec_ns: u64,
    /// Catalog lookup and clone.
    pub catalog_ns: u64,
    /// Miner entry point.
    pub miner_ns: u64,
    /// `format!("{:?}")`.
    pub render_ns: u64,
    /// Bytes the catalog step copied.
    pub clone_bytes: u64,
    /// The rendered answer.
    pub payload: Vec<u8>,
    /// The job's farm ledger (farm kinds only).
    pub job: Option<MetricsSnapshot>,
}

fn timed<R>(
    tr: &Tracer,
    name: &'static str,
    root: u64,
    req: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    tr.record(name, Some(root), req, t0, t1);
    (r, (t1 - t0).as_nanos() as u64)
}

/// Heap bytes of a cloned sequence set: the residues plus one vector
/// header per sequence.
fn sequence_bytes(seqs: &[fpdm::seqmine::Sequence]) -> u64 {
    seqs.iter().map(|s| s.0.len() as u64 + 24).sum()
}

/// Heap bytes of a cloned tree set: per node a label byte, a child-list
/// header and one child index (every node but the root is a child), plus
/// the two per-tree vector headers.
fn tree_bytes(trees: &[fpdm::treemine::OrderedTree]) -> u64 {
    trees
        .iter()
        .map(|t| {
            let n = t.len() as u64;
            n * (1 + 24) + n.saturating_sub(1) * 8 + 48
        })
        .sum()
}

/// Replay request `req` (traced-pass index `req_id`, menu index `menu`).
pub fn replay(
    tr: &Tracer,
    ctx: &ReplayCtx,
    admission: &mut Admission<()>,
    req_id: u64,
    menu: usize,
    req: &MiningRequest,
) -> Result<Replayed, String> {
    let root = tr.open("replay", None, req_id);
    let (decoded, codec_ns) = timed(tr, "service.request", root, req_id, || {
        MiningRequest::decode(&req.encode())
    });
    let req = decoded?;
    let (verdict, _) = timed(tr, "service.admission", root, req_id, || {
        let v = admission.offer(req_id as i64, ());
        admission.complete();
        v
    });
    if verdict != Verdict::Run(()) {
        return Err(format!("replay admission refused request {req_id}"));
    }

    let workers = ServiceConfig::default().job_workers;
    let job_reg = MetricsRegistry::new();
    let mut cfg = ParallelConfig::load_balanced(workers).with_metrics(job_reg.clone());
    if let Some(space) = &ctx.farm_space {
        cfg = cfg
            .with_space(Arc::clone(space))
            .with_job_tag(format!("bench{req_id}"));
    }
    let cat = ctx.catalog;
    let missing = || format!("unknown dataset {:?}", req.dataset());
    let (kind, catalog_ns, clone_bytes, miner_ns, rendered, farmed) = match &req {
        MiningRequest::Seqmine { dataset, params } => {
            let (seqs, c) = timed(tr, "service.catalog", root, req_id, || {
                cat.sequences(dataset).map(|s| s.as_ref().clone())
            });
            let seqs = seqs.ok_or_else(missing)?;
            let bytes = sequence_bytes(&seqs);
            let (out, m) = timed(tr, "seqmine", root, req_id, || {
                fpdm::seqmine::discover::discover_farm(seqs, params.clone(), &cfg)
            });
            ("seqmine", c, bytes, m, render(tr, root, req_id, &out), true)
        }
        MiningRequest::Treemine { dataset, params } => {
            let (trees, c) = timed(tr, "service.catalog", root, req_id, || {
                cat.trees(dataset).map(|t| t.as_ref().clone())
            });
            let trees = trees.ok_or_else(missing)?;
            let bytes = tree_bytes(&trees);
            let (out, m) = timed(tr, "treemine", root, req_id, || {
                fpdm::treemine::discover::discover_tree_motifs_farm(trees, params.clone(), &cfg)
            });
            (
                "treemine",
                c,
                bytes,
                m,
                render(tr, root, req_id, &out),
                true,
            )
        }
        MiningRequest::Episodes { dataset, params } => {
            let (events, c) = timed(tr, "service.catalog", root, req_id, || {
                cat.events(dataset).cloned()
            });
            let events = events.ok_or_else(missing)?;
            let (out, m) = timed(tr, "episodes", root, req_id, || {
                fpdm::episodes::discover_episodes_farm(&events, params.clone(), &cfg)
            });
            ("episodes", c, 0, m, render(tr, root, req_id, &out), true)
        }
        MiningRequest::Classify { dataset, rule, .. } => {
            let reg = MetricsRegistry::new();
            let (entry, c) = timed(tr, "service.catalog", root, req_id, || {
                cat.table(dataset)
                    .map(|e| (Arc::clone(e.data()), e.index(&reg)))
            });
            let (data, index) = entry.ok_or_else(missing)?;
            let grow = req.grow_config().expect("classify carries grow knobs");
            let (out, m) = timed(tr, "classify", root, req_id, || {
                let rows: Vec<usize> = (0..data.len()).collect();
                fpdm::classify::DecisionTree::grow_indexed(
                    &data,
                    &index,
                    &rows,
                    &rule.grow_rule(),
                    &grow,
                )
            });
            ("classify", c, 0, m, render(tr, root, req_id, &out), false)
        }
        MiningRequest::Apriori {
            dataset,
            min_support,
        } => {
            let (db, c) = timed(tr, "service.catalog", root, req_id, || {
                cat.baskets(dataset).cloned()
            });
            let db = db.ok_or_else(missing)?;
            let (out, m) = timed(tr, "assoc", root, req_id, || {
                fpdm::assoc::apriori(&db, *min_support)
            });
            ("apriori", c, 0, m, render(tr, root, req_id, &out), false)
        }
    };
    let (payload, render_ns) = rendered;
    let responses = KeyedChan::<(i64, Vec<u8>)>::new("bench.replay.response");
    let (echo, _) = timed(tr, "plinda.channel", root, req_id, || {
        responses.send_to(&ctx.chan_space, req_id as i64, &(0, payload.clone()));
        responses.recv_for(&ctx.chan_space, req_id as i64)
    });
    tr.close(root);
    if echo.1 != payload {
        return Err("replay response channel corrupted the payload".into());
    }
    Ok(Replayed {
        menu,
        kind,
        root,
        codec_ns,
        catalog_ns,
        miner_ns,
        render_ns,
        clone_bytes,
        payload,
        job: farmed.then(|| job_reg.snapshot()),
    })
}

fn render<T: Debug>(tr: &Tracer, root: u64, req: u64, value: &T) -> (Vec<u8>, u64) {
    timed(tr, "service.serve", root, req, || {
        format!("{value:?}").into_bytes()
    })
}

/// Per-layer metric values, by name.
pub type Layers = Vec<(&'static str, f64)>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Counter sums of a farm ledger: tasks, busy, blocked and wall time over
/// every worker.
fn farm_sums(snap: &MetricsSnapshot) -> [u64; 4] {
    let sum = |suffix: &str| {
        snap.sum_counters(|k| {
            k.starts_with("farm.") && k.contains(".worker.") && k.ends_with(suffix)
        })
    };
    [
        sum(".tasks"),
        sum(".busy_ns"),
        sum(".blocked_ns"),
        sum(".wall_ns"),
    ]
}

/// Farm-layer metrics over a set of per-job ledgers: `farm.busy_ratio`,
/// `farm.blocked_ms_per_job` and `farm.overhead_us_per_task`.
pub fn farm_metrics(jobs: &[&MetricsSnapshot]) -> Layers {
    let mut tot = [0u64; 4];
    for j in jobs {
        for (t, v) in tot.iter_mut().zip(farm_sums(j)) {
            *t += v;
        }
    }
    let [tasks, busy, blocked, wall] = tot;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    vec![
        ("farm.busy_ratio", per(busy as f64, wall)),
        (
            "farm.blocked_ms_per_job",
            per(ms(blocked), jobs.len() as u64),
        ),
        (
            "farm.overhead_us_per_task",
            per(wall.saturating_sub(busy) as f64 / 1e3, tasks),
        ),
    ]
}

/// Farm tasks per job for each farm miner.
pub fn tasks_per_job(jobs: &[(&str, &MetricsSnapshot)]) -> Layers {
    ["seqmine", "treemine", "episodes"]
        .iter()
        .map(|&kind| {
            let mine: Vec<f64> = jobs
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, s)| farm_sums(s)[0] as f64)
                .collect();
            let name = match kind {
                "seqmine" => "farm.tasks_per_job.seqmine",
                "treemine" => "farm.tasks_per_job.treemine",
                _ => "farm.tasks_per_job.episodes",
            };
            (name, mean(&mine))
        })
        .collect()
}

/// Transport metrics of jobs whose farms ran over a socket:
/// synchronous exchanges per job, estimated from the ledger as every space
/// operation, less deferred `out`s (which ride in flushes) and less
/// batched takes (which share one exchange per batch); the mean batch
/// occupancy; and deferred `out`s per job. All 0 for in-process farms.
pub fn net_metrics(jobs: &[&MetricsSnapshot], socket: bool) -> Layers {
    if !socket || jobs.is_empty() {
        return vec![
            ("net.round_trips_per_job", 0.0),
            ("net.batch_occupancy_mean", 0.0),
            ("net.deferred_outs_per_job", 0.0),
        ];
    }
    let (mut rt, mut occ_n, mut occ_sum, mut deferred) = (0i64, 0u64, 0u64, 0u64);
    for s in jobs {
        let ops: u64 = ["out", "take", "read", "miss"]
            .iter()
            .map(|o| s.counter(&format!("space.ops.{o}")))
            .sum();
        let occ = s.histogram("net.batch.occupancy");
        let (n, sum) = occ.map_or((0, 0), |h| (h.count, h.sum));
        rt += ops as i64 - s.counter("net.deferred.outs") as i64
            + s.counter("net.deferred.flushes") as i64
            - s.counter("net.batch.ops") as i64
            + n as i64;
        occ_n += n;
        occ_sum += sum;
        deferred += s.counter("net.deferred.outs");
    }
    let jobs_n = jobs.len() as f64;
    vec![
        ("net.round_trips_per_job", rt as f64 / jobs_n),
        (
            "net.batch_occupancy_mean",
            if occ_n == 0 {
                0.0
            } else {
                occ_sum as f64 / occ_n as f64
            },
        ),
        ("net.deferred_outs_per_job", deferred as f64 / jobs_n),
    ]
}

/// Layer metrics of a set of service replays.
pub fn replay_metrics(recs: &[Replayed], socket: bool) -> Layers {
    let of = |kind: &str, f: fn(&Replayed) -> u64| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.kind == kind)
            .map(|r| ms(f(r)))
            .collect()
    };
    let all = |f: fn(&Replayed) -> f64| -> Vec<f64> { recs.iter().map(f).collect() };
    let farm_ms = |kind: &str, here: bool| {
        if here {
            median_or_zero(&of(kind, |r| r.miner_ns))
        } else {
            0.0
        }
    };
    let jobs: Vec<(&str, &MetricsSnapshot)> = recs
        .iter()
        .filter_map(|r| r.job.as_ref().map(|j| (r.kind, j)))
        .collect();
    let ledgers: Vec<&MetricsSnapshot> = jobs.iter().map(|(_, j)| *j).collect();
    let mut out: Layers = vec![
        (
            "request.codec_us",
            median_or_zero(&all(|r| r.codec_ns as f64 / 1e3)),
        ),
        (
            "catalog.clone_ms.seqmine",
            median_or_zero(&of("seqmine", |r| r.catalog_ns)),
        ),
        (
            "catalog.clone_ms.treemine",
            median_or_zero(&of("treemine", |r| r.catalog_ns)),
        ),
        (
            "catalog.clone_mb_per_job",
            mean(&all(|r| r.clone_bytes as f64 / 1e6)),
        ),
        ("render.ms_per_req", mean(&all(|r| ms(r.render_ns)))),
        (
            "render.bytes_per_req",
            mean(&all(|r| r.payload.len() as f64)),
        ),
        ("seqmine.farm_ms.local", farm_ms("seqmine", !socket)),
        ("seqmine.farm_ms.socket", farm_ms("seqmine", socket)),
        ("treemine.farm_ms.local", farm_ms("treemine", !socket)),
        ("treemine.farm_ms.socket", farm_ms("treemine", socket)),
        ("episodes.farm_ms.local", farm_ms("episodes", !socket)),
        ("episodes.farm_ms.socket", farm_ms("episodes", socket)),
    ];
    out.extend(tasks_per_job(&jobs));
    out.extend(farm_metrics(&ledgers));
    out.extend(net_metrics(&ledgers, socket));
    out
}

/// `after - before` for counters and histograms (gauges as of `after`).
pub fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    for (k, v) in d.counters.iter_mut() {
        *v -= before.counter(k);
    }
    for (k, h) in d.histograms.iter_mut() {
        if let Some(b) = before.histogram(k) {
            *h = HistogramValue {
                count: h.count - b.count,
                sum: h.sum - b.sum,
                buckets: h
                    .buckets
                    .iter()
                    .map(|&(i, n)| {
                        let was = b.buckets.iter().find(|(j, _)| *j == i).map_or(0, |x| x.1);
                        (i, n - was)
                    })
                    .collect(),
            };
        }
    }
    d
}

/// Layer metrics from a service ledger, given the client-side latency
/// median and mean: admission queue and shedding, run-time percentiles,
/// index reuse and the request plane's space traffic per submitted
/// request.
pub fn ledger_metrics(
    ledger: &MetricsSnapshot,
    latency_p50_ms: f64,
    latency_mean_ms: f64,
) -> Layers {
    let run = ledger.histogram("service.latency_ns");
    let run_p = |q| run.map_or(0.0, |h| histogram_percentile(h, q) / 1e6);
    let run_mean = run.map_or(0.0, |h| ms(h.sum) / h.count.max(1) as f64);
    let submitted = ledger.counter("service.requests.submitted");
    let hits = ledger.counter("service.index.hits");
    let built = ledger.counter("service.index.built");
    let ops: u64 = ["out", "take", "read", "miss"]
        .iter()
        .map(|o| ledger.counter(&format!("space.ops.{o}")))
        .sum();
    let block_ns = ledger.histogram("space.block_ns").map_or(0, |h| h.sum);
    let per_req = |v: f64| v / submitted.max(1) as f64;
    vec![
        (
            "admission.queue_depth_hi",
            ledger.gauge("service.queue.depth").map_or(0, |g| g.hi) as f64,
        ),
        ("admission.wait_ms_p50", latency_p50_ms - run_p(0.5)),
        ("admission.wait_ms_mean", latency_mean_ms - run_mean),
        (
            "admission.shed_ratio",
            if submitted == 0 {
                0.0
            } else {
                ledger.counter("service.requests.shed") as f64 / submitted as f64
            },
        ),
        ("service.run_ms_p50", run_p(0.5)),
        ("service.run_ms_p99", run_p(0.99)),
        (
            "catalog.index_hit_ratio",
            if hits + built == 0 {
                0.0
            } else {
                hits as f64 / (hits + built) as f64
            },
        ),
        ("space.ops_per_req", per_req(ops as f64)),
        ("space.block_ms_per_req", per_req(ms(block_ns))),
    ]
}

/// Median of `n` empty round trips `Chan::send` → `recv_upto` →
/// `KeyedChan::send_to` → `recv_for` over `space`, in microseconds.
pub fn chan_rtt_us(space: &TupleSpace, n: usize) -> f64 {
    let requests = Chan::<i64>::new("bench.rtt.request");
    let replies = KeyedChan::<i64>::new("bench.rtt.reply");
    let rtts: Vec<f64> = (0..n as i64)
        .map(|i| {
            let t0 = Instant::now();
            requests.send(space, &i);
            for got in requests.recv_upto(space, 16) {
                replies.send_to(space, got, &0);
            }
            replies.recv_for(space, i);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median_or_zero(&rtts)
}

/// Calibrate the loadgen model from outside: per-kind virtual costs set to
/// the measured median service time of each kind (catalog + miner +
/// render), the real service's admission policy, and `arrivals` replayed
/// through `fpdm_loadgen::run`. Returns the per-kind costs in ms and the
/// model's p99 latency in ms.
pub fn calibrate(arrivals: &[Arrival], recs: &[Replayed], seed: u64) -> ([f64; KINDS], f64) {
    let mut cfg = SimConfig {
        admission: ServiceConfig::default().admission,
        seed,
        ..SimConfig::default()
    };
    let mut costs = [0.0; KINDS];
    for (k, label) in KIND_LABELS.iter().enumerate() {
        let own: Vec<f64> = recs
            .iter()
            .filter(|r| r.kind == *label)
            .map(|r| (r.catalog_ns + r.miner_ns + r.render_ns) as f64)
            .collect();
        if !own.is_empty() {
            cfg.cost_ns[k] = median_or_zero(&own) as u64;
        }
        costs[k] = cfg.cost_ns[k] as f64 / 1e6;
    }
    let report = fpdm::loadgen::run(arrivals, &cfg, &MetricsRegistry::new());
    (costs, report.p99_ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(3);
        reg.histogram("h").observe(5);
        let before = reg.snapshot();
        reg.counter("c").add(4);
        reg.histogram("h").observe(6);
        reg.histogram("h").observe(100);
        let d = delta(&reg.snapshot(), &before);
        assert_eq!(d.counter("c"), 4);
        let h = d.histogram("h").unwrap();
        assert_eq!((h.count, h.sum), (2, 106));
    }

    #[test]
    fn chan_round_trip_runs_on_a_local_space() {
        let space = TupleSpace::new();
        assert!(chan_rtt_us(&space, 20) > 0.0);
        assert!(space.is_empty(), "round trips leave no tuples behind");
    }
}

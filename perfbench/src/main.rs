//! `perfbench` — the repository benchmark: the mining service end to end,
//! with a traced per-layer breakdown. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A human-readable
//! report goes to standard error. The exit code is non-zero on any wrong
//! answer, refused request or failed check.

mod drive;
mod inputs;
mod layers;
mod stats;
mod sys;
mod trace;

use drive::{closed_loop, open_loop, Pass, Planned};
use fpdm::plinda::metrics::{check_snapshot, MetricsSnapshot};
use fpdm::plinda::{Broker, BrokerConfig, MetricsRegistry, TupleSpace};
use fpdm::service::{
    Admission, AdmissionConfig, DatasetCatalog, MiningRequest, MiningService, ServiceClient,
    ServiceConfig, Status,
};
use inputs::{Driver, DriverOut, Workload, DRIVERS};
use layers::{Layers, ReplayCtx, Replayed, REPLAY_PER_ENTRY};
use stats::{median, median_or_zero, percentile, sorted, tail};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sys::{ServeChild, SocketPath};
use trace::{attribute, self_times, Tracer};

/// End-to-end metrics and their units (the `end_to_end` list of
/// `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units (the `per_layer` list of
/// `BENCHMARK.json`). A layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("admission.queue_depth_hi", "count"),
    ("admission.wait_ms_p50", "ms"),
    ("admission.wait_ms_mean", "ms"),
    ("admission.shed_ratio", "ratio"),
    ("service.run_ms_p50", "ms"),
    ("service.run_ms_p99", "ms"),
    ("request.codec_us", "us"),
    ("catalog.clone_ms.seqmine", "ms"),
    ("catalog.clone_ms.treemine", "ms"),
    ("catalog.clone_mb_per_job", "MB"),
    ("catalog.index_hit_ratio", "ratio"),
    ("classify.index_build_ms", "ms"),
    ("render.ms_per_req", "ms"),
    ("render.bytes_per_req", "bytes"),
    ("chan.rtt_us.local", "us"),
    ("chan.rtt_us.socket", "us"),
    ("space.ops_per_req", "count"),
    ("space.block_ms_per_req", "ms"),
    ("net.round_trips_per_job", "count"),
    ("net.batch_occupancy_mean", "count"),
    ("net.deferred_outs_per_job", "count"),
    ("farm.tasks_per_job.seqmine", "count"),
    ("farm.tasks_per_job.treemine", "count"),
    ("farm.tasks_per_job.episodes", "count"),
    ("farm.busy_ratio", "ratio"),
    ("farm.blocked_ms_per_job", "ms"),
    ("farm.overhead_us_per_task", "us"),
    ("core.engine_ms.pled", "ms"),
    ("core.engine_ms.plet", "ms"),
    ("core.engine_ms.hybrid", "ms"),
    ("core.engine_ms.wave", "ms"),
    ("core.tested_per_good.pled", "ratio"),
    ("core.tested_per_good.plet", "ratio"),
    ("core.tested_per_good.hybrid", "ratio"),
    ("seqmine.seq_ms", "ms"),
    ("treemine.seq_ms", "ms"),
    ("episodes.seq_ms", "ms"),
    ("assoc.apriori_ms", "ms"),
    ("classify.grow_ms", "ms"),
    ("seqmine.farm_ms.local", "ms"),
    ("seqmine.farm_ms.socket", "ms"),
    ("treemine.farm_ms.local", "ms"),
    ("treemine.farm_ms.socket", "ms"),
    ("episodes.farm_ms.local", "ms"),
    ("episodes.farm_ms.socket", "ms"),
    ("assoc.pear_ms", "ms"),
    ("parmine.cv_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.model_p99_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The traced run fails when its layer spans explain less than this share
/// of the client-side latency of the replayed requests.
const COVERAGE_MIN: f64 = 0.3;

/// The traced serve-mix run is invalid when the open-loop generator sent
/// its p99 request later than this after it was due.
const LAG_P99_MAX_MS: f64 = 20.0;

/// Empty channel round trips per `chan.rtt_us.*` figure.
const RTT_ROUNDS: usize = 200;

/// How long the open loop waits for answers after its last submission.
const DRAIN: Duration = Duration::from_secs(60);

/// Index builds per `classify.index_build_ms` figure.
const INDEX_BUILDS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <serve-mix|serve-broker|serve-large|batch-drivers> \
--seed <n> --seconds <s> --trace <0|1> [--serve-bin <path to fpdm-serve>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        serve_bin: get("--serve-bin").map(PathBuf::from),
    })
}

/// What one run found.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload {
        Workload::BatchDrivers => run_batch(&args, process_start),
        _ => run_service(&args, process_start),
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // Layers this workload never calls read 0.
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in table {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => {
                eprintln!("  {name:<30} {v:>14.4} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => out.problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Run `make` [`SETUP_REPS`] times, retiring all but the last, and return
/// the last with the median set-up time. The first set-up is timed from
/// process start.
fn setups<T>(
    process_start: Instant,
    mut make: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let made = make()?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((made, median(&times)));
        }
        retire(made)?;
    }
    unreachable!("SETUP_REPS is at least 1")
}

/// The system under test of a service workload.
enum Sut {
    /// An in-process service on a local space, private job plane.
    Local {
        service: MiningService,
        space: Arc<TupleSpace>,
        catalog: Arc<DatasetCatalog>,
    },
    /// A child `fpdm-serve` on a shared plane, one connection per client.
    Child {
        child: ServeChild,
        spaces: Vec<Arc<TupleSpace>>,
    },
}

/// Client connections to the child `fpdm-serve`.
const BROKER_CLIENTS: usize = 2;

impl Sut {
    /// Start the service, connect, and send one warm-up request per
    /// dataset of `menu`.
    fn start(w: Workload, menu: &[MiningRequest], serve_bin: Option<&Path>) -> Result<Sut, String> {
        let sut = if w == Workload::ServeBroker {
            let bin = serve_bin.ok_or("serve-broker needs --serve-bin")?;
            let child = ServeChild::spawn(bin)?;
            let spaces = (0..BROKER_CLIENTS)
                .map(|_| {
                    TupleSpace::connect_unix(child.socket())
                        .map(Arc::new)
                        .map_err(|e| format!("connect to fpdm-serve: {e}"))
                })
                .collect::<Result<_, _>>()?;
            Sut::Child { child, spaces }
        } else {
            let catalog = Arc::new(match w {
                Workload::ServeLarge => inputs::large_catalog(),
                _ => inputs::demo_catalog(),
            });
            let space = Arc::new(TupleSpace::new());
            let service = MiningService::start(
                ServiceConfig::default(),
                Arc::clone(&catalog),
                Arc::clone(&space),
            );
            Sut::Local {
                service,
                space,
                catalog,
            }
        };
        // Client id 1 is taken by `fpdm-serve`'s own self-test burst.
        let client = ServiceClient::new(Arc::clone(sut.space(0)), 2);
        for req in inputs::warmups(menu) {
            let r = client.request(0, &req);
            if r.status != Status::Ok {
                return Err(format!("warm-up {} failed: {}", req.kind(), r.text()));
            }
        }
        Ok(sut)
    }

    fn space(&self, i: usize) -> &Arc<TupleSpace> {
        match self {
            Sut::Local { space, .. } => space,
            Sut::Child { spaces, .. } => &spaces[i],
        }
    }

    fn clients(&self) -> usize {
        match self {
            Sut::Local { .. } => 1,
            Sut::Child { spaces, .. } => spaces.len(),
        }
    }

    /// Processes whose CPU and memory count: this one, and the child.
    fn pids(&self) -> Vec<Option<u32>> {
        match self {
            Sut::Local { .. } => vec![None],
            Sut::Child { child, .. } => vec![None, Some(child.pid())],
        }
    }

    /// A mid-run ledger snapshot (in-process service only).
    fn ledger_now(&self) -> Option<MetricsSnapshot> {
        match self {
            Sut::Local { service, .. } => Some(service.registry().snapshot()),
            Sut::Child { .. } => None,
        }
    }

    /// Stop the service and check its final ledger with `check_snapshot`.
    fn finish(self) -> Result<MetricsSnapshot, String> {
        let snap = match self {
            Sut::Local { service, .. } => service.shutdown(),
            Sut::Child { child, spaces } => {
                drop(spaces);
                child.finish()?
            }
        };
        let problems = check_snapshot(&snap);
        if problems.is_empty() {
            Ok(snap)
        } else {
            Err(format!("service ledger fails check_snapshot: {problems:?}"))
        }
    }
}

fn cpu_total(pids: &[Option<u32>]) -> Result<f64, String> {
    pids.iter().map(|&p| sys::cpu_seconds(p)).sum()
}

fn rss_total(pids: &[Option<u32>]) -> Result<f64, String> {
    pids.iter().map(|&p| sys::peak_rss_mb(p)).sum()
}

/// One timed pass with its process accounting.
struct Measured {
    pass: Pass,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The in-process service's ledger over the pass.
    ledger: Option<MetricsSnapshot>,
}

impl Measured {
    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .pass
                .answers
                .iter()
                .map(|a| a.latency().as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Latencies in the order the requests were due.
    fn latencies_in_send_order(&self) -> Vec<f64> {
        let mut by_due: Vec<_> = self.pass.answers.iter().collect();
        by_due.sort_by_key(|a| a.due);
        by_due
            .iter()
            .map(|a| a.latency().as_secs_f64() * 1e3)
            .collect()
    }
}

/// Run one pass of a service workload. `pass_no` keeps request ids of
/// successive passes apart.
fn service_pass(
    sut: &Sut,
    args: &Args,
    menu: &[MiningRequest],
    plan: &[Planned],
    pass_no: u16,
) -> Result<Measured, String> {
    let pids = sut.pids();
    let cpu0 = cpu_total(&pids)?;
    let ledger0 = sut.ledger_now();
    let pass = if args.workload == Workload::ServeMix {
        let client = ServiceClient::new(Arc::clone(sut.space(0)), 10 + pass_no);
        open_loop(sut.space(0), plan, DRAIN, |p| {
            client.submit(p.tenant, &menu[p.menu])
        })
    } else {
        let clients: Vec<ServiceClient> = (0..sut.clients())
            .map(|i| ServiceClient::new(Arc::clone(sut.space(i)), 10 + 4 * pass_no + i as u16))
            .collect();
        closed_loop(
            &clients,
            args.seed,
            menu.len(),
            args.seconds,
            |c, ci, m| c.request(ci as i64, &menu[m]),
            |_, r| (r.status, r.payload),
        )
    };
    let cpu1 = cpu_total(&pids)?;
    let ledger = match (sut.ledger_now(), ledger0) {
        (Some(after), Some(before)) => Some(layers::delta(&after, &before)),
        _ => None,
    };
    Ok(Measured {
        pass,
        cpu_s: cpu1 - cpu0,
        peak_rss_mb: rss_total(&pids)?,
        ledger,
    })
}

/// Sequential references for every menu entry, with the time each took.
fn service_refs(cat: &DatasetCatalog, menu: &[MiningRequest]) -> Vec<(Vec<u8>, f64)> {
    menu.iter()
        .map(|req| {
            let t0 = Instant::now();
            let r = inputs::reference(cat, req);
            (r, t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// Count the answers that are `Ok` with the reference payload, and the
/// requests that are not (shed, error, wrong answer or unanswered), by
/// cause.
fn check_answers(m: &Measured, refs: &[(Vec<u8>, f64)]) -> (usize, usize, String) {
    let (mut shed, mut error, mut wrong) = (0, 0, 0);
    for a in &m.pass.answers {
        match a.status {
            Status::Ok if m.pass.payloads[a.payload] == refs[a.menu].0 => {}
            Status::Ok => wrong += 1,
            Status::Shed => shed += 1,
            Status::Error => error += 1,
        }
    }
    let unanswered = m.pass.submitted - m.pass.answers.len();
    (
        m.pass.answers.len() - shed - error - wrong,
        shed + error + wrong + unanswered,
        format!("shed {shed}, error {error}, wrong answer {wrong}, unanswered {unanswered}"),
    )
}

/// End-to-end metrics of a pass with `good` correct answers; `labels`
/// names the menu entries for the per-entry report.
fn end_to_end(m: &Measured, good: usize, setup_s: f64, labels: &[&str], out: &mut Outcome) {
    for (i, label) in labels.iter().enumerate() {
        let own: Vec<f64> = m
            .pass
            .answers
            .iter()
            .filter(|a| a.menu == i)
            .map(|a| a.latency().as_secs_f64() * 1e3)
            .collect();
        if !own.is_empty() {
            eprintln!(
                "  entry {i} {label:<10} n {:>5}  p50 {:>9.3} ms",
                own.len(),
                percentile(&sorted(&own), 0.5)
            );
        }
    }
    let lat = m.latencies_ms();
    if lat.is_empty() {
        out.problems.push("no request was answered".into());
        return;
    }
    // The percentiles are medians over consecutive windows of the pass, so
    // a few seconds of interference from outside move at most a minority
    // of the windows.
    let wins = stats::windows(&m.latencies_in_send_order());
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    for (i, w) in wins.iter().enumerate() {
        let p50 = percentile(w, 0.5);
        let p90 = tail(w, 0.90).unwrap_or_else(|| {
            out.problems.push(format!(
                "only {} samples: latency_p90_ms needs ten beyond it",
                w.len()
            ));
            percentile(w, 0.90)
        });
        eprintln!(
            "  window {i} n {:>5}  p50 {p50:>9.3} ms  p90 {p90:>9.3} ms",
            w.len()
        );
        p50s.push(p50);
        p90s.push(p90);
    }
    eprintln!(
        "  latency over {} samples: p50 {:.3} ms, p90 {:.3} ms, p99 {}",
        lat.len(),
        percentile(&lat, 0.5),
        percentile(&lat, 0.90),
        match tail(&lat, 0.99) {
            Some(v) => format!("{v:.3} ms ({} beyond)", stats::beyond(lat.len(), 0.99)),
            None => "not reported (fewer than ten samples beyond it)".into(),
        }
    );
    out.metrics.extend(vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", median(&p50s)),
        ("latency_p90_ms", median(&p90s)),
        (
            "throughput_rps",
            good as f64 / m.pass.wall().as_secs_f64().max(1e-9),
        ),
        (
            "cpu_ms_per_req",
            m.cpu_s * 1e3 / m.pass.answers.len() as f64,
        ),
        ("peak_rss_mb", m.peak_rss_mb),
    ]);
}

fn run_service(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let w = args.workload;
    let menu = match w {
        Workload::ServeMix => inputs::mix_menu(),
        Workload::ServeBroker => inputs::broker_menu(),
        _ => inputs::large_menu(),
    };
    let arrivals = inputs::mix_arrivals(args.seed, args.seconds);
    let plan: Vec<Planned> = arrivals
        .iter()
        .map(|a| Planned {
            due_ns: a.at_ns,
            tenant: a.tenant,
            menu: a.kind as usize,
        })
        .collect();

    let (sut, setup_s) = setups(
        process_start,
        || Sut::start(w, &menu, args.serve_bin.as_deref()),
        |old| old.finish().map(drop),
    )?;
    let untraced = service_pass(&sut, args, &menu, &plan, 0)?;
    let traced = if args.trace {
        Some(service_pass(&sut, args, &menu, &plan, 1)?)
    } else {
        None
    };

    let mut out = Outcome::default();
    let tracer = Tracer::new(process_start);
    let mut replayed: Vec<usize> = Vec::new();
    let mut reps: Vec<Replayed> = Vec::new();
    let mut layer_metrics = Layers::new();
    if let Some(t) = &traced {
        let local_cat;
        let (catalog, chan_space, farm_space) = match &sut {
            Sut::Local { catalog, space, .. } => (catalog.as_ref(), Arc::clone(space), None),
            Sut::Child { child, .. } => {
                local_cat = inputs::demo_catalog();
                let sock = TupleSpace::connect_unix(child.socket())
                    .map(Arc::new)
                    .map_err(|e| format!("connect to fpdm-serve: {e}"))?;
                (&local_cat, Arc::clone(&sock), Some(sock))
            }
        };
        for (i, a) in t.pass.answers.iter().enumerate() {
            tracer.record("request", None, i as u64, a.due, a.done);
        }
        let ctx = ReplayCtx {
            catalog,
            chan_space: Arc::clone(&chan_space),
            farm_space: farm_space.clone(),
        };
        let mut admission =
            Admission::<()>::new(AdmissionConfig::default(), &MetricsRegistry::new());
        let mut per_entry = vec![0usize; menu.len()];
        for (i, a) in t.pass.answers.iter().enumerate() {
            if per_entry[a.menu] < REPLAY_PER_ENTRY {
                per_entry[a.menu] += 1;
                replayed.push(i);
                reps.push(layers::replay(
                    &tracer,
                    &ctx,
                    &mut admission,
                    i as u64,
                    a.menu,
                    &menu[a.menu],
                )?);
            }
        }
        layer_metrics.push((
            "chan.rtt_us.local",
            layers::chan_rtt_us(&TupleSpace::new(), RTT_ROUNDS),
        ));
        layer_metrics.push((
            "chan.rtt_us.socket",
            match &farm_space {
                Some(sock) => layers::chan_rtt_us(sock, RTT_ROUNDS),
                None => socket_rtt_us()?,
            },
        ));
        let table = match w {
            Workload::ServeLarge => "satimage",
            _ => "vote",
        };
        layer_metrics.push(("classify.index_build_ms", index_build_ms(catalog, table)?));
    }

    let ledger = sut.finish()?;
    let ref_cat = match w {
        Workload::ServeLarge => inputs::large_catalog(),
        _ => inputs::demo_catalog(),
    };
    let refs = service_refs(&ref_cat, &menu);

    let (good, bad, causes) = check_answers(&untraced, &refs);
    out.attempted = untraced.pass.submitted;
    out.failed = bad;
    eprintln!(
        "perfbench: {w:?} seed {}: {} submitted, fail_ratio {:.4} ({causes})",
        args.seed,
        untraced.pass.submitted,
        bad as f64 / untraced.pass.submitted.max(1) as f64
    );
    let labels: Vec<&str> = menu.iter().map(MiningRequest::kind).collect();
    end_to_end(&untraced, good, setup_s, &labels, &mut out);

    if let Some(t) = &traced {
        let (_, t_bad, t_causes) = check_answers(t, &refs);
        if t_bad > 0 {
            out.problems.push(format!("traced pass: {t_causes}"));
        }
        for r in &reps {
            if r.payload != refs[r.menu].0 {
                out.problems.push(format!(
                    "replayed {} answer differs from the reference",
                    r.kind
                ));
            }
        }
        let lat_u = untraced.latencies_ms();
        let lat_t = t.latencies_ms();
        let p50_t = percentile(&lat_t, 0.5);
        // In-process: the ledger delta over the traced pass; brokered: the
        // child's whole-life ledger.
        let ledger_t = t.ledger.clone().unwrap_or(ledger);
        let mean_t = lat_t.iter().sum::<f64>() / lat_t.len() as f64;
        layer_metrics.extend(layers::ledger_metrics(&ledger_t, p50_t, mean_t));
        layer_metrics.extend(layers::replay_metrics(&reps, w == Workload::ServeBroker));
        for (kind, name) in [
            ("seqmine", "seqmine.seq_ms"),
            ("treemine", "treemine.seq_ms"),
            ("episodes", "episodes.seq_ms"),
            ("apriori", "assoc.apriori_ms"),
            ("classify", "classify.grow_ms"),
        ] {
            let times: Vec<f64> = menu
                .iter()
                .zip(&refs)
                .filter(|(req, _)| req.kind() == kind)
                .map(|(_, (_, s))| s * 1e3)
                .collect();
            layer_metrics.push((name, median_or_zero(&times)));
        }
        if w == Workload::ServeMix {
            let lags: Vec<f64> = t
                .pass
                .answers
                .iter()
                .map(|a| a.sent.saturating_duration_since(a.due).as_secs_f64() * 1e3)
                .collect();
            let lag_p99 = percentile(&sorted(&lags), 0.99);
            if lag_p99 > LAG_P99_MAX_MS {
                out.problems.push(format!(
                    "open-loop generator ran {lag_p99:.2} ms late at p99 (bound {LAG_P99_MAX_MS} ms)"
                ));
            }
            let (costs, model_p99) = layers::calibrate(&arrivals, &reps, args.seed);
            let real_p99 = percentile(&lat_t, 0.99);
            eprintln!(
                "  loadgen cost_ms measured (seqmine, treemine, episodes, classify, apriori): {:.3?}; \
                 hard-coded [8, 6, 4, 2, 1]; model p99 {model_p99:.3} ms vs real {real_p99:.3} ms",
                costs
            );
            layer_metrics.push(("loadgen.lag_p99_ms", lag_p99));
            layer_metrics.push(("loadgen.model_p99_ratio", model_p99 / real_p99));
        }
        let pairs: Vec<(usize, u64)> = replayed
            .iter()
            .zip(&reps)
            .map(|(&i, r)| (i, r.root))
            .collect();
        layer_metrics.push(("trace.coverage", coverage(&tracer, &pairs, &mut out)));
        layer_metrics.push(("trace.overhead_ratio", p50_t / percentile(&lat_u, 0.5)));
        write_spans(&tracer, w, args.seed);
        out.metrics.clear();
        out.metrics.extend(layer_metrics);
    }
    Ok(out)
}

/// Attribute the client-side latency of each replayed request (`(request
/// span, replay root)` pairs) to the self times of its replay's layer
/// calls, print the mean breakdown, and return `trace.coverage`
/// (attributed ÷ client-side latency), failing the run below
/// [`COVERAGE_MIN`].
fn coverage(tracer: &Tracer, pairs: &[(usize, u64)], out: &mut Outcome) -> f64 {
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let mut by_layer: BTreeMap<&str, i64> = BTreeMap::new();
    let (mut attributed, mut e2e) = (0u64, 0u64);
    for &(request, root) in pairs {
        let a = attribute(&spans, &selfs, &spans[request], root);
        for (name, ns) in &a.layers {
            *by_layer.entry(name).or_default() += *ns as i64;
        }
        *by_layer.entry("unattributed").or_default() += a.unattributed_ns;
        attributed += a.attributed_ns();
        e2e += a.e2e_ns;
    }
    let n = pairs.len().max(1) as f64;
    eprintln!(
        "  attribution, mean ms over {} replayed requests:",
        pairs.len()
    );
    for (name, ns) in &by_layer {
        eprintln!("    {name:<20} {:>10.3}", *ns as f64 / 1e6 / n);
    }
    let coverage = attributed as f64 / e2e.max(1) as f64;
    if coverage < COVERAGE_MIN {
        out.problems.push(format!(
            "trace.coverage {coverage:.3} is below the bound {COVERAGE_MIN}"
        ));
    }
    coverage
}

/// `chan.rtt_us.socket` where the workload has no broker of its own: a
/// broker started for the measurement on a fresh socket path.
fn socket_rtt_us() -> Result<f64, String> {
    let sock = SocketPath::new().map_err(|e| format!("socket dir: {e}"))?;
    let broker =
        Broker::start(BrokerConfig::new(sock.path())).map_err(|e| format!("start broker: {e}"))?;
    let rtt = TupleSpace::connect_unix(sock.path())
        .map(|space| layers::chan_rtt_us(&space, RTT_ROUNDS))
        .map_err(|e| format!("connect to broker: {e}"));
    broker.shutdown();
    rtt
}

/// Median time to build the presorted columnar index of `table`.
fn index_build_ms(cat: &DatasetCatalog, table: &str) -> Result<f64, String> {
    let entry = cat
        .table(table)
        .ok_or_else(|| format!("no table {table:?}"))?;
    let times: Vec<f64> = (0..INDEX_BUILDS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(fpdm::classify::ColumnarIndex::build(entry.data()));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Ok(median(&times))
}

/// Write the run's spans, one JSON object per line, under the run
/// directory.
fn write_spans(tracer: &Tracer, w: Workload, seed: u64) {
    let path = Path::new(sys::RUN_DIR).join(format!("spans-{w:?}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(sys::RUN_DIR).and_then(|_| tracer.write(&path));
    match written {
        Ok(()) => eprintln!("  spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Distinct driver answers with how often each came back.
type Distinct = Vec<Vec<(DriverOut, usize)>>;

fn run_batch(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (inp, setup_s) = setups(
        process_start,
        || {
            let inp = inputs::batch_inputs();
            for d in DRIVERS {
                std::hint::black_box(inputs::run_driver(d, &inp, None));
            }
            Ok(inp)
        },
        |old| {
            drop(old);
            Ok(())
        },
    )?;
    let pids = [None];
    let pass = |distinct: &Mutex<Distinct>| -> Result<Measured, String> {
        let cpu0 = cpu_total(&pids)?;
        let pass = closed_loop(
            &[()],
            args.seed,
            DRIVERS.len(),
            args.seconds,
            |_, _, m| inputs::run_driver(DRIVERS[m], &inp, None),
            |m, out| {
                let mut d = distinct.lock().expect("distinct answers lock");
                match d[m].iter_mut().find(|(o, _)| *o == out) {
                    Some((_, n)) => *n += 1,
                    None => d[m].push((out, 1)),
                }
                (Status::Ok, Vec::new())
            },
        );
        Ok(Measured {
            pass,
            cpu_s: cpu_total(&pids)? - cpu0,
            peak_rss_mb: rss_total(&pids)?,
            ledger: None,
        })
    };
    let distinct = Mutex::new(vec![Vec::new(); DRIVERS.len()]);
    let untraced = pass(&distinct)?;
    let traced = if args.trace {
        Some(pass(&Mutex::new(vec![Vec::new(); DRIVERS.len()]))?)
    } else {
        None
    };

    let refs = inputs::batch_refs(&inp);
    let mut out = Outcome::default();
    let distinct = distinct.into_inner().expect("distinct answers lock");
    let mut bad = 0;
    for (m, answers) in distinct.iter().enumerate() {
        for (o, n) in answers {
            if let Err(e) = inputs::check_driver(DRIVERS[m], o, &refs) {
                eprintln!("perfbench: {e}");
                bad += n;
            }
        }
    }
    out.attempted = untraced.pass.submitted;
    out.failed = bad + untraced.pass.submitted - untraced.pass.answers.len();
    eprintln!(
        "perfbench: BatchDrivers seed {}: {} calls, fail_ratio {:.4}",
        args.seed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let labels: Vec<&str> = DRIVERS.iter().map(Driver::label).collect();
    end_to_end(
        &untraced,
        untraced.pass.answers.len() - bad,
        setup_s,
        &labels,
        &mut out,
    );

    if let Some(t) = &traced {
        let tracer = Tracer::new(process_start);
        for (i, a) in t.pass.answers.iter().enumerate() {
            tracer.record("request", None, i as u64, a.due, a.done);
        }
        let mut per_entry = vec![0usize; DRIVERS.len()];
        let mut engine_ms: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut tested_per_good: HashMap<&str, f64> = HashMap::new();
        let mut jobs: Vec<(&str, MetricsSnapshot)> = Vec::new();
        let mut pairs = Vec::new();
        for (i, a) in t.pass.answers.iter().enumerate() {
            if per_entry[a.menu] >= REPLAY_PER_ENTRY {
                continue;
            }
            per_entry[a.menu] += 1;
            let d = DRIVERS[a.menu];
            let reg = MetricsRegistry::new();
            let root = tracer.open("replay", None, i as u64);
            let layer = match d {
                Driver::Pear => "assoc",
                Driver::SeqDiscover => "seqmine",
                Driver::ParmineCv => "parmine",
                _ => "core.parallel",
            };
            let t0 = Instant::now();
            let got = inputs::run_driver(d, &inp, Some(reg.clone()));
            let t1 = Instant::now();
            tracer.record(layer, Some(root), i as u64, t0, t1);
            tracer.close(root);
            inputs::check_driver(d, &got, &refs)?;
            engine_ms
                .entry(d.label())
                .or_default()
                .push((t1 - t0).as_secs_f64() * 1e3);
            if let DriverOut::Outcome(o) = &got {
                tested_per_good.insert(d.label(), o.tested as f64 / o.good.len().max(1) as f64);
            }
            let kind = if d == Driver::SeqDiscover {
                "seqmine"
            } else {
                d.label()
            };
            jobs.push((kind, reg.snapshot()));
            pairs.push((i, root));
        }
        let med = |label: &str| median_or_zero(engine_ms.get(label).map_or(&[][..], |v| v));
        let mut l: Layers = vec![
            ("core.engine_ms.pled", med("pled")),
            ("core.engine_ms.plet", med("plet")),
            ("core.engine_ms.hybrid", med("hybrid")),
            ("core.engine_ms.wave", med("wave")),
            ("assoc.pear_ms", med("pear")),
            ("parmine.cv_ms", med("parmine")),
        ];
        for (label, name) in [
            ("pled", "core.tested_per_good.pled"),
            ("plet", "core.tested_per_good.plet"),
            ("hybrid", "core.tested_per_good.hybrid"),
        ] {
            l.push((name, tested_per_good.get(label).copied().unwrap_or(0.0)));
        }
        for (label, name) in [
            ("assoc.apriori", "assoc.apriori_ms"),
            ("seqmine.seq", "seqmine.seq_ms"),
            ("classify.grow", "classify.grow_ms"),
        ] {
            let s = refs
                .timings
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0.0, |x| x.1);
            l.push((name, s * 1e3));
        }
        let ledgers: Vec<&MetricsSnapshot> = jobs.iter().map(|(_, s)| s).collect();
        let kinded: Vec<(&str, &MetricsSnapshot)> = jobs.iter().map(|(k, s)| (*k, s)).collect();
        l.extend(layers::tasks_per_job(&kinded));
        l.extend(layers::farm_metrics(&ledgers));
        l.push((
            "chan.rtt_us.local",
            layers::chan_rtt_us(&TupleSpace::new(), RTT_ROUNDS),
        ));
        l.push(("chan.rtt_us.socket", socket_rtt_us()?));
        let table_cat = {
            let mut c = DatasetCatalog::new();
            c.add_table("vote", inp.table.as_ref().clone());
            c
        };
        l.push((
            "classify.index_build_ms",
            index_build_ms(&table_cat, "vote")?,
        ));
        l.push(("trace.coverage", coverage(&tracer, &pairs, &mut out)));
        l.push((
            "trace.overhead_ratio",
            percentile(&t.latencies_ms(), 0.5) / percentile(&untraced.latencies_ms(), 0.5),
        ));
        write_spans(&tracer, Workload::BatchDrivers, args.seed);
        out.metrics.clear();
        out.metrics.extend(l);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seed_and_workload_come_from_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mix --seed 42 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMix);
        assert_eq!(a.seed, 42);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-mix --seed 1 --seconds 3 --trace 2")).is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}

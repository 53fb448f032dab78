//! Workloads, their datasets and their seeded request streams, and the
//! sequential library references every answer is checked against.

use fpdm::assoc::{FrequentItemsets, Itemset, ItemsetMiningProblem, TransactionDb};
use fpdm::classify::{DecisionTree, GrowRule, NyuConfig};
use fpdm::core::{MiningOutcome, ParallelConfig};
use fpdm::datagen::{self, BasketSpec, PlantedMotif};
use fpdm::episodes::{EpisodeParams, EventSequence};
use fpdm::loadgen::{owner_activity_trace, Arrival, TraceConfig, KINDS};
use fpdm::nowsim::traces::OwnerPattern;
use fpdm::plinda::MetricsRegistry;
use fpdm::seqmine::{ActiveMotif, DiscoveryParams, Sequence};
use fpdm::service::{DatasetCatalog, MiningRequest, RuleTag};
use fpdm::treemine::{OrderedTree, TreeDiscoveryParams};
use std::sync::Arc;

/// A benchmark workload (see the benchmark's README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop against an in-process service, interactive requests.
    ServeMix,
    /// Closed loop, two clients, against `fpdm-serve` over its broker.
    ServeBroker,
    /// Closed loop, one client, large resident datasets.
    ServeLarge,
    /// Closed loop, one client, the library farm drivers directly.
    BatchDrivers,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-mix" => Some(Workload::ServeMix),
            "serve-broker" => Some(Workload::ServeBroker),
            "serve-large" => Some(Workload::ServeLarge),
            "batch-drivers" => Some(Workload::BatchDrivers),
            _ => None,
        }
    }
}

/// Every run times at least one latency window of requests, so that the
/// p90 latency always has ten samples beyond it.
pub const MIN_SAMPLES: usize = crate::stats::WINDOW_SAMPLES;

/// Mean arrival rate of the serve-mix open loop. At this rate the service
/// queues during owner-activity bursts but never sheds and never builds a
/// growing backlog, and it keeps enough headroom that a host which steals
/// a fifth of the CPU does not turn those bursts into long queues.
pub const MIX_RATE_RPS: f64 = 10.0;

/// Tenants issuing serve-mix arrivals.
pub const MIX_TENANTS: usize = 32;

/// Owner rhythm of the serve-mix tenants: bursts and gaps of a few seconds,
/// so a run of a few seconds sees several bursts.
const MIX_PATTERN: OwnerPattern = OwnerPattern {
    busy_mean: 1.0,
    idle_mean: 1.0,
};

/// A deterministic 64-bit generator (splitmix64).
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A closed-loop request stream over a menu of `len` entries, in blocks:
/// each block is a seeded shuffle of the whole menu, so any run of whole
/// blocks asks for every entry equally often and only the order depends on
/// the seed.
pub struct BlockStream {
    rng: SplitMix,
    block: Vec<usize>,
    pos: usize,
}

impl BlockStream {
    /// Stream number `stream` of `seed` (one per client).
    pub fn new(seed: u64, stream: u64, len: usize) -> Self {
        assert!(len >= 1, "empty menu");
        let mix = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ stream.wrapping_add(1);
        BlockStream {
            rng: SplitMix::new(mix),
            block: (0..len).collect(),
            pos: len,
        }
    }

    /// True between blocks (and before the first request).
    pub fn at_block_start(&self) -> bool {
        self.pos == self.block.len()
    }

    /// The next menu index.
    pub fn next_index(&mut self) -> usize {
        if self.at_block_start() {
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

/// The serve-mix arrival trace for `seed`: owner-activity arrivals at
/// [`MIX_RATE_RPS`] over `seconds` (at least [`MIN_SAMPLES`] of them).
/// Each arrival's `kind` indexes [`mix_menu`]. Kinds are re-drawn from a
/// block stream, so every run asks for each kind equally often and only
/// their order depends on the seed.
pub fn mix_arrivals(seed: u64, seconds: f64) -> Vec<Arrival> {
    let requests = ((MIX_RATE_RPS * seconds).round() as usize).max(MIN_SAMPLES);
    let mut cfg = TraceConfig::new(seed, MIX_TENANTS, requests as f64 / MIX_RATE_RPS, requests);
    cfg.pattern = MIX_PATTERN;
    let mut kinds = BlockStream::new(seed, u64::MAX, KINDS);
    let mut trace = owner_activity_trace(&cfg);
    for a in &mut trace {
        a.kind = kinds.next_index() as u8;
    }
    trace
}

/// The demo catalog `fpdm-serve` registers, rebuilt from the same
/// generators and seeds.
pub fn demo_catalog() -> DatasetCatalog {
    let mut cat = DatasetCatalog::new();
    cat.add_sequences(
        "globins",
        datagen::protein_family(
            11,
            40,
            60,
            10,
            &[PlantedMotif {
                pattern: b"HEMOGLB".to_vec(),
                occurrence: 0.6,
                mutations: 1,
            }],
        ),
    );
    cat.add_trees(
        "rna",
        datagen::rna_structures(7, 30, 12, &[(OrderedTree::parse("a(b,c)"), 0.5)]),
    );
    cat.add_events(
        "alarms",
        EventSequence::new(datagen::event_stream(3, 4000, 4, 0.2, &[(b"AB", 40)])),
    );
    cat.add_table("vote", datagen::benchmarks::benchmark("vote", 5));
    cat.add_baskets(
        "baskets",
        TransactionDb::new(
            (0..200)
                .map(|i| (0..5).map(|j| ((i * 7 + j * 3) % 20) as u32).collect())
                .collect(),
        ),
    );
    cat
}

/// The serve-large catalog: a Quest basket database of 20k transactions
/// over 200 items, the satimage table, the cyclins substitute family and a
/// larger RNA structure set.
pub fn large_catalog() -> DatasetCatalog {
    let mut cat = DatasetCatalog::new();
    cat.add_baskets(
        "quest-20k",
        datagen::basket_db(
            &BasketSpec {
                transactions: 20_000,
                items: 200,
                ..BasketSpec::default()
            },
            1,
        ),
    );
    cat.add_table("satimage", datagen::benchmarks::benchmark("satimage", 1));
    cat.add_sequences("cyclins", datagen::cyclins_substitute(1));
    cat.add_trees(
        "rna-large",
        datagen::rna_structures(7, 200, 20, &[(OrderedTree::parse("a(b,c)"), 0.5)]),
    );
    cat
}

fn seqmine(dataset: &str, params: DiscoveryParams) -> MiningRequest {
    MiningRequest::Seqmine {
        dataset: dataset.into(),
        params,
    }
}

fn treemine(
    dataset: &str,
    min_size: usize,
    max_size: usize,
    min_occurrence: usize,
) -> MiningRequest {
    MiningRequest::Treemine {
        dataset: dataset.into(),
        params: TreeDiscoveryParams {
            min_size,
            max_size,
            min_occurrence,
            max_distance: 0,
        },
    }
}

fn episodes_req() -> MiningRequest {
    MiningRequest::Episodes {
        dataset: "alarms".into(),
        params: EpisodeParams {
            window: 10,
            min_windows: 20,
            min_length: 2,
            max_length: 3,
        },
    }
}

/// The serve-mix menu, indexed by loadgen kind (`KIND_LABELS` order:
/// seqmine, treemine, episodes, classify, apriori). Interactive sizes on
/// the demo catalog. The kinds take about 1.5, 2.5, 11, 21 and 35 ms
/// (apriori, classify, seqmine, episodes, treemine), each farm kind at
/// least 1.6 times the one below it, and each kind is a fifth of the
/// requests, so the p50 falls inside the seqmine requests and the p90
/// inside the treemine ones rather than on the edge between two kinds.
/// Seqmine's candidate threshold of 5 leaves its answer unchanged (there
/// are no mutations) and halves its farm tasks, which keeps it clear of
/// episodes.
pub fn mix_menu() -> Vec<MiningRequest> {
    vec![
        seqmine(
            "globins",
            DiscoveryParams::new(4, 6, 20, 0).with_sample_occurrence(5),
        ),
        treemine("rna", 2, 5, 10),
        episodes_req(),
        MiningRequest::Classify {
            dataset: "vote".into(),
            rule: RuleTag::Cart,
            min_split: 2,
            max_depth: 64,
        },
        MiningRequest::Apriori {
            dataset: "baskets".into(),
            min_support: 5,
        },
    ]
}

/// The serve-broker menu: the three farm kinds at interactive size on the
/// demo catalog, seqmine with the default candidate threshold.
pub fn broker_menu() -> Vec<MiningRequest> {
    vec![
        seqmine("globins", DiscoveryParams::new(4, 6, 20, 0)),
        treemine("rna", 2, 5, 10),
        episodes_req(),
    ]
}

/// The serve-large menu.
pub fn large_menu() -> Vec<MiningRequest> {
    vec![
        MiningRequest::Apriori {
            dataset: "quest-20k".into(),
            min_support: 3200,
        },
        MiningRequest::Classify {
            dataset: "satimage".into(),
            rule: RuleTag::C45,
            min_split: 50,
            max_depth: 4,
        },
        MiningRequest::Classify {
            dataset: "satimage".into(),
            rule: RuleTag::Cart,
            min_split: 20,
            max_depth: 8,
        },
        seqmine(
            "cyclins",
            DiscoveryParams::new(8, 10, 10, 0).with_sample_occurrence(10),
        ),
        treemine("rna-large", 2, 3, 66),
    ]
}

/// One request per dataset named in `menu` (the first naming it): the
/// warm-up that builds lazy indexes before timing starts.
pub fn warmups(menu: &[MiningRequest]) -> Vec<MiningRequest> {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for req in menu {
        if !seen.contains(&req.dataset()) {
            seen.push(req.dataset());
            out.push(req.clone());
        }
    }
    out
}

/// The answer a direct sequential library run gives for `req`, rendered
/// the way the service renders (`format!("{:?}")`).
pub fn reference(cat: &DatasetCatalog, req: &MiningRequest) -> Vec<u8> {
    let missing = "reference request names a dataset of the catalog";
    match req {
        MiningRequest::Seqmine { dataset, params } => {
            let db = cat.sequences(dataset).expect(missing).as_ref().clone();
            format!("{:?}", fpdm::seqmine::discover(db, params.clone())).into_bytes()
        }
        MiningRequest::Treemine { dataset, params } => {
            let db = cat.trees(dataset).expect(missing).as_ref().clone();
            format!(
                "{:?}",
                fpdm::treemine::discover_tree_motifs(db, params.clone())
            )
            .into_bytes()
        }
        MiningRequest::Episodes { dataset, params } => {
            let ev = cat.events(dataset).expect(missing);
            format!(
                "{:?}",
                fpdm::episodes::discover_episodes(ev, params.clone())
            )
            .into_bytes()
        }
        MiningRequest::Classify { dataset, rule, .. } => {
            let entry = cat.table(dataset).expect(missing);
            let index = entry.index(&MetricsRegistry::new());
            let rows: Vec<usize> = (0..entry.data().len()).collect();
            let grow = req.grow_config().expect("classify carries grow knobs");
            let tree =
                DecisionTree::grow_indexed(entry.data(), &index, &rows, &rule.grow_rule(), &grow);
            format!("{tree:?}").into_bytes()
        }
        MiningRequest::Apriori {
            dataset,
            min_support,
        } => {
            let db = cat.baskets(dataset).expect(missing);
            format!("{:?}", fpdm::assoc::apriori(db, *min_support)).into_bytes()
        }
    }
}

/// A library farm driver the batch-drivers workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `parallel_edt` (PLED) on the itemset problem.
    Pled,
    /// `parallel_hybrid`: PLED above the switch level, PLET-LB below.
    Hybrid,
    /// `parallel_ett`, load-balanced (PLET-LB).
    PletLb,
    /// `parallel_wave`, the engine behind the service's farm miners.
    Wave,
    /// `assoc::parallel_apriori` (PEAR).
    Pear,
    /// `seqmine::discover_parallel`.
    SeqDiscover,
    /// `parmine::parallel_nyuminer_cv`.
    ParmineCv,
}

/// The batch-drivers menu.
pub const DRIVERS: [Driver; 7] = [
    Driver::Pled,
    Driver::Hybrid,
    Driver::PletLb,
    Driver::Wave,
    Driver::Pear,
    Driver::SeqDiscover,
    Driver::ParmineCv,
];

/// Farm workers per driver call, as in the service's job farms.
pub const DRIVER_WORKERS: usize = 2;

/// The hybrid's PLED-to-PLET switch level.
const HYBRID_SWITCH: usize = 2;

/// Cross-validation folds of the parmine driver.
const CV_FOLDS: usize = 4;

/// Seed of the parmine fold split.
const CV_SEED: u64 = 9;

impl Driver {
    /// The layer label used for spans and per-layer metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Driver::Pled => "pled",
            Driver::Hybrid => "hybrid",
            Driver::PletLb => "plet",
            Driver::Wave => "wave",
            Driver::Pear => "pear",
            Driver::SeqDiscover => "seqmine",
            Driver::ParmineCv => "parmine",
        }
    }
}

/// Inputs of the batch-drivers workload.
pub struct BatchInputs {
    /// The itemset E-dag problem shared by PLED, hybrid, PLET-LB and wave.
    pub itemsets: Arc<ItemsetMiningProblem>,
    /// The same transactions, for PEAR and Apriori.
    pub baskets: Arc<TransactionDb>,
    /// Minimum support of both.
    pub min_support: usize,
    /// Sequences for `discover_parallel`.
    pub seqs: Vec<Sequence>,
    /// Their discovery parameters.
    pub seq_params: DiscoveryParams,
    /// The classification table for parmine.
    pub table: Arc<fpdm::classify::Dataset>,
    /// Its rows.
    pub rows: Arc<Vec<usize>>,
    /// The NyuMiner configuration.
    pub nyu: NyuConfig,
}

/// Build the batch-drivers inputs.
pub fn batch_inputs() -> BatchInputs {
    let db = datagen::basket_db(
        &BasketSpec {
            transactions: 400,
            items: 40,
            avg_txn_len: 8,
            patterns: 10,
            avg_pattern_len: 4,
            corruption: 0.25,
        },
        3,
    );
    let min_support = 24;
    let globins = demo_catalog()
        .sequences("globins")
        .expect("the demo catalog registers globins")
        .as_ref()
        .clone();
    let table = Arc::new(datagen::benchmarks::benchmark("vote", 5));
    BatchInputs {
        itemsets: Arc::new(ItemsetMiningProblem::new(db.clone(), min_support)),
        baskets: Arc::new(db),
        min_support,
        seqs: globins,
        seq_params: DiscoveryParams::new(4, 6, 20, 0),
        rows: Arc::new(table.all_rows()),
        table,
        nyu: NyuConfig::default(),
    }
}

/// What a driver returned, in a form that compares exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverOut {
    /// An E-dag/E-tree traversal outcome.
    Outcome(MiningOutcome<Itemset>),
    /// Frequent itemsets.
    Frequent(FrequentItemsets),
    /// Active motifs.
    Motifs(Vec<ActiveMotif>),
    /// A cross-validated tree.
    Cv {
        /// Selected complexity parameter.
        alpha: f64,
        /// Selected tree.
        tree: DecisionTree,
        /// CV error per sequence entry.
        cv_errors: Vec<(f64, f64)>,
    },
}

/// Call `driver` once with `DRIVER_WORKERS` workers, metering its farm
/// into `metrics` when given.
pub fn run_driver(
    driver: Driver,
    inp: &BatchInputs,
    metrics: Option<MetricsRegistry>,
) -> DriverOut {
    let mut cfg = ParallelConfig::load_balanced(DRIVER_WORKERS);
    if let Some(reg) = &metrics {
        cfg = cfg.with_metrics(reg.clone());
    }
    let problem = || Arc::clone(&inp.itemsets);
    match driver {
        Driver::Pled => DriverOut::Outcome(fpdm::core::parallel::parallel_edt_cfg(problem(), &cfg)),
        Driver::Hybrid => DriverOut::Outcome(fpdm::core::parallel::parallel_hybrid_cfg(
            problem(),
            &cfg,
            HYBRID_SWITCH,
        )),
        Driver::PletLb => DriverOut::Outcome(fpdm::core::parallel_ett(problem(), &cfg)),
        Driver::Wave => {
            DriverOut::Outcome(fpdm::core::parallel_wave("bench.wave", problem(), &cfg))
        }
        Driver::Pear => DriverOut::Frequent(fpdm::assoc::parallel_apriori_metered(
            Arc::clone(&inp.baskets),
            inp.min_support,
            DRIVER_WORKERS,
            metrics,
            None,
        )),
        Driver::SeqDiscover => DriverOut::Motifs(fpdm::seqmine::discover::discover_parallel(
            inp.seqs.clone(),
            inp.seq_params.clone(),
            &cfg,
        )),
        Driver::ParmineCv => {
            let cv = fpdm::parmine::pcv::parallel_nyuminer_cv_metered(
                Arc::clone(&inp.table),
                Arc::clone(&inp.rows),
                &inp.nyu,
                CV_FOLDS,
                DRIVER_WORKERS,
                CV_SEED,
                metrics,
                None,
            );
            DriverOut::Cv {
                alpha: cv.alpha,
                tree: cv.tree,
                cv_errors: cv.cv_errors,
            }
        }
    }
}

/// The sequential references of the batch drivers, with how long each
/// took (seconds).
pub struct BatchRefs {
    edt: DriverOut,
    ett: DriverOut,
    apriori: DriverOut,
    motifs: DriverOut,
    cv: DriverOut,
    /// `(layer label, seconds)` of each reference call.
    pub timings: Vec<(&'static str, f64)>,
}

/// Compute the batch references: `sequential_edt`, `sequential_ett`,
/// `apriori`, `discover` and `grow_with_cv_pruning`.
pub fn batch_refs(inp: &BatchInputs) -> BatchRefs {
    let mut timings = Vec::new();
    let mut timed = |label: &'static str, f: &dyn Fn() -> DriverOut| {
        let t0 = std::time::Instant::now();
        let out = f();
        timings.push((label, t0.elapsed().as_secs_f64()));
        out
    };
    let problem = inp.itemsets.as_ref();
    let edt = timed("core.sequential_edt", &|| {
        DriverOut::Outcome(fpdm::core::sequential_edt(problem))
    });
    let ett = timed("core.sequential_ett", &|| {
        DriverOut::Outcome(fpdm::core::sequential_ett(problem))
    });
    let apriori = timed("assoc.apriori", &|| {
        DriverOut::Frequent(fpdm::assoc::apriori(&inp.baskets, inp.min_support))
    });
    let motifs = timed("seqmine.seq", &|| {
        DriverOut::Motifs(fpdm::seqmine::discover(
            inp.seqs.clone(),
            inp.seq_params.clone(),
        ))
    });
    let cv = timed("classify.grow", &|| {
        let cv = fpdm::classify::prune::grow_with_cv_pruning(
            &inp.table,
            &inp.rows,
            &GrowRule::NyuMiner {
                max_branches: inp.nyu.max_branches,
                impurity: inp.nyu.impurity.as_dyn(),
            },
            &inp.nyu.grow,
            CV_FOLDS,
            CV_SEED,
        );
        DriverOut::Cv {
            alpha: cv.alpha,
            tree: cv.tree,
            cv_errors: cv.cv_errors,
        }
    });
    BatchRefs {
        edt,
        ett,
        apriori,
        motifs,
        cv,
        timings,
    }
}

/// Check one driver answer against its reference, by the equivalence each
/// driver guarantees: PLED and wave reproduce the whole sequential outcome
/// (good patterns and tested count), the hybrid and PLET-LB its good
/// patterns; PEAR equals Apriori, `discover_parallel` equals `discover`,
/// and parallel CV selects the sequential CV's alpha and tree with the
/// same CV errors (to 1e-12, as the parmine tests compare them).
pub fn check_driver(driver: Driver, out: &DriverOut, refs: &BatchRefs) -> Result<(), String> {
    use DriverOut::{Cv, Outcome};
    let ok = match (driver, out, driver_ref(driver, refs)) {
        (Driver::Hybrid | Driver::PletLb, Outcome(o), Outcome(r)) => o.good == r.good,
        (
            Driver::ParmineCv,
            Cv {
                alpha,
                tree,
                cv_errors,
            },
            Cv {
                alpha: ra,
                tree: rt,
                cv_errors: re,
            },
        ) => {
            alpha == ra
                && tree == rt
                && cv_errors.len() == re.len()
                && cv_errors
                    .iter()
                    .zip(re)
                    .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() < 1e-12)
        }
        (Driver::Hybrid | Driver::PletLb | Driver::ParmineCv, _, _) => false,
        (_, o, r) => o == r,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} answer differs from its sequential reference",
            driver.label()
        ))
    }
}

/// The sequential reference a driver is checked against.
fn driver_ref(driver: Driver, refs: &BatchRefs) -> &DriverOut {
    match driver {
        Driver::Pled | Driver::Hybrid => &refs.edt,
        Driver::PletLb | Driver::Wave => &refs.ett,
        Driver::Pear => &refs.apriori,
        Driver::SeqDiscover => &refs.motifs,
        Driver::ParmineCv => &refs.cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(s: &mut BlockStream, n: usize) -> Vec<usize> {
        (0..n).map(|_| s.next_index()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = take(&mut BlockStream::new(7, 0, 5), 50);
        let b = take(&mut BlockStream::new(7, 0, 5), 50);
        let c = take(&mut BlockStream::new(8, 0, 5), 50);
        let d = take(&mut BlockStream::new(7, 1, 5), 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "each client has its own stream");
        assert_eq!(mix_arrivals(7, 3.0), mix_arrivals(7, 3.0));
        assert_ne!(mix_arrivals(7, 3.0), mix_arrivals(8, 3.0));
    }

    #[test]
    fn whole_blocks_ask_for_every_entry_equally() {
        let mut s = BlockStream::new(3, 0, 7);
        assert!(s.at_block_start());
        let got = take(&mut s, 21);
        assert!(s.at_block_start());
        for i in 0..7 {
            assert_eq!(got.iter().filter(|&&g| g == i).count(), 3);
        }
    }

    #[test]
    fn mix_trace_has_the_rate_and_floor() {
        let a = mix_arrivals(1, 10.0);
        assert_eq!(a.len(), (MIX_RATE_RPS * 10.0) as usize);
        assert_eq!(mix_arrivals(1, 0.5).len(), MIN_SAMPLES);
        for k in 0..KINDS {
            let n = a.iter().filter(|x| x.kind as usize == k).count();
            assert_eq!(n, a.len() / KINDS, "kind {k} is over- or under-asked");
        }
    }

    #[test]
    fn warmups_name_each_dataset_once() {
        let w = warmups(&large_menu());
        let names: Vec<&str> = w.iter().map(|r| r.dataset()).collect();
        assert_eq!(names, ["quest-20k", "satimage", "cyclins", "rna-large"]);
    }
}

//! # `parmine` — data-parallel classification-tree mining (Chapter 6)
//!
//! The second parallelism framework of *Free Parallel Data Mining*:
//! **data partitioning**, where every task runs the same tree-growing
//! program on a different slice or sample of the data and the results are
//! combined. Classification-tree algorithms take to it naturally:
//!
//! * [`pcv::parallel_nyuminer_cv`] — the `V` auxiliary trees of a V-fold
//!   cross-validated NyuMiner run grow on PLinda workers while the master
//!   grows the main tree (§6.1, Figs. 6.1/6.2);
//! * [`pc45::parallel_c45_trials`] — C4.5's windowing trials as parallel
//!   tasks (§6.2.1);
//! * [`pc45::parallel_nyuminer_rs`] — NyuMiner-RS's multiple incremental
//!   sampling trials as parallel tasks, rules pooled at the master
//!   (§6.2.2);
//! * [`sim`] — NOW-simulator replays of measured task costs for the
//!   running-time/speedup figures (Figs. 6.3–6.8).
//!
//! The farm drivers of the three pattern-lattice miners live in their own
//! crates (`seqmine::discover::discover_farm`,
//! `treemine::discover::discover_tree_motifs_farm`,
//! `episodes::discover_episodes_farm`); each takes an
//! `fpdm_core::ParallelConfig`.
//!
//! Each parallel routine is seed-for-seed equivalent to its sequential
//! counterpart in `classify` (checked by tests).

#![warn(missing_docs)]

pub mod pc45;
pub mod pcv;
pub mod sim;

pub use pc45::{
    parallel_c45_trials, parallel_c45_trials_metered, parallel_nyuminer_rs,
    parallel_nyuminer_rs_metered,
};
pub use pcv::{parallel_nyuminer_cv, parallel_nyuminer_cv_metered, ParallelCv};
pub use sim::{simulate_parallel_cv, simulate_parallel_trials, speedup};

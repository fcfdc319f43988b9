//! # `ri-graph` — the graph substrate for §6 of the paper
//!
//! The Type 3 graph algorithms (LE-lists, SCC) treat single-source shortest
//! paths and reachability as black boxes with costs `W_SP/D_SP` and
//! `W_R/D_R`. This crate provides those black boxes plus everything around
//! them:
//!
//! * [`csr`] — compressed sparse row digraphs (optionally weighted) with
//!   transposition.
//! * [`generators`] — seeded synthetic graph families covering the degree /
//!   diameter / component regimes the experiments sweep.
//! * [`search`] — sequential BFS and Dijkstra, the δ-**pruned** Dijkstra
//!   that Cohen's LE-list construction needs (§6.1: *"drop the
//!   initialization of the tentative distances ... the search will only
//!   explore S and its outgoing edges"*), and partition-restricted
//!   reachability for the SCC algorithm (§6.2).
//!
//! All searches report their *visit counts* into a caller-owned
//! [`SearchWork`] so the experiments can verify the `O(log n)`-factor work
//! bounds of Theorems 6.2 and 6.4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod generators;
pub mod search;

pub use csr::CsrGraph;
pub use search::{
    bfs_distances, dijkstra_distances, pruned_dijkstra, reachable_in_partition, SearchWork,
};

//! The go-parallel rule for executor rounds.
//!
//! A parallel round is worth a crew only when its work pays for the
//! crew's spawn: under `#![forbid(unsafe_code)]` every crew region and
//! every `join` spawns scoped helper threads, which costs tens of
//! microseconds per region on a small host. Round sites therefore ask one
//! rule, [`goes_parallel`], owned by the vendored scheduler: a round of
//! `len` items costing about `item_ns` nanoseconds each gets a crew only
//! when the installed width is above 1 and
//! `len × item_ns ≥` [`PAYOFF`] `×` [`region_ns`]`(width)`, where
//! `region_ns` is the spawn-and-join cost of `width − 1` helpers, measured
//! once per width on its first fetch. Otherwise the round runs inline
//! on the calling thread — same results, zero scheduler involvement
//! (`RunReport::{regions, helper_spawns}` stay 0). Width 1 (sequential
//! mode, `threads == 1` configs) never reaches the rule. Only the round
//! site asks it: the combinators a crewed round calls never price work.
//!
//! An executor round site prices its items from its own latest round
//! ([`RoundCost`]), opening at [`DEFAULT_ITEM_NS`]: the paper's rounds
//! grow geometrically (Type 2 prefixes and Type 3 rounds double), so a
//! site times small inline rounds before any round needs a crew, and a
//! round's work stays near its expectation (Sen, arXiv 1808.02356). Sites
//! with no earlier round to time — the `ri-pram` primitives, Seidel's 1-D
//! clip, sort's in-order walk — declare a cost instead. Tests force crews
//! with [`with_region_ns`]`(0, ..)`, which prices every region at 0.

use std::time::{Duration, Instant};

pub use rayon::{goes_parallel, pays_off, region_ns, with_region_ns, PAYOFF};

/// A round site's price per item before it has timed a round: a cheap
/// element operation, so a first round gets a crew only if it is long.
pub const DEFAULT_ITEM_NS: u64 = 1;

/// One round site's price per item for the go-parallel rule:
/// [`DEFAULT_ITEM_NS`] until the site has timed a round, then its latest
/// round's nanoseconds per item. An inline round's price is its wall time
/// per item. A crew pays its region cost before any work and its members
/// share the rest, so a crewed round is priced at its wall time less
/// [`region_ns`], times the crew's members, per item, and only where that
/// is below the price it ran at: pricing only inline rounds would freeze
/// the price at the last one before the first crew, so a site whose items
/// get cheaper round by round (SCC's searches, once the first centers have
/// carved the graph) would keep forming crews for work that no longer
/// pays for them, while a crewed round's wall time also holds whatever the
/// host did to its helpers (one scheduled late reads as dear work), and a
/// price raised by that would admit more crews. Only a site built at a
/// width above 1 reads the clock; at width 1 no round can go parallel, so
/// nothing is timed and the price never moves.
#[derive(Debug, Clone, Copy)]
pub struct RoundCost {
    item_ns: u64,
    width: usize,
    crewed: bool,
}

impl Default for RoundCost {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundCost {
    /// The price of a site's first round, at the calling thread's width.
    pub fn new() -> Self {
        RoundCost {
            item_ns: DEFAULT_ITEM_NS,
            width: rayon::current_num_threads(),
            crewed: false,
        }
    }

    /// Nanoseconds per item the next round is priced at.
    pub fn ns_per_item(&self) -> u64 {
        self.item_ns
    }

    /// Does a round of `len` items get a crew at this price? The answer
    /// is remembered: it tells [`record`](Self::record) how to price the
    /// round.
    pub fn goes_parallel(&mut self, len: usize) -> bool {
        self.crewed = goes_parallel(len, self.item_ns);
        self.crewed
    }

    /// Start timing a round (no clock read at width 1).
    pub fn start(&self) -> Option<Instant> {
        (self.width > 1).then(Instant::now)
    }

    /// Price the next round from the round of `items` that began at
    /// `start`.
    pub fn stop(&mut self, start: Option<Instant>, items: usize) {
        if let Some(t0) = start {
            self.record(items, t0.elapsed());
        }
    }

    /// Price the next round from a round of `items` that took `elapsed`,
    /// inline or on a crew as the last [`goes_parallel`](Self::goes_parallel)
    /// answered (a crewed round can only lower the price). A round of no
    /// items, or any round at width 1, leaves the price as it was.
    pub fn record(&mut self, items: usize, elapsed: Duration) {
        if self.width <= 1 || items == 0 {
            return;
        }
        let mut ns = elapsed.as_nanos();
        if self.crewed {
            let members = self.width.min(items) as u128;
            ns = ns.saturating_sub(u128::from(region_ns(self.width))) * members;
        }
        let item_ns = u64::try_from(ns / items as u128).unwrap_or(u64::MAX);
        self.item_ns = if self.crewed {
            item_ns.min(self.item_ns)
        } else {
            item_ns
        };
    }
}

//! End-to-end and per-layer benchmark of the icbtc stack.
//!
//! Three workloads, each a function of its seed alone:
//!
//! * [`query_mix`] — mostly reads: an open loop of `get_balance`,
//!   `get_utxos` and fee-percentile queries through the subnet query
//!   plane against a large skewed address population, with a block
//!   ingested every few rounds.
//! * [`block_ingest`] — mostly writes: a closed loop of full-volume
//!   mainnet-shaped blocks through `Subnet::execute_round` into the
//!   canister, as in initial sync.
//! * [`chain_sync`] — the full stack: blocks mined on the simulated
//!   Bitcoin network at a fixed cadence, synced by 13 adapters and
//!   ingested by the canister.
//!
//! One *repetition* sets a workload up from its seed ([`setup`]), runs it
//! and checks the outputs ([`run`], which returns a [`Rep`]). Metrics come in two kinds: *modeled* ones are
//! deterministic functions of the seed (metered instructions, sim-time
//! latencies, counts), *host* ones are wall-clock times of the
//! simulator. Host times per layer are only taken in a traced
//! repetition, from spans the benchmark records around its calls into
//! each layer's public functions ([`trace`]); the crates themselves are
//! not instrumented for it.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use icbtc::bitcoin::builder::coinbase_transaction;
use icbtc::bitcoin::{merkle_root, Address, Amount, Block, BlockHeader, Script, Transaction};
use icbtc::canister::{CanisterCall, UtxosFilter};
use icbtc::sim::SimRng;

pub mod block_ingest;
pub mod chain_sync;
mod measure;
pub mod query_mix;
pub mod trace;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mostly reads through the subnet query plane.
    QueryMix,
    /// Mostly writes: full-volume block ingestion.
    BlockIngest,
    /// Mining, adapter sync and ingestion through the whole stack.
    ChainSync,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::QueryMix,
        Workload::BlockIngest,
        Workload::ChainSync,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryMix => "query_mix",
            Workload::BlockIngest => "block_ingest",
            Workload::ChainSync => "chain_sync",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload size: `Full` is what the benchmark measures; `Small` keeps the
/// same shape at a fraction of the work, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A quick size for tests.
    Small,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
}

/// The result of one repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds spent building the inputs (set by the caller of
    /// [`run`], which times [`setup`]).
    pub setup_s: f64,
    /// Host seconds of the timed phase (checks excluded).
    pub run_s: f64,
    /// Modeled metrics, end-to-end and per-layer: a function of the seed.
    pub modeled: Metrics,
    /// Per-layer host metrics; those of the run are only meaningful in a
    /// traced repetition.
    pub host: Metrics,
    /// Operations attempted (queries, blocks).
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The canister's final replicated-state hash.
    pub state_hash: [u8; 32],
}

impl Rep {
    /// Records one check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push(Check {
            name: name.into(),
            passed,
        });
    }

    /// Sets a modeled metric.
    pub fn modeled(&mut self, name: &str, value: f64) {
        self.modeled.insert(name.to_string(), value);
    }

    /// Sets a per-layer host metric.
    pub fn host(&mut self, name: &str, value: f64) {
        self.host.insert(name.to_string(), value);
    }
}

/// A workload's inputs, built from its seed.
pub enum Inputs {
    /// `query_mix` inputs.
    QueryMix(Box<query_mix::Inputs>),
    /// `block_ingest` inputs.
    BlockIngest(block_ingest::Inputs),
    /// `chain_sync` inputs.
    ChainSync(Box<chain_sync::Inputs>),
}

/// The set-up phase: builds `workload`'s inputs from `seed`.
pub fn setup(workload: Workload, seed: u64, size: Size) -> Inputs {
    match workload {
        Workload::QueryMix => Inputs::QueryMix(Box::new(query_mix::setup(seed, size))),
        Workload::BlockIngest => Inputs::BlockIngest(block_ingest::setup(seed, size)),
        Workload::ChainSync => Inputs::ChainSync(Box::new(chain_sync::setup(seed, size))),
    }
}

/// The timed phase: runs the workload on `inputs` and checks its outputs.
pub fn run(inputs: Inputs, traced: bool) -> Rep {
    match inputs {
        Inputs::QueryMix(inputs) => query_mix::run(*inputs, traced),
        Inputs::BlockIngest(inputs) => block_ingest::run(inputs, traced),
        Inputs::ChainSync(inputs) => chain_sync::run(*inputs, traced),
    }
}

/// Nearest-rank quantile (`permille` of 1000) of `values`; 0 when empty.
pub fn quantile(values: &[u64], permille: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (permille as usize * sorted.len()).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `part / whole × 1000`, 0 when `whole` is 0.
pub fn permille(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part * 1000.0 / whole
    }
}

/// Nanoseconds as milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The query traffic shared by the workloads: the paper's Fig. 7 call
/// mix (45% `get_balance`, 45% `get_utxos`, 10% fee percentiles, or an
/// even balance/UTXO split when fee queries are off) with 60% of traffic
/// on a hot set of addresses.
pub struct QueryStream {
    addresses: Vec<Address>,
    hot: usize,
    min_confirmations: u32,
    fee_queries: bool,
    rng: SimRng,
}

impl QueryStream {
    /// A stream over `addresses`, the first `hot` of which are the hot set.
    pub fn new(
        addresses: Vec<Address>,
        hot: usize,
        min_confirmations: u32,
        fee_queries: bool,
        seed: u64,
    ) -> QueryStream {
        assert!(!addresses.is_empty(), "query stream needs addresses");
        let hot = hot.clamp(1, addresses.len());
        QueryStream {
            addresses,
            hot,
            min_confirmations,
            fee_queries,
            rng: SimRng::seed_from(seed),
        }
    }

    /// The next call.
    pub fn next_call(&mut self) -> CanisterCall {
        let address = if self.rng.below(100) < 60 {
            self.addresses[self.rng.index(self.hot)]
        } else {
            self.addresses[self.rng.index(self.addresses.len())]
        };
        let filter = match self.min_confirmations {
            0 => None,
            c => Some(UtxosFilter::MinConfirmations(c)),
        };
        let (balance_below, utxos_below) = if self.fee_queries {
            (45, 90)
        } else {
            (50, 100)
        };
        match self.rng.below(100) {
            kind if kind < balance_below => CanisterCall::GetBalance {
                address,
                min_confirmations: self.min_confirmations,
            },
            kind if kind < utxos_below => CanisterCall::GetUtxos { address, filter },
            _ => CanisterCall::GetFeePercentiles,
        }
    }
}

/// Hex rendering of a state hash.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Mines a regtest block on top of `prev` carrying a real coinbase for
/// `height` followed by `txs`: real merkle root, a timestamp ten minutes
/// after its parent's, and a header that meets the proof-of-work target.
pub fn mine_block(prev: &BlockHeader, height: u64, txs: Vec<Transaction>) -> Block {
    let coinbase = coinbase_transaction(
        height,
        Amount::from_btc_int(3),
        Script::new_op_return(b"perfbench"),
        height,
    );
    let mut txdata = Vec::with_capacity(txs.len() + 1);
    txdata.push(coinbase);
    txdata.extend(txs);
    let mut header = BlockHeader {
        version: 2,
        prev_blockhash: prev.block_hash(),
        merkle_root: merkle_root(&txdata.iter().map(|t| t.txid()).collect::<Vec<_>>()),
        time: prev.time + 600,
        bits: prev.bits,
        nonce: 0,
    };
    while !header.meets_pow_target() {
        header.nonce += 1;
    }
    Block { header, txdata }
}

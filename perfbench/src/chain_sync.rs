//! `chain_sync`: the full stack.
//!
//! Blocks are mined on the simulated Bitcoin network at a fixed cadence
//! (an open loop of block production, the Poisson miner switched off),
//! 13 adapters sync them, and the canister ingests what the round's block
//! maker's adapter delivers, until it has caught up with the best height.
//! Each block carries a few small `ChainGen` transactions, relayed through
//! node 0's mempool. A light query probe runs alongside.
//!
//! [`Stack`] composes exactly the public calls `System::new` and
//! `System::step_round` make — `BtcNetwork::run_until`,
//! `BitcoinAdapter::step`/`handle_request`, `Subnet::execute_round_with`
//! and `BitcoinCanister::ingest_response` — so the benchmark can time each
//! layer from outside; a test checks it reaches the same canister state
//! as `System::step_round`.

use std::time::Instant;

use icbtc::adapter::BitcoinAdapter;
use icbtc::bitcoin::{Address, AddressKind, Network, Transaction};
use icbtc::btcnet::network::BtcNetwork;
use icbtc::btcnet::NodeId;
use icbtc::canister::BitcoinCanister;
use icbtc::core::GetSuccessorsResponse;
use icbtc::ic::Subnet;
use icbtc::sim::{SimDuration, SimRng, SimTime};
use icbtc::system::SystemConfig;
use icbtc::tecdsa::protocol::ThresholdKey;
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};

use crate::measure::Tally;
use crate::trace::{Clock, TracedCanister};
use crate::{permille, QueryStream, Rep, Size};

/// Sim-seconds between mined blocks.
const CADENCE_S: u64 = 3;
/// Distinct coinbase payout (and probe) addresses.
const PAYEES: u64 = 32;
/// Probe queries submitted per round.
const PROBES_PER_ROUND: usize = 2;
/// Height deciles of the per-block host profile.
const DECILES: usize = 10;

/// Blocks mined in one repetition.
pub fn blocks_for(size: Size) -> u64 {
    match size {
        Size::Full => 600,
        Size::Small => 60,
    }
}

/// The deployment: `SystemConfig::regtest` with the Poisson miner off,
/// so the benchmark alone decides when blocks are mined.
pub fn config(seed: u64) -> SystemConfig {
    let mut config = SystemConfig::regtest(seed);
    config.btc.mean_block_interval = SimDuration::from_secs(1 << 40);
    config
}

/// The coinbase payee of the `index`-th mined block.
fn payee(index: u64) -> Address {
    let mut hash = [0u8; 20];
    hash[..8].copy_from_slice(&(index % PAYEES).to_le_bytes());
    hash[9] = 0xc5;
    Address::new(Network::Regtest, AddressKind::P2wpkh(hash))
}

/// Mines every block due by `until` on node 0, one per `CADENCE_S`:
/// the block's transactions (taken from `block_txs`, one entry per block)
/// are submitted to node 0's mempool and mined into it. Records each
/// block's due time and returns the host ns spent in `run_until` and in
/// submitting and mining.
pub fn mine_due(
    btc: &mut BtcNetwork,
    until: SimTime,
    due_at: &mut Vec<SimTime>,
    block_txs: &mut [Vec<Transaction>],
    clock: Clock,
) -> (u64, u64) {
    let (mut run_ns, mut mine_ns) = (0, 0);
    loop {
        let mined = due_at.len();
        let due = SimTime::from_secs(CADENCE_S * (mined as u64 + 1));
        if mined == block_txs.len() || due > until {
            return (run_ns, mine_ns);
        }
        let span = clock.start();
        btc.run_until(due);
        run_ns += span.ns();
        let span = clock.start();
        for tx in std::mem::take(&mut block_txs[mined]) {
            btc.submit_transaction(NodeId(0), tx);
        }
        btc.mine_block_paying(NodeId(0), payee(mined as u64).script_pubkey());
        mine_ns += span.ns();
        due_at.push(due);
    }
}

/// Generates each block's transactions: `ChainGen` at 1/500 of mainnet
/// volume, so blocks are small but spend real earlier outputs.
pub fn block_transactions(seed: u64, blocks: u64) -> Vec<Vec<Transaction>> {
    let mut chaingen = ChainGen::new(ChainGenConfig::default().scaled_down(500), seed);
    (0..blocks).map(|_| chaingen.next_block().0).collect()
}

/// Host time per layer, split by height decile where it grows with the
/// chain.
#[derive(Debug, Default)]
struct NetSpans {
    run_until_ns: [u64; DECILES],
    step_ns: [u64; DECILES],
    mine_ns: u64,
    handle_request_ns: u64,
    handle_requests: u64,
    blocks_delivered: u64,
}

/// The integrated system, built and stepped through the same public
/// calls as `System`.
pub struct Stack {
    /// The simulated Bitcoin network.
    pub btc: BtcNetwork,
    /// The subnet hosting the (timed) canister.
    pub subnet: Subnet<TracedCanister>,
    adapters: Vec<BitcoinAdapter>,
    rng: SimRng,
}

impl Stack {
    /// Mirrors `System::new`, drawing from the seed in the same order.
    pub fn new(config: &SystemConfig, clock: Clock) -> Stack {
        let mut rng = SimRng::seed_from(config.seed);
        let btc = BtcNetwork::new(config.btc.clone(), rng.next_u64());
        let n = config.consensus.n;
        let adapters = (0..n)
            .map(|_| BitcoinAdapter::new(config.params, rng.next_u64()))
            .collect();
        let canister = TracedCanister::new(BitcoinCanister::new(config.params), clock);
        let subnet = Subnet::new(canister, config.consensus.clone(), rng.next_u64());
        let f = (n - 1) / 3;
        let _key = ThresholdKey::generate(n, 2 * f + 1, &mut rng);
        Stack {
            btc,
            subnet,
            adapters,
            rng,
        }
    }

    /// One untimed `Stack::step_round`.
    pub fn step(&mut self) {
        self.step_round(
            Clock::new(false),
            &mut Tally::default(),
            &mut NetSpans::default(),
            0,
        );
    }

    /// Mirrors `System::step_round` (no lifecycle plan, no attack).
    fn step_round(&mut self, clock: Clock, tally: &mut Tally, spans: &mut NetSpans, decile: usize) {
        let btc_now = self.btc.now();
        if btc_now > self.subnet.now() {
            self.subnet.stall(btc_now - self.subnet.now());
        }
        let deadline = self.subnet.now();
        let span = clock.start();
        self.btc.run_until(deadline);
        spans.run_until_ns[decile] += span.ns();
        let span = clock.start();
        for adapter in &mut self.adapters {
            adapter.step(&mut self.btc);
        }
        spans.step_ns[decile] += span.ns();
        let settle = self
            .rng
            .normal(SimDuration::from_millis(300), SimDuration::from_millis(80));
        let span = clock.start();
        self.btc.run_until(deadline + settle);
        spans.run_until_ns[decile] += span.ns();

        let request = self.subnet.state_mut().canister.state_mut().make_request();
        let btc = &mut self.btc;
        let adapters = &mut self.adapters;
        let mut ingest = None;
        tally.round(&mut self.subnet, clock, |canister, ctx, info| {
            let span = clock.start();
            let response = if info.maker_is_byzantine {
                GetSuccessorsResponse::default()
            } else {
                spans.handle_requests += 1;
                adapters[info.block_maker.0 as usize].handle_request(btc, &request)
            };
            let handle_ns = span.ns();
            spans.handle_request_ns += handle_ns;
            spans.blocks_delivered += response.blocks.len() as u64;
            let txio = response
                .blocks
                .iter()
                .flat_map(|b| &b.txdata)
                .map(|t| (t.inputs.len() + t.outputs.len()) as u64)
                .sum::<u64>();
            let now_unix = btc.unix_time(ctx.now);
            ingest = Some((canister.ingest(response, now_unix, ctx), txio));
            handle_ns
        });
        let (report, txio) = ingest.expect("the payload hook always runs");
        tally.blocks_accepted += report.blocks_accepted as u64;
        tally.rejected += report.rejected.len() as u64;
        tally.ingest_txio += txio;
    }
}

/// The deployment and each block's transactions.
pub struct Inputs {
    seed: u64,
    stack: Stack,
    block_txs: Vec<Vec<Transaction>>,
    chaingen_ns: u64,
}

/// Generates the block transactions and builds the deployment.
pub fn setup(seed: u64, size: Size) -> Inputs {
    let started = Instant::now();
    let block_txs = block_transactions(seed, blocks_for(size));
    let chaingen_ns = started.elapsed().as_nanos() as u64;
    let stack = Stack::new(&config(seed), Clock::new(false));
    Inputs {
        seed,
        stack,
        block_txs,
        chaingen_ns,
    }
}

/// Mines, syncs and ingests the chain, and checks the canister caught up.
pub fn run(inputs: Inputs, traced: bool) -> Rep {
    let Inputs {
        seed,
        mut stack,
        mut block_txs,
        chaingen_ns,
    } = inputs;
    let blocks = block_txs.len() as u64;
    let clock = Clock::new(traced);
    stack.subnet.state_mut().set_clock(clock);
    let mut rep = Rep::default();
    let mut stream = QueryStream::new(
        (0..PAYEES).map(payee).collect(),
        PAYEES as usize / 4,
        0,
        true,
        seed ^ 0x9c5,
    );

    let run_start = Instant::now();
    let mut tally = Tally {
        started_at: stack.subnet.now(),
        ..Tally::default()
    };
    let mut spans = NetSpans::default();
    let mut due_at = Vec::new();
    let mut available = 0;
    let max_rounds = blocks * CADENCE_S * 2 + 600;
    let caught_up = loop {
        let decile = (due_at.len() * DECILES / blocks as usize).min(DECILES - 1);
        let (run_ns, mine_ns) = mine_due(
            &mut stack.btc,
            stack.subnet.now(),
            &mut due_at,
            &mut block_txs,
            clock,
        );
        spans.run_until_ns[decile] += run_ns;
        spans.mine_ns += mine_ns;
        for _ in 0..PROBES_PER_ROUND {
            stack.subnet.submit_query(stream.next_call());
        }
        stack.step_round(clock, &mut tally, &mut spans, decile);

        let state = stack.subnet.state().canister.state();
        let tip = state.available_tip_height().min(due_at.len() as u64);
        for due in &due_at[available as usize..tip as usize] {
            tally
                .freshness_ns
                .push(tally.ended_at.saturating_since(*due).as_nanos());
        }
        available = available.max(tip);
        let done = due_at.len() as u64 == blocks
            && state.is_synced()
            && state.available_tip_height() >= stack.btc.best_height();
        if done || tally.rounds >= max_rounds {
            break done;
        }
    };
    while stack.subnet.query_queue_depth() > 0 {
        tally.round(&mut stack.subnet, clock, |_, _, _| 0);
    }
    let run_ns = run_start.elapsed().as_nanos() as u64;
    rep.run_s = run_ns as f64 / 1e9;

    let canister = stack.subnet.state();
    let (tip_hash, tip_height) = canister.canister.state().best_tip();
    let node0 = stack.btc.node(NodeId(0)).chain();
    rep.check(
        format!("all {blocks} blocks mined"),
        due_at.len() as u64 == blocks,
    );
    rep.check(
        format!(
            "canister caught up to btcnet's best height {}",
            stack.btc.best_height()
        ),
        caught_up && tip_height == stack.btc.best_height(),
    );
    rep.check(
        "canister tip hash equals node 0's",
        tip_hash == node0.tip_hash(),
    );
    rep.check("no query answered with an error", tally.query_errors == 0);
    tally.finish(&mut rep, canister);

    let per_block = |ns: u64| ns as f64 / 1e3 / blocks as f64;
    let per_decile_block = |ns: u64| ns as f64 / 1e3 / (blocks as f64 / DECILES as f64);
    let run_until_ns: u64 = spans.run_until_ns.iter().sum();
    let step_ns: u64 = spans.step_ns.iter().sum();
    rep.host("btcnet.run_until_us_per_block", per_block(run_until_ns));
    rep.host("btcnet.mine_us_per_block", per_block(spans.mine_ns));
    rep.modeled(
        "btcnet.messages_per_block",
        stack.btc.messages_delivered() as f64 / blocks as f64,
    );
    rep.host("adapter.step_us_per_block", per_block(step_ns));
    for decile in 0..DECILES {
        rep.host(
            &format!("adapter.step_us_per_block.d{decile}"),
            per_decile_block(spans.step_ns[decile]),
        );
        rep.host(
            &format!("btcnet.run_until_us_per_block.d{decile}"),
            per_decile_block(spans.run_until_ns[decile]),
        );
    }
    rep.host(
        "adapter.step_growth_permille",
        permille(spans.step_ns[DECILES - 1] as f64, spans.step_ns[0] as f64),
    );
    rep.host(
        "adapter.handle_request_us_per_call",
        spans.handle_request_ns as f64 / 1e3 / spans.handle_requests.max(1) as f64,
    );
    rep.modeled(
        "adapter.blocks_per_response",
        spans.blocks_delivered as f64 / spans.handle_requests.max(1) as f64,
    );
    rep.modeled(
        "adapter.delivered_accepted_permille",
        permille(tally.blocks_accepted as f64, spans.blocks_delivered as f64),
    );
    rep.host(
        "bench.chaingen_ms_per_block",
        chaingen_ns as f64 / 1e6 / blocks as f64,
    );
    rep.host("bench.load_us_per_address", 0.0);
    let covered = run_until_ns + spans.mine_ns + step_ns + tally.round_ns;
    rep.host(
        "bench.unattributed_permille",
        permille(run_ns.saturating_sub(covered) as f64, run_ns as f64),
    );
    rep
}

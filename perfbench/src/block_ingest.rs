//! `block_ingest`: mostly writes.
//!
//! Full-volume mainnet-shaped `ChainGen` blocks — real coinbases, merkle
//! roots and proof-of-work headers — are fed in a closed loop, one per
//! round, through `Subnet::execute_round_with` into
//! `BitcoinCanister::ingest_response`, as in initial sync. δ is small, so
//! every block passes header validation, the unstable tree, stabilization
//! and the UTXO apply. A light probe of stable-only reads
//! (`min_confirmations = δ`, so the unstable region is never walked)
//! runs alongside.

use std::collections::HashSet;
use std::time::Instant;

use icbtc::bitcoin::{Address, Block, Network, OutPoint};
use icbtc::canister::BitcoinCanister;
use icbtc::core::{GetSuccessorsResponse, IntegrationParams};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::Subnet;
use icbtc_bench::chaingen::{BlockStats, ChainGen, ChainGenConfig};

use crate::measure::{no_network, Tally};
use crate::trace::{Clock, TracedCanister};
use crate::{mine_block, permille, QueryStream, Rep, Size};

/// Stability threshold: small, so blocks stabilize two blocks behind the tip.
const DELTA: u64 = 2;
/// Probe queries submitted per block.
const PROBES_PER_BLOCK: usize = 24;
/// Distinct probe addresses (the first quarter are the hot set).
const PROBE_ADDRESSES: usize = 256;

/// The generated blocks and what the checks need to know about them.
pub struct Inputs {
    seed: u64,
    blocks: Vec<Block>,
    stats: Vec<BlockStats>,
    /// Per block: inputs spending no earlier generated output.
    unbacked_inputs: Vec<u64>,
    addresses: Vec<Address>,
    chaingen_ns: u64,
}

/// Generates the blocks.
pub fn setup(seed: u64, size: Size) -> Inputs {
    let blocks = match size {
        Size::Full => 96,
        Size::Small => 4,
    };
    let mut chaingen = ChainGen::new(ChainGenConfig::default(), seed);
    let mut prev = Network::Regtest.genesis_block().header;
    let mut inputs = Inputs {
        seed,
        blocks: Vec::new(),
        stats: Vec::new(),
        unbacked_inputs: Vec::new(),
        addresses: Vec::new(),
        chaingen_ns: 0,
    };
    let mut seen_addresses = HashSet::new();
    let mut created: HashSet<OutPoint> = HashSet::new();
    for height in 1..=blocks {
        let start = Instant::now();
        let (txs, stats) = chaingen.next_block();
        inputs.chaingen_ns += start.elapsed().as_nanos() as u64;
        let mut unbacked = 0;
        for tx in &txs {
            for input in &tx.inputs {
                unbacked += u64::from(!created.remove(&input.previous_output));
            }
            let txid = tx.txid();
            for (vout, output) in tx.outputs.iter().enumerate() {
                created.insert(OutPoint::new(txid, vout as u32));
                if inputs.addresses.len() < PROBE_ADDRESSES {
                    if let Some(address) =
                        Address::from_script(&output.script_pubkey, Network::Regtest)
                    {
                        if seen_addresses.insert(address) {
                            inputs.addresses.push(address);
                        }
                    }
                }
            }
        }
        let block = mine_block(&prev, height, txs);
        prev = block.header;
        inputs.blocks.push(block);
        inputs.stats.push(stats);
        inputs.unbacked_inputs.push(unbacked);
    }
    inputs
}

/// Ingests the blocks and checks the result.
pub fn run(inputs: Inputs, traced: bool) -> Rep {
    let (seed, blocks) = (inputs.seed, inputs.blocks.len() as u64);
    let mut rep = Rep::default();
    let run_start = Instant::now();
    let clock = Clock::new(traced);
    let params = IntegrationParams::for_network(Network::Regtest).with_stability_delta(DELTA);
    let canister = BitcoinCanister::new(params);
    let genesis_utxos = canister.state().utxos().len() as u64;
    let mut subnet = Subnet::new(
        TracedCanister::new(canister, clock),
        ConsensusConfig::thirteen_replicas(),
        seed,
    );
    let mut stream = QueryStream::new(
        inputs.addresses.clone(),
        PROBE_ADDRESSES / 4,
        DELTA as u32,
        false,
        seed ^ 0x9c5,
    );
    let mut tally = Tally {
        started_at: subnet.now(),
        ..Tally::default()
    };
    for block in inputs.blocks {
        for _ in 0..PROBES_PER_BLOCK {
            subnet.submit_query(stream.next_call());
        }
        let due = subnet.now();
        let txio: u64 = block
            .txdata
            .iter()
            .map(|t| (t.inputs.len() + t.outputs.len()) as u64)
            .sum();
        let mut ingest = None;
        let report = tally.round(&mut subnet, clock, |canister, ctx, _| {
            let now_unix = block.header.time + 60;
            let response = GetSuccessorsResponse {
                blocks: vec![block],
                next: Vec::new(),
            };
            ingest = Some(canister.ingest(response, now_unix, ctx));
            0
        });
        let ingest = ingest.expect("the payload hook always runs");
        tally.rejected += ingest.rejected.len() as u64;
        if ingest.blocks_accepted == 1 {
            tally.blocks_accepted += 1;
            tally.ingest_txio += txio;
            tally
                .freshness_ns
                .push(report.info.finalized_at.saturating_since(due).as_nanos());
        }
    }
    while subnet.query_queue_depth() > 0 {
        tally.round(&mut subnet, clock, |_, _, _| 0);
    }
    let run_ns = run_start.elapsed().as_nanos() as u64;
    rep.run_s = run_ns as f64 / 1e9;

    // The stable set holds exactly the outputs minus the (generated)
    // inputs of every block at or below the anchor.
    let canister = subnet.state();
    let anchor = canister.canister.state().anchor_height() as usize;
    let expected: u64 = genesis_utxos
        + (0..anchor.min(inputs.stats.len()))
            .map(|i| {
                let stats = inputs.stats[i];
                stats.outputs as u64 + inputs.unbacked_inputs[i] - stats.inputs as u64
            })
            .sum::<u64>();
    let live = canister.canister.state().utxos().len() as u64;
    rep.check(
        "every block accepted",
        tally.blocks_accepted == blocks && tally.rejected == 0,
    );
    rep.check(
        format!("live UTXOs ({live}) equal outputs minus inputs over {anchor} stable blocks ({expected})"),
        live == expected && anchor as u64 + DELTA >= blocks,
    );
    rep.check("no query answered with an error", tally.query_errors == 0);
    tally.finish(&mut rep, canister);

    no_network(&mut rep);
    rep.host(
        "bench.chaingen_ms_per_block",
        inputs.chaingen_ns as f64 / 1e6 / blocks as f64,
    );
    rep.host("bench.load_us_per_address", 0.0);
    rep.host(
        "bench.unattributed_permille",
        permille((run_ns - tally.round_ns) as f64, run_ns as f64),
    );
    rep
}

//! `query_mix`: mostly reads.
//!
//! Setup loads a large stable address population with the paper's
//! UTXO-count skew (`icbtc_bench::workload::soak_utxo_counts`) over a
//! stable history of mainnet-shaped `ChainGen` blocks, then stacks an
//! unstable region of further `ChainGen` blocks on top, mined with real
//! proof of work. The run is an open loop through the subnet query plane:
//! a fixed number of queries is submitted every round (the paper's
//! Fig. 7 mix, 60% on a hot set) and a block is ingested every few
//! rounds, moving the tip, stabilizing the block δ below it and
//! invalidating the query cache. `btcnet` and the adapters are not
//! involved.

use std::time::Instant;

use icbtc::bitcoin::{
    Address, AddressKind, Amount, Block, BlockHeader, MerkleRoot, Network, OutPoint, Transaction,
    TxIn, TxOut, Txid,
};
use icbtc::canister::{
    BitcoinCanister, BitcoinCanisterState, CanisterCall, CanisterReply, UtxoSet,
};
use icbtc::core::{GetSuccessorsResponse, IntegrationParams};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::{Meter, MeterBreakdown, Subnet};
use icbtc::sim::SimRng;
use icbtc_bench::chaingen::{ChainGen, ChainGenConfig};
use icbtc_bench::workload::soak_utxo_counts;

use crate::measure::{no_network, Tally};
use crate::trace::{Clock, TracedCanister};
use crate::{mine_block, permille, QueryStream, Rep, Size};

struct Config {
    /// Stable address population.
    addresses: usize,
    /// Divisor applied to the paper's per-address UTXO counts.
    utxo_scale: usize,
    /// Stable `ChainGen` history blocks under the population.
    history_blocks: u64,
    /// Divisor applied to mainnet per-block transaction volume.
    volume_divisor: u64,
    /// Blocks ingested during the run, one every `ingest_every` rounds.
    ingest_blocks: u64,
    /// Rounds between ingested blocks.
    ingest_every: u64,
    /// Queries submitted per round.
    rate: usize,
}

const FULL: Config = Config {
    addresses: 100_000,
    utxo_scale: 250,
    history_blocks: 200,
    volume_divisor: 50,
    ingest_blocks: 100,
    ingest_every: 4,
    rate: 12,
};

const SMALL: Config = Config {
    addresses: 3_000,
    utxo_scale: 250,
    history_blocks: 30,
    volume_divisor: 250,
    ingest_blocks: 8,
    ingest_every: 4,
    rate: 8,
};

/// Queries on the hot set's addresses.
const HOT_SET: usize = 1024;
/// One query in this many is re-run uncached as an oracle.
const ORACLE_ONE_IN: u64 = 50;
/// Addresses whose balance is checked against their UTXOs (all of them
/// fit one page at this scale).
const BALANCE_SAMPLES: usize = 200;

fn address(tag: u64) -> Address {
    let mut hash = [0u8; 20];
    hash[..8].copy_from_slice(&tag.to_le_bytes());
    hash[9] = 0x51;
    Address::new(Network::Regtest, AddressKind::P2wpkh(hash))
}

/// An input spending an outpoint outside the generated history: the
/// funding source of the population's outputs.
fn funding_input(height: u64, index: u64) -> TxIn {
    let mut txid = [0u8; 32];
    txid[..8].copy_from_slice(&height.to_le_bytes());
    txid[8..16].copy_from_slice(&index.to_le_bytes());
    txid[31] = 0xfb;
    TxIn::new(OutPoint::new(Txid(txid), 0))
}

/// The loaded canister and the blocks the run ingests.
pub struct Inputs {
    seed: u64,
    config: &'static Config,
    canister: BitcoinCanister,
    addresses: Vec<Address>,
    blocks: Vec<Block>,
    chaingen_ns: u64,
    chaingen_blocks: u64,
    /// Set-up host ns outside `ChainGen`.
    load_ns: u64,
}

/// Loads the population and the unstable region, and mines the blocks
/// the run ingests.
pub fn setup(seed: u64, size: Size) -> Inputs {
    let started = Instant::now();
    let config = match size {
        Size::Full => &FULL,
        Size::Small => &SMALL,
    };
    let mut rng = SimRng::seed_from(seed);
    let counts = soak_utxo_counts(&mut rng, config.addresses, config.utxo_scale);
    let addresses: Vec<Address> = (0..config.addresses as u64).map(address).collect();
    let mut chaingen = ChainGen::new(
        ChainGenConfig::default().scaled_down(config.volume_divisor),
        rng.next_u64(),
    );
    let mut chaingen_ns = 0;
    let mut next_chaingen_block = || {
        let start = Instant::now();
        let (txs, _) = chaingen.next_block();
        chaingen_ns += start.elapsed().as_nanos() as u64;
        txs
    };

    // Stable history: the population's outputs spread round-robin over
    // the heights, each height also carrying one ChainGen block.
    let heights = config.history_blocks;
    let mut per_height: Vec<Vec<TxOut>> = vec![Vec::new(); heights as usize];
    for (i, (&address, &count)) in addresses.iter().zip(&counts).enumerate() {
        for k in 0..count as usize {
            per_height[(i + k * 7) % heights as usize].push(TxOut::new(
                Amount::from_sat(600 + k as u64),
                address.script_pubkey(),
            ));
        }
    }
    let mut utxos = UtxoSet::new(Network::Regtest);
    let (mut meter, mut breakdown) = (Meter::new(), MeterBreakdown::new());
    utxos.ingest_block(&[], 0, &mut meter, &mut breakdown);
    let genesis = Network::Regtest.genesis_block().header;
    let mut headers = vec![genesis];
    for (slot, outputs) in per_height.into_iter().enumerate() {
        let height = slot as u64 + 1;
        let mut txs = next_chaingen_block();
        txs.extend(
            outputs
                .chunks(1000)
                .enumerate()
                .map(|(i, chunk)| Transaction {
                    version: 2,
                    inputs: vec![funding_input(height, i as u64)],
                    outputs: chunk.to_vec(),
                    lock_time: 0,
                }),
        );
        utxos.ingest_block(&txs, height, &mut meter, &mut breakdown);
        let prev = headers[headers.len() - 1];
        headers.push(BlockHeader {
            version: 2,
            prev_blockhash: prev.block_hash(),
            merkle_root: MerkleRoot([height as u8; 32]),
            time: prev.time + 600,
            bits: genesis.bits,
            nonce: 0,
        });
    }

    // The regtest δ: the unstable region keeps δ blocks while each
    // ingested block stabilizes the one δ below it.
    let params = IntegrationParams::for_network(Network::Regtest);
    let unstable = params.stability_delta;
    let mut state = BitcoinCanisterState::new(params);
    state.install_snapshot(utxos, headers.clone());

    let mut prev = headers[headers.len() - 1];
    let mut blocks: Vec<Block> = (0..unstable + config.ingest_blocks)
        .map(|i| {
            let block = mine_block(&prev, heights + 1 + i, next_chaingen_block());
            prev = block.header;
            block
        })
        .collect();
    let run_blocks = blocks.split_off(unstable as usize);
    let now_unix = prev.time + 60;
    let report = state.process_response(
        GetSuccessorsResponse {
            blocks,
            next: Vec::new(),
        },
        now_unix,
        &mut Meter::new(),
    );
    assert_eq!(
        report.blocks_accepted as u64, unstable,
        "rejected: {:?}",
        report.rejected
    );
    assert!(state.is_synced(), "setup state must be synced");

    let chaingen_blocks = heights + unstable + config.ingest_blocks;
    Inputs {
        seed,
        config,
        canister: BitcoinCanister::from_state(state),
        addresses,
        blocks: run_blocks,
        load_ns: started.elapsed().as_nanos() as u64 - chaingen_ns,
        chaingen_ns,
        chaingen_blocks,
    }
}

/// Runs the query loop and checks the replies.
pub fn run(inputs: Inputs, traced: bool) -> Rep {
    let (seed, config) = (inputs.seed, inputs.config);
    let mut rep = Rep::default();
    let mut stream = QueryStream::new(inputs.addresses.clone(), HOT_SET, 0, true, seed ^ 0x9c5);
    let mut oracle_rng = SimRng::seed_from(seed ^ 0x0c1e);

    let run_start = Instant::now();
    let clock = Clock::new(traced);
    let mut subnet = Subnet::new(
        TracedCanister::new(inputs.canister, clock),
        ConsensusConfig::thirteen_replicas(),
        seed,
    );
    let mut tally = Tally {
        started_at: subnet.now(),
        ..Tally::default()
    };
    let mut blocks = inputs.blocks.into_iter();
    let (mut check_ns, mut oracle_checked, mut oracle_mismatches) = (0, 0, 0);

    for round in 0..config.ingest_blocks * config.ingest_every {
        let mut sampled = Vec::new();
        for _ in 0..config.rate {
            let call = stream.next_call();
            let oracle = oracle_rng.below(ORACLE_ONE_IN) == 0;
            let id = subnet.submit_query(call.clone());
            if oracle {
                sampled.push((id, call));
            }
        }
        let block = if round % config.ingest_every == 0 {
            blocks.next()
        } else {
            None
        };
        let due = subnet.now();
        let txio = block.as_ref().map_or(0, |b| {
            b.txdata
                .iter()
                .map(|t| (t.inputs.len() + t.outputs.len()) as u64)
                .sum()
        });
        let mut ingest = None;
        let report = tally.round(&mut subnet, clock, |canister, ctx, _| {
            if let Some(block) = block {
                let now_unix = block.header.time + 60;
                let response = GetSuccessorsResponse {
                    blocks: vec![block],
                    next: Vec::new(),
                };
                ingest = Some(canister.ingest(response, now_unix, ctx));
            }
            0
        });
        if let Some(ingest) = ingest {
            tally.rejected += ingest.rejected.len() as u64;
            if ingest.blocks_accepted == 1 {
                tally.blocks_accepted += 1;
                tally.ingest_txio += txio;
                tally
                    .freshness_ns
                    .push(report.info.finalized_at.saturating_since(due).as_nanos());
            }
        }

        // Oracle: a sampled reply, served through the cache, equals the
        // uncached query at the same tip.
        let check_start = Instant::now();
        for (id, call) in sampled {
            let Some(result) = report.query_results.iter().find(|r| r.id == id) else {
                continue;
            };
            let uncached = subnet.state().canister.query(&call, &mut Meter::new());
            oracle_checked += 1;
            oracle_mismatches += u64::from(uncached.reply != result.output.reply);
        }
        check_ns += check_start.elapsed().as_nanos() as u64;
    }
    // Drain the queries still in flight so every submitted query counts.
    while subnet.query_queue_depth() > 0 {
        tally.round(&mut subnet, clock, |_, _, _| 0);
    }
    let run_ns = run_start.elapsed().as_nanos() as u64 - check_ns;
    rep.run_s = run_ns as f64 / 1e9;

    let canister = subnet.state();
    let balance_mismatches =
        balance_matches_utxos(&canister.canister, &inputs.addresses, &mut oracle_rng);
    let submitted = config.ingest_blocks * config.ingest_every * config.rate as u64;
    rep.check(
        "every query answered",
        tally.query_latency_ns.len() as u64 == submitted,
    );
    rep.check("no query answered with an error", tally.query_errors == 0);
    rep.check(
        "every block ingested",
        tally.blocks_accepted == config.ingest_blocks && tally.rejected == 0,
    );
    rep.check(
        format!("{oracle_checked} sampled cached replies equal uncached replies"),
        oracle_checked > 0 && oracle_mismatches == 0,
    );
    rep.check(
        format!("get_balance equals the sum of get_utxos for {BALANCE_SAMPLES} sampled addresses"),
        balance_mismatches == Some(0),
    );
    tally.finish(&mut rep, canister);

    no_network(&mut rep);
    rep.host(
        "bench.chaingen_ms_per_block",
        inputs.chaingen_ns as f64 / 1e6 / inputs.chaingen_blocks as f64,
    );
    rep.host(
        "bench.load_us_per_address",
        inputs.load_ns as f64 / 1e3 / config.addresses as f64,
    );
    rep.host(
        "bench.unattributed_permille",
        permille((run_ns - tally.round_ns) as f64, run_ns as f64),
    );
    rep
}

/// For sampled addresses whose UTXOs fit one page, checks `get_balance`
/// against the sum of `get_utxos`. Returns the mismatch count, or `None`
/// when no sampled address fits one page.
fn balance_matches_utxos(
    canister: &BitcoinCanister,
    addresses: &[Address],
    rng: &mut SimRng,
) -> Option<u64> {
    let (mut checked, mut mismatches) = (0, 0);
    for _ in 0..BALANCE_SAMPLES {
        let address = addresses[rng.index(addresses.len())];
        let utxos = canister
            .query(
                &CanisterCall::GetUtxos {
                    address,
                    filter: None,
                },
                &mut Meter::new(),
            )
            .reply;
        let balance = canister
            .query(
                &CanisterCall::GetBalance {
                    address,
                    min_confirmations: 0,
                },
                &mut Meter::new(),
            )
            .reply;
        match (utxos, balance) {
            (Ok(CanisterReply::Utxos(page)), Ok(CanisterReply::Balance(balance)))
                if page.next_page.is_none() =>
            {
                checked += 1;
                let sum = page
                    .utxos
                    .iter()
                    .fold(Amount::ZERO, |t, u| t.saturating_add(u.value));
                mismatches += u64::from(sum != balance.balance);
            }
            (Ok(CanisterReply::Utxos(_)), Ok(CanisterReply::Balance(_))) => {}
            _ => mismatches += 1,
        }
    }
    (checked > 0).then_some(mismatches)
}

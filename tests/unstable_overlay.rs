//! Differential test of the canister's unstable-region reads against an
//! oracle that re-derives everything per query.
//!
//! The canister indexes each unstable block once at ingest (its txids and
//! the outpoints it spends) and keeps the best chain between ingests.
//! The oracle below is the straightforward per-query form of the same
//! reads: it walks the tree's best chain, re-hashes every unstable
//! transaction and collects every spent outpoint into a fresh set on each
//! call. On random chains with forks, reorgs and spends inside the
//! unstable region, `get_balance`, `get_utxos` (at every page size) and
//! `get_current_fee_percentiles` must return the same replies *and* the
//! same metered instruction counts from both — also after a checkpoint
//! round trip, whose bytes must be stable.

use std::collections::BTreeSet;

use icbtc::bitcoin::builder::coinbase_transaction;
use icbtc::bitcoin::{
    merkle_root, Address, AddressKind, Amount, Block, BlockHash, BlockHeader, Network, OutPoint,
    Transaction, TxIn, TxOut, Txid,
};
use icbtc::canister::metering;
use icbtc::canister::{
    ApiError, BitcoinCanister, BitcoinCanisterState, GetBalanceResponse, GetUtxosResponse, Utxo,
    UtxosFilter,
};
use icbtc::core::{GetSuccessorsResponse, IntegrationParams};
use icbtc::ic::Meter;
use icbtc_sim::{testkit, SimRng};

const NOW: u32 = 2_000_000_000;

/// Addresses the generated transactions pay; few, so each collects many
/// stable and unstable UTXOs.
const ADDRESSES: u8 = 4;

fn addr(n: u8) -> Address {
    Address::new(Network::Regtest, AddressKind::P2wpkh([n; 20]))
}

// ---------------------------------------------------------------------
// The oracle: per-query unstable view, re-hashing every transaction
// ---------------------------------------------------------------------

/// Page-token layout of the canister API: version ‖ min_confirmations ‖
/// tip hash ‖ cursor height ‖ cursor txid ‖ cursor vout.
const TOKEN_VERSION: u8 = 2;
const TOKEN_LEN: usize = 1 + 4 + 32 + 8 + 32 + 4;

fn encode_token(min_confirmations: u32, tip: &BlockHash, last: &Utxo) -> Vec<u8> {
    let mut out = vec![TOKEN_VERSION];
    out.extend_from_slice(&min_confirmations.to_le_bytes());
    out.extend_from_slice(&tip.0);
    out.extend_from_slice(&last.height.to_le_bytes());
    out.extend_from_slice(&last.outpoint.txid.0);
    out.extend_from_slice(&last.outpoint.vout.to_le_bytes());
    out
}

/// `(min_confirmations, tip, cursor)` of a token.
fn decode_token(bytes: &[u8]) -> Option<(u32, BlockHash, (u64, OutPoint))> {
    if bytes.len() != TOKEN_LEN || bytes[0] != TOKEN_VERSION {
        return None;
    }
    let min_confirmations = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
    let tip = BlockHash(bytes[5..37].try_into().unwrap());
    let height = u64::from_le_bytes(bytes[37..45].try_into().unwrap());
    let txid = Txid(bytes[45..77].try_into().unwrap());
    let vout = u32::from_le_bytes(bytes[77..81].try_into().unwrap());
    Some((min_confirmations, tip, (height, OutPoint::new(txid, vout))))
}

struct OracleOverlay {
    created: Vec<Utxo>,
    spent: BTreeSet<OutPoint>,
    tip_hash: BlockHash,
    tip_height: u64,
}

fn oracle_overlay(
    state: &BitcoinCanisterState,
    address: &Address,
    min_confirmations: u32,
    meter: &mut Meter,
) -> Result<OracleOverlay, ApiError> {
    let delta = state.params().stability_delta;
    if min_confirmations as u64 > delta {
        return Err(ApiError::MinConfirmationsTooLarge {
            requested: min_confirmations,
            maximum: delta as u32,
        });
    }
    let script = address.script_pubkey();
    let tree = state.tree();
    let mut overlay = OracleOverlay {
        created: Vec::new(),
        spent: BTreeSet::new(),
        tip_hash: tree.root(),
        tip_height: state.anchor_height(),
    };
    for (i, hash) in tree.best_chain().iter().enumerate().skip(1) {
        if min_confirmations > 0 && !tree.is_confirmation_stable(hash, min_confirmations as u64) {
            break;
        }
        let Some(block) = state.block(hash) else { break };
        meter.charge(metering::UNSTABLE_BLOCK_SCAN);
        let height = state.anchor_height() + i as u64;
        for tx in &block.txdata {
            let txid = tx.txid();
            if !tx.is_coinbase() {
                overlay.spent.extend(tx.inputs.iter().map(|input| input.previous_output));
            }
            for (vout, output) in tx.outputs.iter().enumerate() {
                if output.script_pubkey == script {
                    meter.charge(metering::UNSTABLE_UTXO_FETCH);
                    overlay.created.push(Utxo {
                        outpoint: OutPoint::new(txid, vout as u32),
                        value: output.value,
                        height,
                    });
                }
            }
        }
        overlay.tip_hash = *hash;
        overlay.tip_height = height;
    }
    let spent = &overlay.spent;
    overlay.created.retain(|u| !spent.contains(&u.outpoint));
    overlay.created.sort_by(|a, b| b.height.cmp(&a.height).then(a.outpoint.cmp(&b.outpoint)));
    Ok(overlay)
}

fn oracle_balance(
    state: &BitcoinCanisterState,
    address: &Address,
    min_confirmations: u32,
    meter: &mut Meter,
) -> Result<GetBalanceResponse, ApiError> {
    meter.charge(metering::QUERY_BASE);
    if !state.is_synced() {
        return Err(ApiError::NotSynced);
    }
    let overlay = oracle_overlay(state, address, min_confirmations, meter)?;
    let stable = state
        .utxos()
        .utxos_after(address, None)
        .filter(|u| !overlay.spent.contains(&u.outpoint))
        .fold(Amount::ZERO, |total, u| {
            meter.charge(metering::STABLE_BALANCE_ENTRY);
            total.saturating_add(u.value)
        });
    let unstable =
        overlay.created.iter().fold(Amount::ZERO, |total, u| total.saturating_add(u.value));
    let balance = stable.saturating_add(unstable);
    Ok(GetBalanceResponse { balance, tip_height: overlay.tip_height })
}

fn oracle_utxos(
    state: &BitcoinCanisterState,
    address: &Address,
    filter: Option<UtxosFilter>,
    page_size: usize,
    meter: &mut Meter,
) -> Result<GetUtxosResponse, ApiError> {
    meter.charge(metering::QUERY_BASE);
    if !state.is_synced() {
        return Err(ApiError::NotSynced);
    }
    let (min_confirmations, token) = match &filter {
        None => (0, None),
        Some(UtxosFilter::MinConfirmations(c)) => (*c, None),
        Some(UtxosFilter::Page(bytes)) => {
            let (c, tip, cursor) = decode_token(bytes).ok_or(ApiError::MalformedPage)?;
            (c, Some((tip, cursor)))
        }
    };
    let overlay = oracle_overlay(state, address, min_confirmations, meter)?;
    let cursor = match token {
        Some((tip, _)) if tip != overlay.tip_hash => return Err(ApiError::MalformedPage),
        Some((_, cursor)) => Some(cursor),
        None => None,
    };
    let after = |u: &Utxo| match cursor {
        None => true,
        Some((height, outpoint)) => {
            u.height < height || (u.height == height && u.outpoint > outpoint)
        }
    };
    let created = overlay.created.iter().filter(|u| after(u)).cloned();
    let stable = state
        .utxos()
        .utxos_after(address, cursor)
        .filter(|u| !overlay.spent.contains(&u.outpoint));
    let mut page = Vec::new();
    let mut more = false;
    for utxo in created.chain(stable) {
        if page.len() == page_size.max(1) {
            more = true;
            break;
        }
        if utxo.height <= state.anchor_height() {
            meter.charge(metering::STABLE_UTXO_FETCH);
        }
        page.push(utxo);
    }
    let next_page = match (more, page.last()) {
        (true, Some(last)) => Some(encode_token(min_confirmations, &overlay.tip_hash, last)),
        _ => None,
    };
    Ok(GetUtxosResponse {
        utxos: page,
        tip_block_hash: overlay.tip_hash,
        tip_height: overlay.tip_height,
        next_page,
    })
}

fn oracle_lookup_unstable_output(
    state: &BitcoinCanisterState,
    outpoint: &OutPoint,
    meter: &mut Meter,
) -> Option<Amount> {
    for hash in state.tree().best_chain().iter().skip(1) {
        let block = state.block(hash)?;
        meter.charge(metering::UNSTABLE_BLOCK_SCAN);
        for tx in &block.txdata {
            meter.charge(metering::UNSTABLE_UTXO_FETCH);
            if tx.txid() == outpoint.txid {
                return tx.outputs.get(outpoint.vout as usize).map(|o| o.value);
            }
        }
    }
    None
}

fn oracle_fee(state: &BitcoinCanisterState, tx: &Transaction, meter: &mut Meter) -> Option<Amount> {
    let mut input_total = Amount::ZERO;
    for input in &tx.inputs {
        let op = input.previous_output;
        meter.charge(metering::STABLE_UTXO_FETCH);
        let value = match state.utxos().get(&op) {
            Some(utxo) => utxo.value,
            None => oracle_lookup_unstable_output(state, &op, meter)?,
        };
        input_total = input_total.checked_add(value)?;
    }
    input_total.checked_sub(tx.output_value())
}

fn oracle_fee_percentiles(state: &BitcoinCanisterState, meter: &mut Meter) -> Vec<u64> {
    meter.charge(metering::QUERY_BASE);
    let mut rates: Vec<u64> = Vec::new();
    for hash in state.tree().best_chain().iter().skip(1).rev().take(6) {
        let Some(block) = state.block(hash) else { continue };
        meter.charge(metering::UNSTABLE_BLOCK_SCAN);
        for tx in block.txdata.iter().filter(|t| !t.is_coinbase()) {
            if let Some(fee) = oracle_fee(state, tx, meter) {
                rates.push(fee.to_sat() * 1000 / tx.vsize().max(1) as u64);
            }
        }
    }
    if rates.is_empty() {
        return Vec::new();
    }
    rates.sort_unstable();
    (1..=100u64)
        .map(|p| rates[((p as usize * rates.len()).div_ceil(100) - 1).min(rates.len() - 1)])
        .collect()
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// Runs `live` and `oracle` on fresh meters; both reply and metered
/// instructions must agree.
fn same<T: PartialEq + std::fmt::Debug>(
    context: &str,
    live: impl FnOnce(&mut Meter) -> T,
    oracle: impl FnOnce(&mut Meter) -> T,
) -> T {
    let (mut live_meter, mut oracle_meter) = (Meter::new(), Meter::new());
    let reply = live(&mut live_meter);
    assert_eq!(reply, oracle(&mut oracle_meter), "{context}: replies differ");
    assert_eq!(
        live_meter.instructions(),
        oracle_meter.instructions(),
        "{context}: metered instructions differ"
    );
    reply
}

/// Checks every read the overlay serves, for every address, every
/// `min_confirmations` up to δ + 1 and every page size.
fn assert_reads_match_oracle(state: &BitcoinCanisterState, context: &str) {
    let delta = state.params().stability_delta as u32;
    same(
        &format!("{context}: fee percentiles"),
        |m| state.get_current_fee_percentiles(m),
        |m| oracle_fee_percentiles(state, m),
    );
    for n in 0..=ADDRESSES {
        let address = addr(n);
        for c in 0..=delta + 1 {
            let _ = same(
                &format!("{context}: balance of {n} at c = {c}"),
                |m| state.get_balance(&address, c, m),
                |m| oracle_balance(state, &address, c, m),
            );
        }
        for page_size in [1, 2, 3, 7, 10_000] {
            for c in 0..=delta {
                let mut filter = Some(UtxosFilter::MinConfirmations(c));
                let mut pages = 0;
                loop {
                    let reply = same(
                        &format!("{context}: utxos of {n}, c {c}, size {page_size}, page {pages}"),
                        |m| state.get_utxos_paged(&address, filter.clone(), page_size, m),
                        |m| oracle_utxos(state, &address, filter.clone(), page_size, m),
                    );
                    pages += 1;
                    match reply {
                        Ok(GetUtxosResponse { next_page: Some(token), .. }) => {
                            filter = Some(UtxosFilter::Page(token));
                        }
                        _ => break,
                    }
                }
            }
        }
        let _ = same(
            &format!("{context}: utxos of {n}, no filter"),
            |m| state.get_utxos_paged(&address, None, 4, m),
            |m| oracle_utxos(state, &address, None, 4, m),
        );
    }
}

// ---------------------------------------------------------------------
// Random chains
// ---------------------------------------------------------------------

/// A mined block and where it sits in the generator's block tree.
struct Mined {
    block: Block,
    height: u64,
    parent: Option<usize>,
}

/// Mines random blocks on a tree of branches and remembers every output
/// it created, so later transactions can spend stable outputs, outputs
/// inside the unstable region, outputs of other branches, or nothing
/// that exists at all.
struct ChainGen {
    mined: Vec<Mined>,
    outputs: Vec<(OutPoint, Amount)>,
    tip: usize,
    tag: u64,
}

impl ChainGen {
    fn new() -> ChainGen {
        let genesis = Network::Regtest.genesis_block().clone();
        ChainGen {
            mined: vec![Mined { block: genesis, height: 0, parent: None }],
            outputs: Vec::new(),
            tip: 0,
            tag: 0,
        }
    }

    /// A random non-coinbase transaction spending one or two known (or
    /// unknown) outpoints and paying the test addresses.
    fn random_tx(&mut self, rng: &mut SimRng) -> Transaction {
        let mut inputs = Vec::new();
        let mut input_value = 0;
        for _ in 0..testkit::usize_in(rng, 1..3) {
            let known = self.outputs.len();
            let (outpoint, value) = if known > 0 && !rng.chance(0.1) {
                // Mostly recent outputs, so spends land inside the
                // unstable region.
                let pick = if rng.chance(0.6) {
                    known - 1 - rng.index(known.min(8))
                } else {
                    rng.index(known)
                };
                self.outputs[pick]
            } else {
                (OutPoint::new(Txid(testkit::byte_array(rng)), 0), Amount::from_sat(1_000))
            };
            inputs.push(TxIn::new(outpoint));
            input_value += value.to_sat();
        }
        let count = testkit::usize_in(rng, 1..4) as u64;
        // Usually leave a fee; sometimes overspend, which has no fee.
        let budget = if rng.chance(0.85) { input_value * 9 / 10 } else { input_value + 5_000 };
        let value = Amount::from_sat((budget / count).max(1));
        let outputs = (0..count)
            .map(|_| TxOut::new(value, addr(rng.below(ADDRESSES as u64) as u8).script_pubkey()))
            .collect();
        Transaction { version: 2, inputs, outputs, lock_time: rng.next_u32() }
    }

    /// Mines a child of `parent` with a few random transactions.
    fn mine(&mut self, rng: &mut SimRng, parent: usize) -> usize {
        self.tag += 1;
        let parent_header = self.mined[parent].block.header;
        let height = self.mined[parent].height + 1;
        let coinbase = coinbase_transaction(
            height,
            Amount::from_sat(50_000 + rng.below(1_000)),
            addr(rng.below(ADDRESSES as u64) as u8).script_pubkey(),
            self.tag,
        );
        let mut txdata = vec![coinbase];
        for _ in 0..testkit::usize_in(rng, 0..5) {
            let tx = self.random_tx(rng);
            txdata.push(tx);
        }
        let mut header = BlockHeader {
            version: 2,
            prev_blockhash: parent_header.block_hash(),
            merkle_root: merkle_root(&txdata.iter().map(Transaction::txid).collect::<Vec<_>>()),
            time: parent_header.time + 600,
            bits: parent_header.bits,
            nonce: 0,
        };
        while !header.meets_pow_target() {
            header.nonce += 1;
        }
        for tx in &txdata {
            let txid = tx.txid();
            for (vout, output) in tx.outputs.iter().enumerate() {
                self.outputs.push((OutPoint::new(txid, vout as u32), output.value));
            }
        }
        self.mined.push(Mined { block: Block { header, txdata }, height, parent: Some(parent) });
        self.mined.len() - 1
    }

    /// The parent for the next block: usually the current tip, sometimes
    /// an ancestor a few blocks back, which starts a fork that can later
    /// overtake the tip (a reorg).
    fn pick_parent(&self, rng: &mut SimRng) -> usize {
        let mut parent = self.tip;
        if rng.chance(0.3) {
            for _ in 0..testkit::usize_in(rng, 1..3) {
                parent = self.mined[parent].parent.unwrap_or(parent);
            }
        }
        parent
    }
}

/// Feeds random blocks (with forks, reorgs and header-only lookahead)
/// into a fresh state and checks every read against the oracle after
/// each response.
fn run_case(rng: &mut SimRng) {
    // At δ = 1 a lone tip is already stable and the region stays empty.
    let delta = testkit::u64_in(rng, 2..5);
    let params = IntegrationParams::for_network(Network::Regtest).with_stability_delta(delta);
    let mut state = BitcoinCanisterState::new(params);
    let mut gen = ChainGen::new();
    let steps = testkit::usize_in(rng, 4..14);
    for step in 0..steps {
        let mut blocks = Vec::new();
        for _ in 0..testkit::usize_in(rng, 1..3) {
            let parent = if blocks.is_empty() { gen.pick_parent(rng) } else { gen.tip };
            let child = gen.mine(rng, parent);
            gen.tip = child;
            blocks.push(gen.mined[child].block.clone());
        }
        // Sometimes withhold the last body and announce only its header;
        // the redelivery below may bring the body late.
        let mut next = Vec::new();
        if blocks.len() > 1 && rng.chance(0.25) {
            next.push(blocks.pop().unwrap().header);
        }
        let response = GetSuccessorsResponse { blocks, next };
        state.process_response(response, NOW, &mut Meter::new());
        if rng.chance(0.5) {
            // Redeliver the tip's body (a no-op or a late body).
            let tip = gen.mined[gen.tip].block.clone();
            let response = GetSuccessorsResponse { blocks: vec![tip], next: Vec::new() };
            state.process_response(response, NOW, &mut Meter::new());
        }
        // Keep mining on a block the canister holds: a branch cut off
        // by an anchor advance (or a withheld body) is abandoned.
        let tip_hash = gen.mined[gen.tip].block.block_hash();
        if tip_hash != state.tree().root() && state.block(&tip_hash).is_none() {
            let available = (state.available_tip_height() - state.anchor_height()) as usize;
            let hash = state.best_chain()[available];
            gen.tip = gen.mined.iter().position(|m| m.block.block_hash() == hash).unwrap();
        }
        assert_reads_match_oracle(&state, &format!("delta {delta}, step {step}"));
    }

    // The index is derived state: a checkpoint neither carries it nor
    // changes because of it, and a restored canister reads identically.
    let canister = BitcoinCanister::from_state(state);
    let bytes = canister.checkpoint_bytes();
    let restored = BitcoinCanister::restore(&bytes).expect("checkpoint must restore");
    assert_eq!(restored.checkpoint_bytes(), bytes, "re-checkpointing must be byte-identical");
    assert_eq!(restored.state_hash(), canister.state_hash());
    assert_reads_match_oracle(restored.state(), &format!("delta {delta}, restored"));
}

#[test]
fn indexed_reads_match_the_per_query_oracle_on_random_forking_chains() {
    testkit::check(0x0e_11a7, 16, run_case);
}

//! What every workload measures the same way: rounds through the subnet,
//! query results, ingested blocks, and the canister and storage metrics
//! read at the end of a repetition.

use icbtc::canister::CallOutcome;
use icbtc::ic::{ExecutionContext, RoundInfo, RoundReport, Subnet};
use icbtc::sim::SimTime;

use crate::trace::{Clock, TracedCanister};
use crate::{ns_to_ms, permille, quantile, Rep};

/// The canister profiler frames whose modeled share is reported.
const PROFILE_FRAMES: [&str; 6] = [
    "unstable_overlay",
    "range_scan",
    "cache_lookup",
    "header_validate",
    "utxo_apply",
    "by_address_index",
];

/// Query methods with per-call host quantiles.
const QUERY_METHODS: [(&str, &str); 3] = [
    ("get_balance", "get_balance"),
    ("get_utxos", "get_utxos"),
    ("get_current_fee_percentiles", "fee_percentiles"),
];

/// Accumulated over one repetition's timed phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Modeled latency of each query, from submission (ns).
    pub query_latency_ns: Vec<u64>,
    /// Modeled instructions of each query.
    pub query_instructions: Vec<u64>,
    /// Queries answered with an error.
    pub query_errors: u64,
    /// Blocks the canister accepted.
    pub blocks_accepted: u64,
    /// Blocks or headers the canister rejected.
    pub rejected: u64,
    /// Modeled instructions of every ingest.
    pub ingest_instructions: u64,
    /// Inputs plus outputs of the accepted blocks.
    pub ingest_txio: u64,
    /// Modeled sim-time from a block being mined (or due) until the
    /// canister's available tip includes it (ns).
    pub freshness_ns: Vec<u64>,
    /// Rounds executed.
    pub rounds: u64,
    /// Most queries ever waiting in the query plane after a round.
    pub query_backlog_max: u64,
    /// Host ns inside `Subnet::execute_round_with`.
    pub round_ns: u64,
    /// Host ns of that spent in canister or adapter calls.
    pub round_inside_ns: u64,
    /// Sim-time the timed phase started at.
    pub started_at: SimTime,
    /// Sim-time the last executed round was finalized at.
    pub ended_at: SimTime,
    /// Sim-time the last query reply reached its caller.
    pub last_reply_at: SimTime,
}

impl Tally {
    /// Runs one subnet round with `payload`, timing it and tallying its
    /// query results. `payload` returns the host ns it spent in adapter
    /// calls, which do not count as subnet self time.
    pub fn round(
        &mut self,
        subnet: &mut Subnet<TracedCanister>,
        clock: Clock,
        payload: impl FnOnce(&mut TracedCanister, &mut ExecutionContext<'_>, RoundInfo) -> u64,
    ) -> RoundReport<CallOutcome> {
        let inside_before = subnet.state().inside_ns;
        let mut adapter_ns = 0;
        let span = clock.start();
        let report = subnet.execute_round_with(|canister, ctx, info| {
            adapter_ns = payload(canister, ctx, info);
        });
        self.round_ns += span.ns();
        self.round_inside_ns += subnet.state().inside_ns - inside_before + adapter_ns;
        self.rounds += 1;
        self.ingest_instructions += report.payload_instructions;
        for result in &report.query_results {
            self.query_latency_ns.push(result.latency().as_nanos());
            self.last_reply_at = self.last_reply_at.max(result.responded_at);
            self.query_instructions.push(result.instructions);
            if result.output.reply.is_err() {
                self.query_errors += 1;
            }
        }
        self.query_backlog_max = self
            .query_backlog_max
            .max(subnet.query_queue_depth() as u64);
        self.ended_at = report.info.finalized_at;
        report
    }

    /// Writes the metrics every workload shares into `rep`: the
    /// end-to-end query, ingest, storage and freshness numbers, and the
    /// `ic`, `canister` and `storage` layer metrics.
    pub fn finish(&self, rep: &mut Rep, canister: &TracedCanister) {
        let queries = self.query_latency_ns.len() as u64;
        let sim_s = self
            .last_reply_at
            .saturating_since(self.started_at)
            .as_secs_f64();
        let instructions: u64 = self.query_instructions.iter().sum();
        rep.attempted += queries + self.blocks_accepted + self.rejected;
        rep.failed += self.query_errors + self.rejected;

        rep.modeled(
            "query_p50_ms",
            ns_to_ms(quantile(&self.query_latency_ns, 500)),
        );
        rep.modeled(
            "query_p99_ms",
            ns_to_ms(quantile(&self.query_latency_ns, 990)),
        );
        rep.modeled(
            "query_rps",
            if sim_s > 0.0 {
                queries as f64 / sim_s
            } else {
                0.0
            },
        );
        rep.modeled(
            "query_instructions_per_request",
            instructions as f64 / queries.max(1) as f64,
        );
        rep.modeled(
            "ingest_instructions_per_block",
            self.ingest_instructions as f64 / self.blocks_accepted.max(1) as f64,
        );
        rep.modeled(
            "freshness_p50_ms",
            ns_to_ms(quantile(&self.freshness_ns, 500)),
        );
        rep.modeled(
            "freshness_p99_ms",
            ns_to_ms(quantile(&self.freshness_ns, 990)),
        );

        // ic
        rep.modeled("ic.query_backlog_max", self.query_backlog_max as f64);
        rep.modeled(
            "ic.rounds_per_block",
            self.rounds as f64 / self.blocks_accepted.max(1) as f64,
        );
        rep.host(
            "ic.round_self_us",
            (self.round_ns - self.round_inside_ns) as f64 / 1e3 / self.rounds.max(1) as f64,
        );

        // canister: queries
        rep.modeled(
            "canister.query_instructions_p50",
            quantile(&self.query_instructions, 500) as f64,
        );
        rep.modeled(
            "canister.query_instructions_p99",
            quantile(&self.query_instructions, 990) as f64,
        );
        let metrics = &canister.canister.obs().metrics;
        let hits = metrics.counter("canister_qcache_hits_total") as f64;
        let misses = metrics.counter("canister_qcache_misses_total") as f64;
        rep.modeled(
            "canister.qcache_hit_permille",
            permille(hits, hits + misses),
        );
        let mut query_ns = 0;
        for (method, label) in QUERY_METHODS {
            let calls = canister.query_ns.get(method).map_or(&[][..], Vec::as_slice);
            query_ns += calls.iter().sum::<u64>();
            rep.host(
                &format!("canister.{label}_us_p50"),
                quantile(calls, 500) as f64 / 1e3,
            );
            rep.host(
                &format!("canister.{label}_us_p99"),
                quantile(calls, 990) as f64 / 1e3,
            );
        }
        rep.host(
            "canister.host_ns_per_kinstr.query",
            query_ns as f64 / (instructions as f64 / 1e3).max(1e-9),
        );

        // canister: ingest
        let blocks = self.blocks_accepted.max(1) as f64;
        rep.host(
            "canister.ingest_ms_per_block",
            canister.ingest_ns as f64 / 1e6 / blocks,
        );
        rep.host(
            "canister.ingest_ns_per_txio",
            canister.ingest_ns as f64 / self.ingest_txio.max(1) as f64,
        );
        rep.host(
            "canister.host_ns_per_kinstr.ingest",
            canister.ingest_ns as f64 / (self.ingest_instructions as f64 / 1e3).max(1e-9),
        );
        let prof = &canister.canister.obs().prof;
        let frames = prof.frames();
        for name in PROFILE_FRAMES {
            let units: u64 = frames
                .iter()
                .filter(|f| f.name == name)
                .map(|f| f.total_units)
                .sum();
            rep.modeled(
                &format!("canister.prof.{name}_permille"),
                permille(units as f64, prof.root_total() as f64),
            );
        }

        // canister.storage
        let utxos = canister.canister.state().utxos();
        let storage = utxos.storage_stats();
        rep.modeled(
            "bytes_per_utxo",
            storage.bytes_reserved as f64 / utxos.len().max(1) as f64,
        );
        rep.modeled(
            "storage.bytes_used_permille",
            permille(storage.bytes_used as f64, storage.bytes_reserved as f64),
        );
        rep.modeled("storage.pages_allocated", storage.pages_allocated as f64);
        rep.modeled("storage.utxos_live", utxos.len() as f64);
        rep.state_hash = canister.canister.state_hash();
    }
}

/// Sets the network-layer metrics of a workload that bypasses `btcnet`
/// and the adapters: they did no work.
pub fn no_network(rep: &mut Rep) {
    for name in [
        "btcnet.run_until_us_per_block",
        "btcnet.mine_us_per_block",
        "adapter.step_us_per_block",
        "adapter.handle_request_us_per_call",
    ] {
        rep.host(name, 0.0);
    }
    rep.host("adapter.step_growth_permille", 0.0);
    for decile in 0..10 {
        rep.host(&format!("adapter.step_us_per_block.d{decile}"), 0.0);
        rep.host(&format!("btcnet.run_until_us_per_block.d{decile}"), 0.0);
    }
    for name in [
        "btcnet.messages_per_block",
        "adapter.blocks_per_response",
        "adapter.delivered_accepted_permille",
    ] {
        rep.modeled(name, 0.0);
    }
}

//! Figure 7 (left/center): response time of replicated and non-replicated
//! `get_balance` / `get_utxos` requests over the 1000-address workload.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin fig7_request_latency [scale]
//! ```
//!
//! The paper reports: replicated requests average below 10 s (minimum
//! ≈ 7 s, p90 ≈ 18 s); queries have medians ≈ 220 ms (`get_balance`) and
//! ≈ 310 ms (`get_utxos`) with p90 below 0.5 s and 2.5 s. The harness
//! loads the skewed workload into a canister hosted on a simulated
//! 13-replica subnet and measures both request classes end-to-end.

use icbtc::canister::{BitcoinCanister, CanisterCall};
use icbtc::ic::consensus::ConsensusConfig;
use icbtc::ic::Subnet;
use icbtc::sim::metrics::{Histogram, Series};
use icbtc_bench::report::{banner, Comparison};
use icbtc_bench::workload::build_query_workload;

fn main() {
    banner(
        "fig7_request_latency",
        "Figure 7 left/center (replicated and query response times)",
    );
    let scale: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    println!("workload scale: 1/{scale} of the paper's UTXO counts\n");

    let workload = build_query_workload(7, scale);
    let addresses: Vec<_> = workload
        .stable_addresses
        .iter()
        .chain(&workload.unstable_addresses)
        .cloned()
        .collect();
    let canister = BitcoinCanister::from_state(workload.state);
    let mut subnet = Subnet::new(canister, ConsensusConfig::thirteen_replicas(), 7);

    let mut replicated_balance = Histogram::new();
    let mut replicated_utxos = Histogram::new();
    let mut query_balance = Histogram::new();
    let mut query_utxos = Histogram::new();
    let mut latency_vs_count = Series::new("query_utxos_latency_s_vs_utxo_count");

    // Queries: one pair per address (cheap).
    for (address, count) in &addresses {
        let (_, _, latency) = subnet.query(|canister, meter| {
            let call = CanisterCall::GetBalance { address: *address, min_confirmations: 0 };
            canister.query(&call, meter)
        });
        query_balance.record(latency.as_secs_f64());
        let (_, _, latency) = subnet.query(|canister, meter| {
            canister.query(&CanisterCall::GetUtxos { address: *address, filter: None }, meter)
        });
        query_utxos.record(latency.as_secs_f64());
        latency_vs_count.push(*count as f64, latency.as_secs_f64());
    }

    // Replicated calls: a sample of 150 addresses (each waits for rounds).
    for (address, _) in addresses.iter().step_by(addresses.len() / 150) {
        for (call, histogram) in [
            (
                CanisterCall::GetBalance { address: *address, min_confirmations: 0 },
                &mut replicated_balance,
            ),
            (CanisterCall::GetUtxos { address: *address, filter: None }, &mut replicated_utxos),
        ] {
            let id = subnet.submit(call);
            'wait: loop {
                let report = subnet.execute_round(|_, _| {});
                for result in report.results {
                    if result.id == id {
                        histogram.record(result.latency().as_secs_f64());
                        break 'wait;
                    }
                }
            }
        }
    }

    println!("{latency_vs_count}");

    let mut comparison = Comparison::new();
    comparison.row(
        "replicated: mean",
        "< 10 s",
        format!(
            "{:.1} s (balance) / {:.1} s (utxos)",
            replicated_balance.mean(),
            replicated_utxos.mean()
        ),
    );
    comparison.row(
        "replicated: min",
        "≈ 7 s",
        format!("{:.1} s", replicated_balance.min().min(replicated_utxos.min())),
    );
    comparison.row(
        "replicated: p90",
        "≈ 18 s",
        format!(
            "{:.1} s / {:.1} s",
            replicated_balance.percentile(90.0),
            replicated_utxos.percentile(90.0)
        ),
    );
    comparison.row(
        "query get_balance: median",
        "≈ 220 ms",
        format!("{:.0} ms", query_balance.median() * 1e3),
    );
    comparison.row(
        "query get_utxos: median",
        "≈ 310 ms",
        format!("{:.0} ms", query_utxos.median() * 1e3),
    );
    comparison.row(
        "query p90",
        "< 0.5 s / < 2.5 s",
        format!(
            "{:.2} s / {:.2} s",
            query_balance.percentile(90.0),
            query_utxos.percentile(90.0)
        ),
    );
    comparison.print("paper vs measured (Figure 7 left/center)");
}

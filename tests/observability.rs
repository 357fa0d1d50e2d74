//! Observability integrity: the deterministic metrics/trace layer must be
//! a pure function of the seed, agree with ground truth the simulation
//! tracks independently, and expose the production-style `get_metrics`
//! endpoint without perturbing replicated state.

use icbtc::canister::{CanisterCall, CanisterReply};
use icbtc::contracts::Wallet;
use icbtc::sim::SimTime;
use icbtc::system::{System, SystemConfig};

/// Boots a regtest deployment, mines one simulated hour of Bitcoin, and
/// executes `rounds` consensus rounds.
fn run(seed: u64, rounds: usize) -> System {
    let mut system = System::new(SystemConfig::regtest(seed));
    system.btc_mut().run_until(SimTime::from_secs(3600));
    system.run_rounds(rounds);
    system
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = run(7, 60);
    let b = run(7, 60);

    let snap_a = a.merged_metrics().snapshot_json();
    let snap_b = b.merged_metrics().snapshot_json();
    assert!(!snap_a.is_empty());
    assert_eq!(snap_a, snap_b, "same-seed metric snapshots must be byte-identical");

    let trace_a = a.trace_jsonl();
    let trace_b = b.trace_jsonl();
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same-seed traces must be byte-identical");

    // The snapshot covers all four layers.
    for prefix in ["adapter_", "canister_", "ic_", "btcnet_"] {
        assert!(snap_a.contains(prefix), "snapshot is missing the {prefix} layer");
    }
    // The trace carries sim-time-stamped records from the span'd layers.
    for needle in ["\"kind\": \"span_start\"", "\"kind\": \"span_end\"", "\"kind\": \"event\""] {
        assert!(trace_a.contains(needle), "trace is missing {needle}");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(7, 60);
    let b = run(8, 60);
    // Mining times are Poisson draws from the seed; the byte-identity
    // assertion above would be vacuous if these matched too.
    assert_ne!(a.trace_jsonl(), b.trace_jsonl());
}

#[test]
fn registry_agrees_with_ground_truth() {
    let system = run(42, 80);
    let metrics = system.merged_metrics();

    assert_eq!(
        metrics.counter("ic_rounds_total"),
        system.rounds_executed(),
        "round counter must match the subnet's own round count"
    );
    assert_eq!(
        metrics.counter("btcnet_blocks_mined_total"),
        system.btc().blocks_mined(),
        "mined-block counter must match the network's tally"
    );
    assert_eq!(
        metrics.gauge("btcnet_best_height") as u64,
        system.btc().best_height(),
        "best-height gauge must match the network tip"
    );
    // The subnet executed rounds, so instruction accounting must be live.
    assert!(metrics.counter("ic_instructions_total") > 0);
}

#[test]
fn get_metrics_mirrors_state_without_mutating_it() {
    let mut system = run(42, 80);
    // The UTXO set holds only δ-stable, address-indexed outputs: mine
    // enough coinbases to a real wallet address that some fall below the
    // anchor, then sync so the canister sees them.
    let wallet = Wallet::new("obs-probe");
    system.fund_address(&wallet.address(&system), 8);
    assert!(system.sync_canister(5000), "canister failed to sync");
    let before = system.canister().obs().metrics.snapshot_json();

    let outcome = system.query(CanisterCall::GetMetrics);
    let reply = outcome.outcome.reply.expect("get_metrics cannot fail");
    let CanisterReply::Metrics(m) = reply else {
        panic!("expected a Metrics reply, got {reply:?}");
    };
    // An unpaid query, like the production canister's /metrics endpoint.
    assert_eq!(outcome.outcome.cycles_charged, 0);

    let state = system.canister().state();
    assert_eq!(m.main_chain_height, state.best_tip().1);
    assert_eq!(m.anchor_height, state.anchor_height());
    assert_eq!(m.utxo_count, state.utxos().len() as u64);
    assert_eq!(m.unstable_blocks, state.unstable_block_count() as u64);
    assert_eq!(m.is_synced, state.is_synced());
    assert!(m.main_chain_height > 0, "an hour of mining must be visible");
    assert!(m.utxo_count > 0, "coinbases must have landed in the UTXO set");
    assert!(m.instructions_total > 0, "replicated calls must be metered");

    // Queries execute on a single replica; recording them would fork
    // replicated metrics. The endpoint must therefore be read-only.
    let after = system.canister().obs().metrics.snapshot_json();
    assert_eq!(before, after, "get_metrics query must not mutate the registry");
}

/// Boots a deployment, funds a wallet, syncs, and issues a few cached
/// queries so the profile covers both the ingest and query hot paths.
fn run_profiled(seed: u64) -> System {
    let mut system = System::new(SystemConfig::regtest(seed));
    let wallet = Wallet::new("prof-probe");
    let address = wallet.address(&system);
    system.fund_address(&address, 8);
    assert!(system.sync_canister(5000), "canister failed to sync");
    for _ in 0..3 {
        system.query(CanisterCall::GetBalance { address, min_confirmations: 0 });
    }
    system
}

#[test]
fn profile_report_is_deterministic_and_names_hot_paths() {
    let a = run_profiled(42);
    let b = run_profiled(42);

    let report = a.profile_report(25);
    assert_eq!(
        report,
        b.profile_report(25),
        "same-seed profile reports must be byte-identical"
    );
    assert_eq!(report, a.profile_report(25), "rendering a report must be read-only");

    // Every layer contributes a subtree.
    for component in ["canister;", "subnet;", "adapter;", "btcnet;"] {
        assert!(report.contains(component), "report is missing the {component} subtree");
    }
    // The named hot paths show up with nonzero self attribution: a
    // collapsed-stack line is only emitted when self_units > 0.
    let collapsed = report
        .split("## collapsed stacks\n")
        .nth(1)
        .expect("report must contain a collapsed-stacks section");
    for frame in ["hashing", "script_parse", "response_serialize", "cache_lookup"] {
        assert!(
            collapsed.lines().any(|l| l.contains(frame)),
            "no nonzero self attribution for hot-path frame {frame}"
        );
    }
}

#[test]
fn profile_self_costs_sum_to_root_total() {
    let system = run_profiled(42);
    let report = system.profile_report(10);

    let header = report
        .lines()
        .find(|l| l.starts_with("frames: "))
        .expect("report must carry a frames/max_depth/root_total header");
    let root_total: u64 = header
        .rsplit("root_total: ")
        .next()
        .unwrap()
        .trim()
        .parse()
        .expect("root_total must be an integer");
    assert!(root_total > 0, "a synced run must account nonzero work");

    // Collapsed stacks list every frame with self > 0; zero-self frames
    // contribute nothing, so the line values must sum exactly to the
    // root total (the profiler's core invariant, checked end to end).
    let collapsed = report.split("## collapsed stacks\n").nth(1).unwrap();
    let sum: u64 = collapsed
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(sum, root_total, "Σ self over all frames must equal the root total");
}

#[test]
fn trace_overflow_is_surfaced_as_dropped_records_gauge() {
    // Long enough that at least one component's trace ring (capacity
    // 4096) wraps — each consensus round emits a span-start/span-end
    // pair, so 2300 rounds overflow the subnet and canister rings. The
    // merged registry must then report the loss rather than silently
    // truncating the JSONL dump.
    let mut system = System::new(SystemConfig::regtest(9));
    system.btc_mut().run_until(SimTime::from_secs(3600));
    system.run_rounds(2300);
    let metrics = system.merged_metrics();

    let components = ["btcnet", "adapter", "ic", "canister"];
    let total: i64 = components
        .into_iter()
        .map(|c| metrics.gauge_with("trace_dropped_records", &[("component", c)]))
        .sum();
    assert!(total > 0, "six sim-hours must overflow at least one 4096-record trace ring");
    // The gauge must agree with the rings' own drop counters.
    let expected = system.btc().obs().trace.dropped()
        + system.subnet().obs().trace.dropped()
        + system.canister().obs().trace.dropped();
    assert!(
        total as u64 >= expected,
        "merged gauge ({total}) must cover the visible components' drops ({expected})"
    );

    // A short run drops nothing and still exposes the gauge (at zero).
    let fresh = run(7, 10);
    let fresh_metrics = fresh.merged_metrics();
    assert_eq!(fresh_metrics.gauge_with("trace_dropped_records", &[("component", "btcnet")]), 0);
}

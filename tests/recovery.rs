//! Durability and recovery soak suite: canister upgrades mid-ingest,
//! replica crash–catch-up at every checkpoint phase, equivalence of
//! recovered and never-crashed runs, same-seed byte-identity of whole
//! lifecycles, and the shadow-replica divergence detector.

use icbtc::canister::{BitcoinCanister, CanisterCall, CanisterReply};
use icbtc::ic::LifecyclePlan;
use icbtc::system::{System, SystemConfig};
use icbtc_bitcoin::{Address, AddressKind, Network};
use icbtc_sim::SimTime;

/// A regtest system with an hour of pre-mined chain, mid-sync — the
/// worst moment for a lifecycle event to land.
fn booted_system(seed: u64) -> System {
    let mut system = System::new(SystemConfig::regtest(seed));
    system.btc_mut().run_until(SimTime::from_secs(3600));
    system
}

fn balance_call() -> CanisterCall {
    let address = Address::new(Network::Regtest, AddressKind::P2wpkh([7; 20]));
    CanisterCall::GetBalance { address, min_confirmations: 0 }
}

/// The full-state checkpoint envelope survives a round trip at an
/// arbitrary mid-sync point, and the canister keeps working afterwards.
#[test]
fn upgrade_mid_ingest_preserves_state_and_keeps_syncing() {
    let mut system = booted_system(101);
    system.run_rounds(12); // mid-ingest: some blocks in, not synced
    let before = system.canister().state_hash();
    let report = system.upgrade_canister();
    assert!(report.state_hash_preserved);
    assert!(report.checkpoint_bytes > 0);
    assert_eq!(system.canister().state_hash(), before);
    // The upgraded canister still syncs to the network tip.
    assert!(system.sync_canister(4000), "post-upgrade canister must catch up");
}

/// Upgrades scheduled by a lifecycle plan are state-preserving, and a
/// run with upgrades converges on the same replicated state as the same
/// seed run without any.
#[test]
fn upgrades_do_not_change_the_replicated_trajectory() {
    let run = |plan: LifecyclePlan| {
        let mut system = booted_system(202);
        system.set_lifecycle_plan(plan);
        system.run_rounds(60);
        (system.canister().state_hash(), system.recovery_stats().clone())
    };
    let (plain_hash, plain_stats) = run(LifecyclePlan::none());
    let (upgraded_hash, upgraded_stats) = run(LifecyclePlan::builtin("upgrades").unwrap());
    assert_eq!(upgraded_stats.upgrades, 3, "all planned upgrades fired");
    assert_eq!(plain_stats.upgrades, 0);
    assert_eq!(
        upgraded_hash, plain_hash,
        "upgrades must not perturb the replicated state trajectory"
    );
}

/// Crash catch-up reconverges with the live replica at *every* round of
/// the checkpoint cycle: freshly checkpointed, mid-cycle, and the round
/// just before the next checkpoint.
#[test]
fn crash_catchup_reconverges_at_every_checkpoint_phase() {
    let mut system = booted_system(303);
    let plan = LifecyclePlan {
        checkpoint_every: 5,
        // One crash at each phase of the 5-round cycle.
        crashes: vec![10, 11, 12, 13, 14],
        ..LifecyclePlan::default()
    };
    system.set_lifecycle_plan(plan);
    system.run_rounds(20);
    let stats = system.recovery_stats();
    assert_eq!(stats.catchups, 5);
    assert_eq!(stats.catchup_matches, 5, "every catch-up must reconverge");
    // Phase 0 (round 10) replays nothing; phase 4 (round 14) replays 4.
    assert_eq!(stats.replayed_rounds_total, 1 + 2 + 3 + 4);
    assert_eq!(stats.replayed_rounds_max, 4);
    assert!(stats.mttr_ns_total > 0, "restore cost alone must yield nonzero MTTR");
}

/// A recovered replica's state hash equals a never-crashed same-seed
/// run's, even with replicated calls in the replayed ingress log.
#[test]
fn catchup_equivalence_with_ingress_traffic() {
    let run = |crashes: Vec<u64>| {
        let mut system = booted_system(404);
        system.set_lifecycle_plan(LifecyclePlan {
            checkpoint_every: 8,
            crashes,
            ..LifecyclePlan::default()
        });
        // Interleave replicated calls so the journal is non-trivial.
        for i in 0..30u64 {
            if i % 7 == 3 {
                let outcome = system.replicated(balance_call());
                assert!(matches!(outcome.outcome.reply, Ok(CanisterReply::Balance(_))));
            } else {
                system.step_round();
            }
        }
        (system.canister().state_hash(), system.recovery_stats().clone())
    };
    let (plain_hash, _) = run(vec![]);
    let (crashed_hash, stats) = run(vec![11, 19, 27]);
    assert_eq!(stats.catchups, 3);
    assert_eq!(stats.catchup_matches, 3, "replayed ingress must reconverge");
    assert_eq!(crashed_hash, plain_hash);
}

/// The whole lifecycle — checkpoints, upgrades, crashes, corruption,
/// divergence detection — is byte-identical across same-seed runs.
#[test]
fn same_seed_lifecycles_are_byte_identical() {
    let run = |seed: u64| {
        let mut system = booted_system(seed);
        system.set_lifecycle_plan(LifecyclePlan::builtin("mixed").unwrap());
        system.run_rounds(60);
        let metrics = system.merged_metrics().snapshot_json();
        (system.canister().state_hash(), system.recovery_stats().clone(), metrics)
    };
    let a = run(505);
    let b = run(505);
    assert_eq!(a.0, b.0, "state hash must be seed-deterministic");
    assert_eq!(a.1, b.1, "recovery stats must be seed-deterministic");
    assert_eq!(a.2, b.2, "merged metrics must be byte-identical");
    let c = run(506);
    assert_ne!(a.0, c.0, "different seeds must diverge");
}

/// The shadow replica tracks the live canister exactly (no false
/// positives), fires on every injected corruption, and re-arms after
/// each detection.
#[test]
fn shadow_detector_fires_exactly_on_injected_corruption() {
    // Clean run: shadow on, no corruption — zero detections.
    let mut clean = booted_system(606);
    clean.set_lifecycle_plan(LifecyclePlan {
        checkpoint_every: 10,
        shadow: true,
        ..LifecyclePlan::default()
    });
    clean.run_rounds(40);
    let stats = clean.recovery_stats();
    assert_eq!(stats.divergence_checks, 40, "one check per round");
    assert_eq!(stats.divergence_detected, 0, "no false positives");
    assert_eq!(clean.shadow_state_hash(), Some(clean.canister().state_hash()));

    // Corrupted run: every injection is detected, exactly once each.
    let mut corrupted = booted_system(606);
    corrupted.set_lifecycle_plan(LifecyclePlan::builtin("corruption").unwrap());
    corrupted.run_rounds(60);
    let stats = corrupted.recovery_stats();
    assert_eq!(stats.corruptions_injected, 2);
    assert_eq!(
        stats.divergence_detected, stats.corruptions_injected,
        "each corruption detected exactly once — detector re-arms after resync"
    );
    let snapshot = corrupted.merged_metrics().snapshot_json();
    assert!(snapshot.contains("ic_divergence_detected_total"));
    assert!(snapshot.contains("ic_divergence_checks_total"));
    // After the final resync the shadow agrees with the live replica
    // again.
    assert_eq!(corrupted.shadow_state_hash(), Some(corrupted.canister().state_hash()));
}

/// Regression: the query cache must never serve a pre-upgrade reply
/// after a restore, even when the tip has not moved. The restore drops
/// node-local state wholesale, so the first post-upgrade query is a
/// recomputation, not a cache hit.
#[test]
fn post_restore_query_cache_never_serves_stale_replies() {
    let mut system = booted_system(707);
    assert!(system.sync_canister(4000));
    let call = balance_call();
    // Prime the cache and take the baseline reply at this tip.
    let before = system.query(call.clone());
    let primed = system.query(call.clone());
    assert_eq!(before.outcome.reply, primed.outcome.reply);
    assert!(
        primed.instructions < before.instructions,
        "second query at unchanged tip must be a cache hit"
    );
    assert!(!system.canister().query_cache().is_empty());

    let report = system.upgrade_canister();
    assert!(report.state_hash_preserved);
    // The upgrade dropped the cache: nothing to serve from.
    assert_eq!(system.canister().query_cache().len(), 0, "upgrade must drop the query cache");
    let after = system.query(call.clone());
    assert_eq!(after.outcome.reply, before.outcome.reply, "same tip, same answer");
    assert!(
        after.instructions >= before.instructions,
        "first post-upgrade query must recompute, not hit a stale cache"
    );
    // And the cache works again afterwards.
    let warm = system.query(call);
    assert!(warm.instructions < after.instructions);
}

/// Regression: a duplicate adapter response redelivered after recovery
/// is a metered no-op — dropped, counted, and invisible to the
/// replicated Bitcoin state. This is exactly what a restarted replica's
/// adapter does when its last response raced the crash.
#[test]
fn duplicate_response_after_recovery_is_dropped() {
    use icbtc::adapter::BitcoinAdapter;
    use icbtc::btcnet::network::{BtcNetwork, NetworkConfig};
    use icbtc::core::IntegrationParams;
    use icbtc::ic::{ExecutionContext, Meter};

    let mut net = BtcNetwork::new(NetworkConfig::regtest(3), 808);
    net.run_until(SimTime::from_secs(2 * 3600));
    let params = IntegrationParams::for_network(Network::Regtest);
    let mut adapter = BitcoinAdapter::new(params, 808);
    let mut canister = BitcoinCanister::new(params);

    // Let the adapter sync until it can serve a non-empty response.
    let mut response = icbtc::core::GetSuccessorsResponse::default();
    for _ in 0..200 {
        adapter.step(&mut net);
        net.run_until(net.now() + icbtc_sim::SimDuration::from_secs(5));
        let request = canister.state_mut().make_request();
        response = adapter.handle_request(&mut net, &request);
        if !response.blocks.is_empty() || !response.next.is_empty() {
            break;
        }
    }
    assert!(!response.blocks.is_empty() || !response.next.is_empty());
    let now_unix = net.unix_time(net.now());
    let ingest = |canister: &mut BitcoinCanister, response, round| {
        let mut meter = Meter::new();
        let mut ctx = ExecutionContext { meter: &mut meter, now: SimTime::from_secs(round), round };
        canister.ingest_response(response, now_unix, &mut ctx)
    };
    let first = ingest(&mut canister, response.clone(), 1);
    assert!(!first.duplicate_dropped);

    // Crash: restore from the canister's own checkpoint, as a restarted
    // replica would, then redeliver the exact same response.
    let mut recovered =
        BitcoinCanister::restore(&canister.checkpoint_bytes()).expect("valid checkpoint");
    assert_eq!(recovered.state_hash(), canister.state_hash());
    let state_before = recovered.state().state_hash();
    let replayed = ingest(&mut recovered, response, 2);
    assert!(replayed.duplicate_dropped, "redelivered response must be recognized");
    assert_eq!(
        recovered.state().state_hash(),
        state_before,
        "duplicate must not touch replicated Bitcoin state"
    );
    let snapshot = recovered.obs().metrics.snapshot_json();
    assert!(
        snapshot.contains("canister_ingest_duplicate_dropped_total"),
        "drop must be counted: {snapshot}"
    );
}

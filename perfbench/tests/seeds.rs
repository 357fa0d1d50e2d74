//! The benchmark at small size: seed handling, output checks, traced-run
//! equivalence, and the chain_sync composition against `System`.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::chain_sync::{block_transactions, blocks_for, config, mine_due, Stack};
use perfbench::trace::Clock;
use perfbench::{run, setup, Rep, Size, Workload};

fn run_rep(workload: Workload, seed: u64, size: Size, traced: bool) -> Rep {
    run(setup(workload, seed, size), traced)
}

/// Seed 7 was used while the benchmark was built; 424_242 was not.
const SEEDS: [u64; 2] = [7, 424_242];

fn assert_checks_pass(rep: &Rep, what: &str) {
    for check in &rep.checks {
        assert!(check.passed, "{what}: check failed: {}", check.name);
    }
    assert_eq!(rep.failed, 0, "{what}: failed operations");
    assert!(rep.attempted > 0, "{what}: nothing attempted");
}

#[test]
fn repeat_runs_and_traced_runs_agree_on_every_modeled_metric() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let what = format!("{} seed {seed}", workload.name());
            let first = run_rep(workload, seed, Size::Small, false);
            let again = run_rep(workload, seed, Size::Small, false);
            let traced = run_rep(workload, seed, Size::Small, true);
            for rep in [&first, &again, &traced] {
                assert_checks_pass(rep, &what);
            }
            assert_eq!(first.modeled, again.modeled, "{what}: repeat run differs");
            assert_eq!(
                first.state_hash, again.state_hash,
                "{what}: repeat state differs"
            );
            assert_eq!(first.modeled, traced.modeled, "{what}: traced run differs");
            assert_eq!(
                first.state_hash, traced.state_hash,
                "{what}: traced state differs"
            );
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    for workload in Workload::ALL {
        let a = run_rep(workload, SEEDS[0], Size::Small, false);
        let b = run_rep(workload, SEEDS[1], Size::Small, false);
        assert_ne!(
            a.state_hash,
            b.state_hash,
            "{}: seed ignored",
            workload.name()
        );
    }
}

#[test]
fn every_workload_reports_the_same_metrics() {
    let names = |rep: &Rep| {
        let mut names: Vec<String> = rep.modeled.keys().chain(rep.host.keys()).cloned().collect();
        names.sort();
        names
    };
    let reference = names(&run_rep(Workload::QueryMix, SEEDS[0], Size::Small, true));
    for workload in [Workload::BlockIngest, Workload::ChainSync] {
        let rep = run_rep(workload, SEEDS[0], Size::Small, true);
        assert_eq!(names(&rep), reference, "{}", workload.name());
    }
}

/// The benchmark's `Stack` composes `System::step_round`'s public calls
/// itself so it can time each layer. Driven by the same mining schedule,
/// it must stay in lockstep with `System` round by round, and the
/// benchmark's run (which also submits probe queries) must end in the
/// same canister state.
#[test]
fn chain_sync_composition_matches_system_step_round() {
    for seed in SEEDS {
        let blocks = blocks_for(Size::Small);
        let mut system = icbtc::System::new(config(seed));
        let mut stack = Stack::new(&config(seed), Clock::new(false));
        let mut system_txs = block_transactions(seed, blocks);
        let mut stack_txs = block_transactions(seed, blocks);
        let (mut system_due, mut stack_due) = (Vec::new(), Vec::new());
        let off = Clock::new(false);
        for round in 0..10_000 {
            let now = system.now();
            let _ = mine_due(system.btc_mut(), now, &mut system_due, &mut system_txs, off);
            let now = stack.subnet.now();
            let _ = mine_due(&mut stack.btc, now, &mut stack_due, &mut stack_txs, off);
            system.step_round();
            stack.step();
            let what = format!("seed {seed} round {round}");
            assert_eq!(system.now(), stack.subnet.now(), "{what}: subnet time");
            assert_eq!(system.btc().now(), stack.btc.now(), "{what}: btcnet time");
            assert_eq!(
                system.btc().messages_delivered(),
                stack.btc.messages_delivered(),
                "{what}: btcnet messages"
            );
            assert_eq!(
                system.canister().state_hash(),
                stack.subnet.state().canister.state_hash(),
                "{what}: canister state"
            );
            let state = system.canister().state();
            if system_due.len() as u64 == blocks
                && state.is_synced()
                && state.available_tip_height() >= system.btc().best_height()
            {
                break;
            }
        }
        assert_eq!(
            system_due.len() as u64,
            blocks,
            "seed {seed}: not every block was mined"
        );
        let bench = run_rep(Workload::ChainSync, seed, Size::Small, false);
        assert_eq!(
            system.canister().state_hash(),
            bench.state_hash,
            "seed {seed}: final state"
        );
    }
}

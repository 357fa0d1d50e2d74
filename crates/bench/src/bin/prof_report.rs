//! Deterministic hot-path profile report over a full four-layer run.
//!
//! ```text
//! cargo run --release -p icbtc-bench --bin prof_report -- \
//!     [--seed N] [--blocks N] [--queries N] [--top N] [--out PATH]
//! ```
//!
//! Boots a regtest deployment, mines `--blocks` coinbases to a wallet
//! address, syncs the canister, issues `--queries` cached queries in a
//! fixed call mix, and prints [`System::profile_report`] — the merged
//! frame tree of all four layers (canister instructions; adapter, ic
//! and btcnet modeled service units) as a top-N self-cost table plus
//! collapsed-stack flamegraph lines. The output is a pure function of
//! the flags: `scripts/verify.sh` runs it twice and `diff`s the results
//! as the profiler determinism gate.

use icbtc::canister::CanisterCall;
use icbtc::contracts::Wallet;
use icbtc::sim::SimTime;
use icbtc::system::{System, SystemConfig};

struct Args {
    seed: u64,
    blocks: usize,
    queries: u64,
    top: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { seed: 42, blocks: 12, queries: 64, top: 25, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().unwrap_or_else(|| usage(what));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--blocks" => {
                args.blocks = value("--blocks needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--blocks must be a count"));
            }
            "--queries" => {
                args.queries = value("--queries needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--queries must be a count"));
            }
            "--top" => {
                args.top = value("--top needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--top must be a count"));
            }
            "--out" => args.out = Some(value("--out needs a path")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: prof_report [--seed N] [--blocks N] [--queries N] [--top N] [--out PATH]\n\
         \n\
         --seed N     simulation seed (default 42)\n\
         --blocks N   coinbases mined to the probe wallet before syncing (default 12)\n\
         --queries N  cached queries issued after the sync (default 64)\n\
         --top N      rows in the self-cost table (default 25)\n\
         --out P      write the report to P (always printed to stdout)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let args = parse_args();

    eprintln!(
        "# prof_report: seed {}, {} blocks, {} queries...",
        args.seed, args.blocks, args.queries
    );
    let mut system = System::new(SystemConfig::regtest(args.seed));
    let wallet = Wallet::new("prof-report-probe");
    let address = wallet.address(&system);
    system.btc_mut().run_until(SimTime::from_secs(1800));
    system.fund_address(&address, args.blocks);
    if !system.sync_canister(20_000) {
        eprintln!("error: canister failed to sync");
        std::process::exit(2);
    }

    // Fixed query mix over the same address: balance / first-page
    // get_utxos / fee percentiles, so the cache sees repeats (hits) and
    // the report covers both the cold and the cached query paths.
    for i in 0..args.queries {
        let call = match i % 4 {
            0 | 1 => CanisterCall::GetBalance { address, min_confirmations: 0 },
            2 => CanisterCall::GetUtxos { address, filter: None },
            _ => CanisterCall::GetFeePercentiles,
        };
        system.query(call);
    }

    let report = system.profile_report(args.top);
    println!("{report}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("error: cannot write report to {path}: {e}");
            std::process::exit(2);
        }
    }
}

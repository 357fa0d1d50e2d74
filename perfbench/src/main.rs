//! The benchmark binary: repeats one workload for a time budget and prints
//! its metrics as one JSON line (see `run.py`, which builds and calls it).
//!
//! ```text
//! perfbench --workload <query_mix|block_ingest|chain_sync> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! Each repetition sets the workload up from the seed (more than once if
//! a set-up takes less than [`MIN_SETUP_S`]) and runs it. A speed
//! check of the host (the `speedcheck` binary, run as a child process) is
//! taken before the set-up, between the phases and after the run, and
//! `setup_s` and `run_s` are scaled to a reference host speed with the
//! checks on either side of each phase (the unscaled medians are reported
//! too). With
//! `--trace 0` every repetition is untraced; with `--trace 1` untraced and
//! traced repetitions alternate, and the per-layer host metrics come from
//! the traced ones. Repetitions continue until `--seconds` have passed
//! (at least [`MIN_REPS`] of each kind). Modeled metrics and the final
//! state hash must be identical in every repetition, traced or not.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::{hex, median, permille, run, setup, Rep, Size, Workload};

/// Fewest repetitions of each kind (untraced, traced) in one run.
const MIN_REPS: usize = 3;

/// Least set-up time, in seconds, that one repetition's `setup_s` is
/// averaged over. A set-up shorter than this (chain_sync's takes about
/// 10 ms) is repeated, and the inputs of the last one are run, so that a
/// millisecond-long stall of the host does not decide the sample.
const MIN_SETUP_S: f64 = 0.25;

/// The [`speed_check`] time, in seconds, that host times are scaled to.
const REFERENCE_SPEED_S: f64 = 0.05;

/// How long the host currently takes for the reference computation, in
/// seconds: the output of the `speedcheck` binary next to this one.
fn speed_check() -> f64 {
    let fail = |error: String| -> ! {
        eprintln!("error: speed check: {error}");
        std::process::exit(1);
    };
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(e.to_string()))
        .with_file_name("speedcheck");
    let output = std::process::Command::new(&exe)
        .output()
        .unwrap_or_else(|e| fail(format!("{}: {e}", exe.display())));
    if !output.status.success() {
        fail(format!("{} exited with {}", exe.display(), output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .unwrap_or_else(|e| fail(format!("unreadable output: {e}")))
}

/// A repetition and the factors that scale its set-up and run times to
/// the reference speed: [`REFERENCE_SPEED_S`] over the mean of the speed
/// checks on either side of the phase.
struct Scaled {
    rep: Rep,
    setup_scale: f64,
    run_scale: f64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: perfbench --workload <query_mix|block_ingest|chain_sync> --seed N \
         --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be a u64")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds must be a non-negative number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let args = parse_args();
    let start = Instant::now();
    let mut untraced: Vec<Scaled> = Vec::new();
    let mut traced: Vec<Scaled> = Vec::new();
    let mut speed = vec![speed_check()];
    loop {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut setup_total = 0.0;
            let mut setups = 0;
            let inputs = loop {
                let started = Instant::now();
                let inputs = setup(args.workload, args.seed, Size::Full);
                setup_total += started.elapsed().as_secs_f64();
                setups += 1;
                if setup_total >= MIN_SETUP_S {
                    break inputs;
                }
            };
            let setup_s = setup_total / f64::from(setups);
            speed.push(speed_check());
            let mut rep = run(inputs, trace);
            rep.setup_s = setup_s;
            speed.push(speed_check());
            let [before, between, after] = speed[speed.len() - 3..] else {
                unreachable!("three speed checks were just taken")
            };
            eprintln!(
                "# repetition {}{}: setup {:.4} s, run {:.4} s; speed checks {:.1} {:.1} {:.1} ms",
                untraced.len() + traced.len() + 1,
                if trace { " (traced)" } else { "" },
                rep.setup_s,
                rep.run_s,
                before * 1e3,
                between * 1e3,
                after * 1e3,
            );
            let scaled = Scaled {
                rep,
                setup_scale: 2.0 * REFERENCE_SPEED_S / (before + between),
                run_scale: 2.0 * REFERENCE_SPEED_S / (between + after),
            };
            if trace {
                traced.push(scaled);
            } else {
                untraced.push(scaled);
            }
        }
        let enough = untraced.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let first = &untraced[0].rep;
    let all = || untraced.iter().chain(&traced);
    let mut checks: Vec<(String, bool)> = first
        .checks
        .iter()
        .map(|c| (c.name.clone(), c.passed))
        .collect();
    let mut failed_ops = first.failed;
    for Scaled { rep, .. } in all() {
        for (check, other) in checks.iter_mut().zip(&rep.checks) {
            check.1 &= other.passed && other.name == check.0;
        }
        failed_ops = failed_ops.max(rep.failed);
    }
    let same =
        all().all(|s| s.rep.modeled == first.modeled && s.rep.state_hash == first.state_hash);
    checks.push((
        format!(
            "modeled metrics and state hash identical in {} untraced and {} traced repetitions",
            untraced.len(),
            traced.len()
        ),
        same,
    ));
    let attempted = first.attempted + checks.len() as u64;
    let failed = failed_ops + checks.iter().filter(|c| !c.1).count() as u64;

    let median_of = |values: &mut dyn Iterator<Item = f64>| median(&values.collect::<Vec<_>>());
    let run_s = median_of(&mut untraced.iter().map(|s| s.rep.run_s * s.run_scale));
    let mut metrics: BTreeMap<String, f64> = first.modeled.clone();
    let setup_s = median_of(&mut all().map(|s| s.rep.setup_s * s.setup_scale));
    metrics.insert("setup_s".into(), setup_s);
    metrics.insert("run_s".into(), run_s);
    let setup_s_wall = median_of(&mut all().map(|s| s.rep.setup_s));
    metrics.insert("bench.setup_s_wall".into(), setup_s_wall);
    let run_s_wall = median_of(&mut untraced.iter().map(|s| s.rep.run_s));
    metrics.insert("bench.run_s_wall".into(), run_s_wall);
    metrics.insert("bench.speed_sample_ms".into(), median(&speed) * 1e3);
    metrics.insert(
        "failed_permille".into(),
        permille(failed as f64, attempted as f64),
    );
    if args.trace {
        for name in traced[0].rep.host.keys() {
            metrics.insert(
                name.clone(),
                median_of(&mut traced.iter().map(|s| s.rep.host[name])),
            );
        }
        let traced_run_s = median_of(&mut traced.iter().map(|s| s.rep.run_s * s.run_scale));
        metrics.insert(
            "trace_overhead_permille".into(),
            permille(traced_run_s - run_s, run_s),
        );
    }

    eprintln!(
        "# {} seed {}: {} untraced + {} traced repetitions in {:.1} s",
        args.workload.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    eprintln!("# final state_hash {}", hex(&first.state_hash));
    for (name, passed) in &checks {
        eprintln!("# check {}: {name}", if *passed { "ok  " } else { "FAIL" });
    }

    let checks_json: Vec<String> = checks
        .iter()
        .map(|(name, passed)| format!("{{\"name\": {}, \"passed\": {passed}}}", json_string(name)))
        .collect();
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("{}: {}", json_string(name), json_number(*value)))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"state_hash\": \"{}\", \"checks\": [{}], \"metrics\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        hex(&first.state_hash),
        checks_json.join(", "),
        metrics_json.join(", ")
    );
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

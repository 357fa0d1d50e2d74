//! Bench-side spans: host time around calls into each layer's public
//! functions, recorded only in a traced repetition.
//!
//! An untraced repetition runs the very same calls; its [`Clock`] is off,
//! so each span costs one branch and no clock read.

use std::collections::BTreeMap;
use std::time::Instant;

use icbtc::canister::{BitcoinCanister, CallOutcome, CanisterCall, IngestReport};
use icbtc::core::GetSuccessorsResponse;
use icbtc::ic::{ExecutionContext, StateMachine};

/// A span clock that is either on (traced) or off.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    on: bool,
}

impl Clock {
    /// A clock that reads the host time only when `on`.
    pub fn new(on: bool) -> Clock {
        Clock { on }
    }

    /// Opens a span.
    pub fn start(self) -> Span {
        Span(self.on.then(Instant::now))
    }
}

/// An open span; [`Span::ns`] closes it.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span measures nothing until closed"]
pub struct Span(Option<Instant>);

impl Span {
    /// Host nanoseconds since the span opened (0 when untraced).
    pub fn ns(self) -> u64 {
        self.0.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }
}

/// The Bitcoin canister wrapped so the subnet's calls into it are timed:
/// execution, queries and reply sizes delegate to [`BitcoinCanister`], so
/// replicated behaviour and modeled costs are those of the bare canister.
/// (Checkpointing keeps the trait's inert default: no workload enables
/// it.)
pub struct TracedCanister {
    /// The canister.
    pub canister: BitcoinCanister,
    clock: Clock,
    /// Host ns of each query, by method.
    pub query_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Host ns spent in [`TracedCanister::ingest`].
    pub ingest_ns: u64,
    /// Host ns spent inside any canister call (queries, updates, ingest).
    pub inside_ns: u64,
}

impl TracedCanister {
    /// Wraps `canister`.
    pub fn new(canister: BitcoinCanister, clock: Clock) -> TracedCanister {
        TracedCanister {
            canister,
            clock,
            query_ns: BTreeMap::new(),
            ingest_ns: 0,
            inside_ns: 0,
        }
    }

    /// Turns span recording on or off.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// [`BitcoinCanister::ingest_response`], timed.
    pub fn ingest(
        &mut self,
        response: GetSuccessorsResponse,
        now_unix: u32,
        ctx: &mut ExecutionContext<'_>,
    ) -> IngestReport {
        let span = self.clock.start();
        let report = self.canister.ingest_response(response, now_unix, ctx);
        let ns = span.ns();
        self.ingest_ns += ns;
        self.inside_ns += ns;
        report
    }
}

impl StateMachine for TracedCanister {
    type Input = CanisterCall;
    type Output = CallOutcome;

    fn execute(&mut self, input: CanisterCall, ctx: &mut ExecutionContext<'_>) -> CallOutcome {
        let span = self.clock.start();
        let outcome = self.canister.execute(input, ctx);
        self.inside_ns += span.ns();
        outcome
    }

    fn execute_query(
        &mut self,
        input: CanisterCall,
        ctx: &mut ExecutionContext<'_>,
    ) -> CallOutcome {
        let method = input.method();
        let span = self.clock.start();
        let outcome = self.canister.execute_query(input, ctx);
        let ns = span.ns();
        self.inside_ns += ns;
        self.query_ns.entry(method).or_default().push(ns);
        outcome
    }

    fn output_bytes(output: &CallOutcome) -> usize {
        BitcoinCanister::output_bytes(output)
    }
}

//! In-memory span recorder and the per-call correctness ledger.
//!
//! Spans are taken from the benchmark's side of each public call (the
//! program itself carries no tracing): a stage span per pipeline stage and
//! a layer span per call into `graph`, `core`, `congest` or `broadcast`,
//! parented by the open stage span. With tracing off, `begin`/`end` are
//! no-ops and nothing is recorded.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub iteration: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    iteration: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Starts pass `iteration`, traced or not. Spans a failed pass left
    /// open are closed here.
    pub fn start_pass(&mut self, iteration: usize, on: bool) {
        while !self.open.is_empty() {
            self.end();
        }
        self.iteration = iteration;
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("span end without a matching begin");
        self.spans[i].end = self.t0.elapsed();
    }

    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Spans as JSON: `{"name", "start_us", "end_us", "parent", "iteration"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"iteration\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                parent,
                s.iteration
            );
        }
        out.push(']');
        out
    }
}

/// The tracer plus the stage-call ledger behind `pass_ratio`: every call
/// into a layer is attempted once, and fails once at most — by returning
/// `Err`, panicking, or failing the check its output must pass.
pub struct Ctx {
    pub trace: Tracer,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            trace: Tracer::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Runs one layer call under a span named `span`, catching a panic.
    pub fn call<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        self.trace.begin(span);
        let out = catch_unwind(AssertUnwindSafe(f));
        self.trace.end();
        match out {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                self.reject(span, format!("panicked: {msg}"));
                None
            }
        }
    }

    /// [`Ctx::call`] for a fallible call: `Err` counts as a failure.
    pub fn call_ok<T, E: std::fmt::Display>(
        &mut self,
        span: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.call(span, f)? {
            Ok(v) => Some(v),
            Err(e) => {
                self.reject(span, format!("returned Err: {e}"));
                None
            }
        }
    }

    /// Fails an already-attempted call whose output did not pass its check.
    pub fn check(&mut self, what: &'static str, verdict: Result<(), String>) -> bool {
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.reject(what, why);
                false
            }
        }
    }

    fn reject(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }
}

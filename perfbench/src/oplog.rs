//! Per-operation timing and failure accounting for the workload loops.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use field::{OpCount, OpCounter};

use crate::reference::Reference;
use crate::stats;

/// One traced operation: which op, and the field operations it performed
/// (summed over the workload's `Fp` contexts).
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: usize,
    ops: OpCount,
}

impl Span {
    fn fp_ops(&self) -> u64 {
        self.ops.mul + self.ops.additions_total() + self.ops.inv
    }
}

/// Samples, counts and (when tracing) spans of one workload loop.
pub struct OpLog {
    kinds: &'static [&'static str],
    /// Nanoseconds per operation, per kind.
    samples: Vec<Vec<f64>>,
    /// Each sample divided by the mean of the reference kernel timed right
    /// before and right after it.
    ratios: Vec<Vec<f64>>,
    /// Operations per kind.
    ops: Vec<u64>,
    rounds: u64,
    reference: Reference,
    busy: Duration,
    completed: u64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// Counters the spans read; no spans are recorded when empty.
    counters: Vec<Arc<OpCounter>>,
    spans: Vec<Span>,
}

impl OpLog {
    /// An empty log over the given op kinds, normalising by `reference`.
    /// With `counters` — the workload's `Fp` operation counters — it is
    /// traced: it records a span per timed call.
    pub fn new(
        kinds: &'static [&'static str],
        reference: Reference,
        counters: Vec<Arc<OpCounter>>,
    ) -> Self {
        OpLog {
            kinds,
            samples: vec![Vec::new(); kinds.len()],
            ratios: vec![Vec::new(); kinds.len()],
            ops: vec![0; kinds.len()],
            rounds: 0,
            reference,
            busy: Duration::ZERO,
            completed: 0,
            attempted: 0,
            failed: 0,
            counters,
            spans: Vec::new(),
        }
    }

    fn op_count(&self) -> OpCount {
        self.counters
            .iter()
            .map(|c| c.snapshot())
            .fold(OpCount::default(), |acc, c| OpCount {
                mul: acc.mul + c.mul,
                add: acc.add + c.add,
                sub: acc.sub + c.sub,
                inv: acc.inv + c.inv,
            })
    }

    /// Times one call that performs `ops` operations of `kind` (a batch
    /// call performs several); the sample is the time per operation.
    pub fn time<T>(&mut self, kind: usize, ops: u64, f: impl FnOnce() -> T) -> T {
        let reference_before = self.reference.run_ns();
        let before = (!self.counters.is_empty()).then(|| self.op_count());
        let start = Instant::now();
        let out = black_box(f());
        let elapsed = start.elapsed();
        if let Some(before) = before {
            let ops = self.op_count().since(&before);
            self.spans.push(Span { kind, ops });
        }
        let per_op = elapsed.as_nanos() as f64 / ops as f64;
        self.samples[kind].push(per_op);
        let reference = (reference_before + self.reference.run_ns()) / 2.0;
        self.ratios[kind].push(per_op / reference);
        self.ops[kind] += ops;
        self.busy += elapsed;
        self.attempted += ops;
        self.completed += ops;
        out
    }

    /// Records the outcome of checking `ops` operations' results.
    pub fn check(&mut self, ok: bool, ops: u64) {
        if !ok {
            self.failed += ops;
            self.completed -= ops.min(self.completed);
        }
    }

    /// Marks the end of one round.
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Verified operations per second of time spent inside the timed
    /// calls (checks run with the clock stopped).
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.busy.as_secs_f64()
    }

    /// Median time per operation of each kind, in microseconds.
    fn p50_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| stats::median(s) / 1e3)
            .collect()
    }

    /// Geometric mean over kinds of each kind's median, in microseconds.
    pub fn p50_geomean_us(&self) -> f64 {
        stats::geomean(&self.p50_us())
    }

    /// Median reference-normalised cost of one operation, per kind.
    fn p50_ref(&self) -> Vec<f64> {
        self.ratios.iter().map(|r| stats::median(r)).collect()
    }

    /// Geometric mean over kinds of each kind's median normalised cost.
    pub fn p50_geomean_ref(&self) -> f64 {
        stats::geomean(&self.p50_ref())
    }

    /// Normalised cost of one round: Σ over kinds of operations per round
    /// × median normalised cost.
    pub fn round_ref(&self) -> f64 {
        self.p50_ref()
            .iter()
            .zip(&self.ops)
            .map(|(r, n)| r * *n as f64 / self.rounds as f64)
            .sum()
    }

    /// Mean `Fp` operations per traced call.
    pub fn fp_ops_per_span(&self) -> f64 {
        let total: u64 = self.spans.iter().map(Span::fp_ops).sum();
        total as f64 / self.spans.len() as f64
    }

    /// The run-record fields of this loop: raw throughput and geometric
    /// mean, then per kind the median, the tail, the sample count and,
    /// when traced, the mean `Fp` operations per call.
    pub fn record(&self) -> String {
        let entries: Vec<String> = self
            .kinds
            .iter()
            .enumerate()
            .map(|(kind, name)| {
                let s = &self.samples[kind];
                let tail = match stats::tail(s) {
                    Some((pct, v)) => format!("\"tail_pct\": {pct}, \"tail_us\": {:.3}", v / 1e3),
                    None => "\"tail_pct\": null, \"tail_us\": null".into(),
                };
                let spans: Vec<u64> = self
                    .spans
                    .iter()
                    .filter(|sp| sp.kind == kind)
                    .map(Span::fp_ops)
                    .collect();
                let fp_ops = if spans.is_empty() {
                    String::new()
                } else {
                    let mean = spans.iter().sum::<u64>() as f64 / spans.len() as f64;
                    format!(", \"fp_ops_per_call\": {mean:.1}")
                };
                format!(
                    "\"{name}\": {{\"p50_us\": {:.3}, \"p50_ref\": {:.4}, {tail}, \
                     \"samples\": {}{fp_ops}}}",
                    stats::median(s) / 1e3,
                    stats::median(&self.ratios[kind]),
                    s.len()
                )
            })
            .collect();
        format!(
            "\"ops_per_s\": {}, \"op_p50_geomean_us\": {}, \"ops\": {{{}}}",
            self.ops_per_s(),
            self.p50_geomean_us(),
            entries.join(", ")
        )
    }
}

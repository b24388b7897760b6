//! In-memory span recording around the benchmark's calls into each
//! layer, plus delegating wrappers for the layers that are reached only
//! through a public trait.
//!
//! A span has a name, start and end (ns since the recorder was made),
//! the span that was open on the same thread when it started (its
//! parent), a run id (which fit or phase it belongs to) and an item
//! count (batch members, samples). Self time is a span's duration minus
//! its children's. Spans stay in memory until [`Recorder::write_json`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qugeo::train::{EpochReport, TrainStep};
use qugeo::QuGeoError;
use qugeo_nn::optim::Optimizer;
use qugeo_nn::NnError;
use qugeo_qsim::adjoint::ObsForMember;
use qugeo_qsim::{
    AdjointWorkspace, BackendConfig, BatchedState, Circuit, CompiledCircuit, DiagonalObservable,
    QsimError, QuantumBackend, State,
};

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary this span covers.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Which fit, phase or request the span belongs to.
    pub run: u32,
    /// Work items the call processed (batch members, samples).
    pub items: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of the process.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[self.index].end_ns = end;
        }
    }
}

/// Aggregate of the spans sharing a name and run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Spans counted.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the children's, ns.
    pub self_ns: u64,
    /// Summed item counts.
    pub items: u64,
}

impl Summary {
    /// Mean duration per span in µs (0 when none were recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Summed duration per item in ms (0 when no items were recorded).
    pub fn ms_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64 / 1e6
        }
    }
}

/// Runs `f` inside a span when a recorder is given, and plainly
/// otherwise.
pub fn timed<T>(
    rec: Option<&Arc<Recorder>>,
    name: &'static str,
    run: u32,
    items: usize,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(rec) => {
            let _span = rec.span(name, run, u32::try_from(items).unwrap_or(u32::MAX));
            f()
        }
        None => f(),
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder-clock reading of an [`Instant`].
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops. Spans must close in
    /// reverse order of opening on each thread, which scoped guards do.
    pub fn span(&self, name: &'static str, run: u32, items: u32) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent,
                run,
                items,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard { rec: self, index }
    }

    /// Records an interval measured elsewhere, with no parent.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, run: u32, items: u32) {
        let span = Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: None,
            run,
            items,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Per-(name, run) aggregates, with self time = duration minus the
    /// durations of direct children.
    pub fn summarize(&self) -> BTreeMap<(&'static str, u32), Summary> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in &spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<(&'static str, u32), Summary> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let s = out.entry((span.name, span.run)).or_default();
            s.count += 1;
            s.total_ns += span.dur_ns();
            s.self_ns += span.dur_ns().saturating_sub(child_ns[i]);
            s.items += u64::from(span.items);
        }
        out
    }

    /// Aggregate of every span named `name`, across runs.
    pub fn total(&self, name: &str) -> Summary {
        self.summarize()
            .into_iter()
            .filter(|((n, _), _)| *n == name)
            .fold(Summary::default(), |acc, (_, s)| Summary {
                count: acc.count + s.count,
                total_ns: acc.total_ns + s.total_ns,
                self_ns: acc.self_ns + s.self_ns,
                items: acc.items + s.items,
            })
    }

    /// Writes every span as JSON lines of
    /// `{"id", "name", "run", "items", "start_ns", "end_ns", "parent"}`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"items\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.run, s.items, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`QuantumBackend`] that records a span around every execution and
/// gradient call and otherwise delegates every method, the provided ones
/// included, to `inner`.
pub struct TracedBackend<B> {
    inner: B,
    rec: Arc<Recorder>,
    run: u32,
}

impl<B> TracedBackend<B> {
    /// Wraps `inner`; spans carry `run`.
    pub fn new(inner: B, rec: Arc<Recorder>, run: u32) -> Self {
        Self { inner, rec, run }
    }
}

/// Span names: one per layer boundary the benchmark times.
pub mod span {
    /// `QuantumBackend::run_batch`: one forward execution of a batch.
    pub const RUN_BATCH: &str = "qsim.run_batch";
    /// `QuantumBackend::run_each`: per-member circuits.
    pub const RUN_EACH: &str = "qsim.run_each";
    /// `QuantumBackend::run_state`: one single-member execution.
    pub const RUN_STATE: &str = "qsim.run_state";
    /// `QuantumBackend::probabilities`: measurement of a batch.
    pub const PROBABILITIES: &str = "qsim.probabilities";
    /// `QuantumBackend::expectations`: observables of a batch.
    pub const EXPECTATIONS: &str = "qsim.expectations";
    /// `QuantumBackend::adjoint_gradient_batch`: one batched gradient.
    pub const ADJOINT: &str = "qsim.adjoint";
    /// `Optimizer::step`.
    pub const OPTIM_STEP: &str = "nn.optim.step";
    /// `TrainStep::run_epoch`: one epoch of updates.
    pub const EPOCH: &str = "train.epoch";
    /// `TrainStep::evaluate`: one held-out evaluation.
    pub const EVAL: &str = "train.eval";
    /// `Dataset::generate`: FDTD synthesis of a raw dataset.
    pub const GENERATE: &str = "geodata.generate";
    /// Q-D-FW scaling (`scale_forward_model` / `fw_scale_seismic`).
    pub const QDFW: &str = "pipeline.qdfw";
    /// `scale_d_sample`.
    pub const DSAMPLE: &str = "pipeline.dsample";
    /// `train_cnn_scaler`: Q-D-CNN compressor training.
    pub const COMPRESSOR: &str = "pipeline.compressor";
    /// `scale_cnn`: Q-D-CNN scaling with a trained compressor.
    pub const QDCNN: &str = "pipeline.qdcnn";
    /// A Table 2 VQC fit (`Trainer::fit`).
    pub const FIT_VQC: &str = "train.table2.vqc";
    /// A Table 2 CNN fit (`Trainer::fit`).
    pub const FIT_CNN: &str = "train.table2.cnn";
    /// `qugeo_metrics::ssim`.
    pub const SSIM: &str = "metrics.ssim";
    /// One open-loop serve request, submission to answer; its run id is
    /// the request's position in the queue.
    pub const REQUEST: &str = "serve.request";
}

fn items(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl<B: QuantumBackend> QuantumBackend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &BackendConfig {
        self.inner.config()
    }

    fn supports_adjoint_gradient(&self) -> bool {
        self.inner.supports_adjoint_gradient()
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        let _span = self
            .rec
            .span(span::RUN_BATCH, self.run, items(batch.batch_len()));
        self.inner.run_batch(circuit, batch)
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        let _span = self
            .rec
            .span(span::RUN_EACH, self.run, items(batch.batch_len()));
        self.inner.run_each(circuits, batch)
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        let _span = self
            .rec
            .span(span::EXPECTATIONS, self.run, items(batch.batch_len()));
        self.inner.expectations(batch, obs)
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        let _span = self
            .rec
            .span(span::PROBABILITIES, self.run, items(batch.batch_len()));
        self.inner.probabilities(batch)
    }

    fn run_state(&self, circuit: &CompiledCircuit, input: &State) -> Result<State, QsimError> {
        let _span = self.rec.span(span::RUN_STATE, self.run, 1);
        self.inner.run_state(circuit, input)
    }

    fn adjoint_gradient_batch(
        &self,
        circuit: &Circuit,
        params: &[f64],
        inputs: &BatchedState,
        obs_for: &mut ObsForMember<'_>,
        ws: &mut AdjointWorkspace,
    ) -> Result<(), QsimError> {
        let _span = self
            .rec
            .span(span::ADJOINT, self.run, items(inputs.batch_len()));
        self.inner
            .adjoint_gradient_batch(circuit, params, inputs, obs_for, ws)
    }
}

/// An [`Optimizer`] that records a span around every step and delegates
/// every method to `inner`.
pub struct TracedOptimizer {
    inner: Box<dyn Optimizer>,
    rec: Arc<Recorder>,
    run: u32,
}

impl TracedOptimizer {
    /// Wraps `inner`; spans carry `run`.
    pub fn new(inner: Box<dyn Optimizer>, rec: Arc<Recorder>, run: u32) -> Self {
        Self { inner, rec, run }
    }
}

impl Optimizer for TracedOptimizer {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        let _span = self.rec.span(span::OPTIM_STEP, self.run, 1);
        self.inner.step(params, grad);
    }

    fn learning_rate(&self) -> f64 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.inner.set_learning_rate(lr);
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn state(&self) -> Vec<f64> {
        self.inner.state()
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), NnError> {
        self.inner.load_state(state)
    }
}

/// A [`TrainStep`] that records a span around every epoch and
/// evaluation and delegates every method to `inner`.
pub struct TracedStep<'s, S> {
    inner: &'s mut S,
    rec: Arc<Recorder>,
    run: u32,
}

impl<'s, S: TrainStep> TracedStep<'s, S> {
    /// Wraps `inner`; spans carry `run`.
    pub fn new(inner: &'s mut S, rec: Arc<Recorder>, run: u32) -> Self {
        Self { inner, rec, run }
    }
}

impl<S: TrainStep> TrainStep for TracedStep<'_, S> {
    fn num_train_samples(&self) -> usize {
        self.inner.num_train_samples()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.inner.init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        let _span = self.rec.span(span::EPOCH, self.run, items(order.len()));
        self.inner.run_epoch(order, params, optimizer)
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        let _span = self.rec.span(span::EVAL, self.run, 0);
        self.inner.evaluate(params)
    }
}

//! What a workload hands back: operation and check accounting plus its
//! measured metrics, and the metric catalogue every run prints.

use std::collections::BTreeMap;

use qugeo::train::TrainOutcome;

/// End-to-end metrics `(name, unit)`: every untraced run of every
/// workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`: every traced run reports each of
/// them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quality.ssim", "ratio"),
    ("geodata.generate_ms_per_sample", "ms"),
    ("pipeline.qdfw_ms_per_sample", "ms"),
    ("pipeline.compressor_s", "s"),
    ("nn.compressor_steps", "count"),
    ("nn.compressor_step_ms", "ms"),
    ("pipeline.qdcnn_s", "s"),
    ("pipeline.qdcnn_feature_std", "ratio"),
    ("train.table2_vqc_s", "s"),
    ("train.table2_cnn_s", "s"),
    ("train_sps_b1", "1/s"),
    ("train_sps_mb16", "1/s"),
    ("train_sps_qb16", "1/s"),
    ("train.b1.epoch_ms", "ms"),
    ("train.b1.eval_ms", "ms"),
    ("train.b1.self_ms", "ms"),
    ("train.mb16.epoch_ms", "ms"),
    ("train.mb16.eval_ms", "ms"),
    ("train.mb16.self_ms", "ms"),
    ("train.qb16.epoch_ms", "ms"),
    ("train.qb16.eval_ms", "ms"),
    ("train.qb16.self_ms", "ms"),
    ("qsim.b1.adjoint_calls", "count"),
    ("qsim.b1.adjoint_us", "us"),
    ("qsim.b1.recompiles", "count"),
    ("qsim.b1.rebinds", "count"),
    ("qsim.mb16.adjoint_calls", "count"),
    ("qsim.mb16.adjoint_us", "us"),
    ("qsim.mb16.recompiles", "count"),
    ("qsim.mb16.rebinds", "count"),
    ("qsim.qb16.adjoint_calls", "count"),
    ("qsim.qb16.adjoint_us", "us"),
    ("qsim.qb16.recompiles", "count"),
    ("qsim.qb16.rebinds", "count"),
    ("nn.optim.b1.steps", "count"),
    ("nn.optim.b1.step_us", "us"),
    ("nn.optim.mb16.steps", "count"),
    ("nn.optim.mb16.step_us", "us"),
    ("nn.optim.qb16.steps", "count"),
    ("nn.optim.qb16.step_us", "us"),
    ("qsim.forward_calls", "count"),
    ("serve.execute_us_per_batch", "us"),
    ("serve.throughput_per_s", "1/s"),
    ("serve.open.mean_batch", "count"),
    ("serve.closed.mean_batch", "count"),
    ("serve.busy_share", "ratio"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.reply_us_p50", "us"),
    ("serve.swaps", "count"),
    ("serve.session_rebinds", "count"),
    ("serve.session_compilations", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.latency_p99_beyond", "count"),
    ("serve.latency_p999_ms", "ms"),
    ("serve.latency_p999_beyond", "count"),
    ("loadgen.lateness_p50_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("metrics.ssim_calls", "count"),
    ("metrics.ssim_us", "us"),
    ("trace.overhead_pct", "%"),
    ("host.ref_loop_us", "us"),
];

/// Problems kept verbatim per run.
const MAX_PROBLEMS: usize = 20;

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started (set-ups, stages, fits, requests).
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// The first [`MAX_PROBLEMS`] failures and broken checks.
    pub problems: Vec<String>,
    /// Failures and broken checks, all of them.
    pub problem_count: usize,
    /// Measured metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts one operation, and a failure when `result` is an error.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, e);
                None
            }
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: &str, error: impl std::fmt::Display) {
        self.failed += 1;
        self.problem(format!("{what}: {error}"));
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Keeps the first few problems verbatim and counts the rest.
    pub fn problem(&mut self, text: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(text);
        }
        self.problem_count += 1;
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// A fit is sound when its parameters and metrics are finite and the
/// final epoch's training loss is below the first epoch's.
pub fn fit_problem(label: &str, outcome: &TrainOutcome) -> Option<String> {
    if let Some(i) = outcome.params.iter().position(|p| !p.is_finite()) {
        return Some(format!("{label}: parameter {i} is not finite"));
    }
    if !outcome.final_mse.is_finite() || !outcome.final_ssim.is_finite() {
        return Some(format!(
            "{label}: final metrics not finite (mse {}, ssim {})",
            outcome.final_mse, outcome.final_ssim
        ));
    }
    let (Some(first), Some(last)) = (outcome.history.first(), outcome.history.last()) else {
        return Some(format!("{label}: empty training history"));
    };
    // `partial_cmp` so that a NaN loss counts as not below.
    if last.train_loss.partial_cmp(&first.train_loss) != Some(std::cmp::Ordering::Less) {
        return Some(format!(
            "{label}: final train loss {} is not below the first epoch's {}",
            last.train_loss, first.train_loss
        ));
    }
    None
}

/// FNV-1a over the bit patterns of `values`: a cheap digest for checking
/// that repeated runs produced bit-identical data.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

//! Optimisers and learning-rate schedules.
//!
//! The paper's recipe for every model — quantum and classical — is "Adam
//! optimizer with 500 epochs where the initial learning rate is set to
//! 0.1, followed by a cosine annealing schedule". [`Adam`] and
//! [`CosineAnnealing`] implement exactly that pairing.
//!
//! Everything here is built around two small traits so the training
//! engine in `qugeo::train` can swap parts without touching the loop:
//!
//! * [`Optimizer`] — uniform in-place stepping over a flat `&mut [f64]`
//!   parameter vector. Implementations: [`Adam`], [`AmsGrad`], and
//!   [`Sgd`] (plain or momentum).
//! * [`LrSchedule`] — maps an epoch index to a learning rate.
//!   Implementations: [`ConstantLr`], [`StepDecay`], [`CosineAnnealing`],
//!   and [`WarmupCosine`].
//!
//! Optimisers additionally expose their internal state as a flat `f64`
//! vector ([`Optimizer::state`] / [`Optimizer::load_state`]) so a
//! checkpoint can capture moment estimates alongside parameters and a
//! resumed run continues bit-identically to an uninterrupted one.

use crate::error::NnError;

/// A first-order optimiser over a flat parameter vector.
///
/// All implementations step with `&mut self` (even stateless ones keep a
/// step counter) so they are interchangeable as `&mut dyn Optimizer`.
///
/// # Examples
///
/// ```
/// use qugeo_nn::optim::{Adam, Optimizer, Sgd};
///
/// fn minimise(opt: &mut dyn Optimizer) -> f64 {
///     let mut params = vec![1.0_f64];
///     for _ in 0..200 {
///         // Minimise f(x) = x²; gradient 2x.
///         let grad = vec![2.0 * params[0]];
///         opt.step(&mut params, &grad);
///     }
///     params[0]
/// }
///
/// assert!(minimise(&mut Adam::new(1, 0.1)).abs() < 0.05);
/// assert!(minimise(&mut Sgd::new(0.1)).abs() < 0.05);
/// ```
pub trait Optimizer {
    /// Applies one in-place update from a gradient.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grad` length disagrees with the
    /// optimiser's state.
    fn step(&mut self, params: &mut [f64], grad: &[f64]);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate (how schedules drive the optimiser).
    fn set_learning_rate(&mut self, lr: f64);

    /// Number of steps taken so far.
    fn steps(&self) -> u64;

    /// Serialises the optimiser's mutable state (step counter, moment
    /// estimates, velocities …) as one flat `f64` vector. Together with
    /// the parameter vector this is everything a checkpoint needs for a
    /// resumed run to continue bit-identically. Stateless optimisers
    /// return an empty vector.
    fn state(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Restores state captured by [`Optimizer::state`] from the same
    /// optimiser configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `state` does not have the
    /// layout this optimiser serialises (wrong length — e.g. a checkpoint
    /// taken under a different optimiser or parameter count).
    fn load_state(&mut self, state: &[f64]) -> Result<(), NnError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(NnError::ShapeMismatch {
                expected: "empty optimizer state".into(),
                actual: format!("{} values", state.len()),
            })
        }
    }
}

/// A learning-rate schedule: epoch index → learning rate.
///
/// # Examples
///
/// ```
/// use qugeo_nn::optim::{CosineAnnealing, LrSchedule};
///
/// let sched = CosineAnnealing::new(0.1, 500);
/// assert_eq!(sched.lr_at(0), 0.1);
/// assert!(sched.lr_at(500) < 1e-9);
/// ```
pub trait LrSchedule {
    /// Learning rate for epoch `epoch` (0-based).
    fn lr_at(&self, epoch: usize) -> f64;
}

impl LrSchedule for Box<dyn LrSchedule> {
    // Delegation, so schedules chosen at runtime (e.g. a sweep harness
    // picking among schedule families) satisfy `impl LrSchedule +
    // 'static` bounds without a wrapper type.
    fn lr_at(&self, epoch: usize) -> f64 {
        self.as_ref().lr_at(epoch)
    }
}

/// Adam optimiser (Kingma & Ba, 2015) over a flat parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimiser for `num_params` parameters with the
    /// standard moment decays (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(num_params: usize, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grad.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grad)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn steps(&self) -> u64 {
        self.t
    }

    fn state(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(1 + 2 * self.m.len());
        s.push(self.t as f64);
        s.extend_from_slice(&self.m);
        s.extend_from_slice(&self.v);
        s
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), NnError> {
        let n = self.m.len();
        if state.len() != 1 + 2 * n {
            return Err(NnError::ShapeMismatch {
                expected: format!("Adam state of {} values (1 + 2×{n})", 1 + 2 * n),
                actual: format!("{} values", state.len()),
            });
        }
        self.t = state[0] as u64;
        self.m.copy_from_slice(&state[1..1 + n]);
        self.v.copy_from_slice(&state[1 + n..]);
        Ok(())
    }
}

/// AMSGrad (Reddi et al., 2018): Adam with a monotone second-moment
/// estimate — the denominator uses the running *maximum* of `v̂`, which
/// restores convergence guarantees Adam lacks on some problems.
#[derive(Debug, Clone, PartialEq)]
pub struct AmsGrad {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    v_max: Vec<f64>,
    t: u64,
}

impl AmsGrad {
    /// Creates an AMSGrad optimiser with the standard decays
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(num_params: usize, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            v_max: vec![0.0; num_params],
            t: 0,
        }
    }
}

impl Optimizer for AmsGrad {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grad.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let v_hat = self.v[i] / b2t;
            if v_hat > self.v_max[i] {
                self.v_max[i] = v_hat;
            }
            let m_hat = self.m[i] / b1t;
            params[i] -= self.lr * m_hat / (self.v_max[i].sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn steps(&self) -> u64 {
        self.t
    }

    fn state(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(1 + 3 * self.m.len());
        s.push(self.t as f64);
        s.extend_from_slice(&self.m);
        s.extend_from_slice(&self.v);
        s.extend_from_slice(&self.v_max);
        s
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), NnError> {
        let n = self.m.len();
        if state.len() != 1 + 3 * n {
            return Err(NnError::ShapeMismatch {
                expected: format!("AMSGrad state of {} values (1 + 3×{n})", 1 + 3 * n),
                actual: format!("{} values", state.len()),
            });
        }
        self.t = state[0] as u64;
        self.m.copy_from_slice(&state[1..1 + n]);
        self.v.copy_from_slice(&state[1 + n..1 + 2 * n]);
        self.v_max.copy_from_slice(&state[1 + 2 * n..]);
        Ok(())
    }
}

/// Stochastic gradient descent, plain or with classical momentum, for
/// ablations against Adam.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<f64>,
    t: u64,
}

impl Sgd {
    /// Creates a plain (momentum-free) SGD optimiser.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
            t: 0,
        }
    }

    /// Creates a momentum-SGD optimiser:
    /// `v ← μ·v + g`, `p ← p − lr·v`.
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is not in `[0, 1)`.
    pub fn with_momentum(num_params: usize, lr: f64, momentum: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum {momentum} outside [0, 1)"
        );
        Self {
            lr,
            momentum,
            velocity: vec![0.0; num_params],
            t: 0,
        }
    }

    /// The momentum coefficient (0 for plain SGD).
    pub fn momentum(&self) -> f64 {
        self.momentum
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), grad.len(), "gradient count mismatch");
        self.t += 1;
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grad) {
                *p -= self.lr * g;
            }
        } else {
            assert_eq!(params.len(), self.velocity.len(), "param count mismatch");
            for i in 0..params.len() {
                self.velocity[i] = self.momentum * self.velocity[i] + grad[i];
                params[i] -= self.lr * self.velocity[i];
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn steps(&self) -> u64 {
        self.t
    }

    fn state(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(1 + self.velocity.len());
        s.push(self.t as f64);
        s.extend_from_slice(&self.velocity);
        s
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), NnError> {
        let n = self.velocity.len();
        if state.len() != 1 + n {
            return Err(NnError::ShapeMismatch {
                expected: format!("SGD state of {} values (1 + {n} velocities)", 1 + n),
                actual: format!("{} values", state.len()),
            });
        }
        self.t = state[0] as u64;
        self.velocity.copy_from_slice(&state[1..]);
        Ok(())
    }
}

/// A constant learning rate — the identity schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantLr {
    lr: f64,
}

impl ConstantLr {
    /// Schedule that always returns `lr`.
    pub fn new(lr: f64) -> Self {
        Self { lr }
    }
}

impl LrSchedule for ConstantLr {
    fn lr_at(&self, _epoch: usize) -> f64 {
        self.lr
    }
}

/// Step decay: multiply the learning rate by `gamma` every
/// `every` epochs — `lr(e) = lr₀ · γ^⌊e/every⌋`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecay {
    initial_lr: f64,
    gamma: f64,
    every: usize,
}

impl StepDecay {
    /// Schedule decaying by `gamma` every `every` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(initial_lr: f64, gamma: f64, every: usize) -> Self {
        assert!(every > 0, "step-decay interval must be positive");
        Self {
            initial_lr,
            gamma,
            every,
        }
    }
}

impl LrSchedule for StepDecay {
    fn lr_at(&self, epoch: usize) -> f64 {
        self.initial_lr * self.gamma.powi((epoch / self.every) as i32)
    }
}

/// Cosine-annealing learning-rate schedule:
/// `lr(e) = lr_min + (lr₀ − lr_min)·(1 + cos(π·e/E)) / 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineAnnealing {
    initial_lr: f64,
    min_lr: f64,
    total_epochs: usize,
}

impl CosineAnnealing {
    /// Schedule from `initial_lr` down to zero over `total_epochs`.
    pub fn new(initial_lr: f64, total_epochs: usize) -> Self {
        Self {
            initial_lr,
            min_lr: 0.0,
            total_epochs: total_epochs.max(1),
        }
    }

    /// Schedule with an explicit floor.
    pub fn with_min_lr(initial_lr: f64, min_lr: f64, total_epochs: usize) -> Self {
        Self {
            initial_lr,
            min_lr,
            total_epochs: total_epochs.max(1),
        }
    }
}

impl LrSchedule for CosineAnnealing {
    /// Learning rate for epoch `epoch` (clamped past the end).
    fn lr_at(&self, epoch: usize) -> f64 {
        let e = epoch.min(self.total_epochs) as f64;
        let frac = e / self.total_epochs as f64;
        self.min_lr
            + (self.initial_lr - self.min_lr) * (1.0 + (std::f64::consts::PI * frac).cos()) / 2.0
    }
}

/// Linear warmup followed by cosine annealing: the learning rate climbs
/// linearly to `initial_lr` over the first `warmup_epochs`, then anneals
/// to zero over the remaining epochs — the staged schedule hybrid
/// quantum-classical FWI training runs use to stabilise early epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupCosine {
    initial_lr: f64,
    warmup_epochs: usize,
    cosine: CosineAnnealing,
}

impl WarmupCosine {
    /// Schedule warming up over `warmup_epochs`, then cosine-annealing
    /// to zero by `total_epochs`.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_epochs >= total_epochs`.
    pub fn new(initial_lr: f64, warmup_epochs: usize, total_epochs: usize) -> Self {
        assert!(
            warmup_epochs < total_epochs,
            "warmup ({warmup_epochs}) must end before the schedule does ({total_epochs})"
        );
        Self {
            initial_lr,
            warmup_epochs,
            cosine: CosineAnnealing::new(initial_lr, total_epochs - warmup_epochs),
        }
    }
}

impl LrSchedule for WarmupCosine {
    fn lr_at(&self, epoch: usize) -> f64 {
        if epoch < self.warmup_epochs {
            self.initial_lr * (epoch + 1) as f64 / self.warmup_epochs as f64
        } else {
            self.cosine.lr_at(epoch - self.warmup_epochs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_quadratic() {
        let mut p = vec![5.0, -3.0];
        let mut adam = Adam::new(2, 0.2);
        for _ in 0..500 {
            let g = vec![2.0 * p[0], 2.0 * (p[1] + 1.0)];
            adam.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-2);
        assert!((p[1] + 1.0).abs() < 1e-2);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step has magnitude
        // ~lr regardless of gradient scale.
        let mut p = vec![0.0];
        let mut adam = Adam::new(1, 0.1);
        adam.step(&mut p, &[1e-3]);
        assert!((p[0] + 0.1).abs() < 1e-6, "step was {}", p[0]);
    }

    #[test]
    fn amsgrad_minimises_quadratic() {
        let mut p = vec![5.0, -3.0];
        let mut opt = AmsGrad::new(2, 0.2);
        for _ in 0..500 {
            let g = vec![2.0 * p[0], 2.0 * (p[1] + 1.0)];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-2);
        assert!((p[1] + 1.0).abs() < 1e-2);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn amsgrad_denominator_is_monotone() {
        // After a large gradient, AMSGrad keeps the large denominator
        // while Adam forgets it: feed one spike then tiny gradients and
        // the AMSGrad steps must stay no larger than Adam's.
        let mut pa = vec![0.0];
        let mut pm = vec![0.0];
        let mut adam = Adam::new(1, 0.1);
        let mut ams = AmsGrad::new(1, 0.1);
        adam.step(&mut pa, &[100.0]);
        ams.step(&mut pm, &[100.0]);
        for _ in 0..50 {
            let a0 = pa[0];
            let m0 = pm[0];
            adam.step(&mut pa, &[1e-3]);
            ams.step(&mut pm, &[1e-3]);
            assert!((pm[0] - m0).abs() <= (pa[0] - a0).abs() + 1e-15);
        }
    }

    #[test]
    fn sgd_step() {
        let mut p = vec![1.0];
        let mut sgd = Sgd::new(0.5);
        sgd.step(&mut p, &[2.0]);
        assert_eq!(p[0], 0.0);
        assert_eq!(sgd.steps(), 1);
    }

    #[test]
    fn momentum_sgd_accumulates_velocity() {
        // Constant gradient g: v accumulates (1-μ^t)/(1-μ)·g, so the
        // second step is strictly larger than the first.
        let mut p = vec![0.0];
        let mut sgd = Sgd::with_momentum(1, 0.1, 0.9);
        sgd.step(&mut p, &[1.0]);
        let first = -p[0];
        let before = p[0];
        sgd.step(&mut p, &[1.0]);
        let second = before - p[0];
        assert!((first - 0.1).abs() < 1e-12);
        assert!((second - 0.19).abs() < 1e-12);
        assert_eq!(sgd.momentum(), 0.9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn momentum_out_of_range_panics() {
        Sgd::with_momentum(1, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn adam_length_mismatch_panics() {
        let mut p = vec![0.0];
        Adam::new(2, 0.1).step(&mut p, &[1.0]);
    }

    #[test]
    fn optimizers_are_object_safe_and_uniform() {
        let mut opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Adam::new(1, 0.1)),
            Box::new(AmsGrad::new(1, 0.1)),
            Box::new(Sgd::new(0.1)),
            Box::new(Sgd::with_momentum(1, 0.1, 0.5)),
        ];
        for opt in &mut opts {
            let mut p = vec![1.0];
            opt.set_learning_rate(0.05);
            opt.step(&mut p, &[1.0]);
            assert_eq!(opt.steps(), 1);
            assert_eq!(opt.learning_rate(), 0.05);
            assert!(p[0] < 1.0);
        }
    }

    #[test]
    fn state_round_trip_resumes_bit_identically() {
        // Step a reference optimiser 10 times; snapshot a fresh twin at
        // step 5 via state(); both must produce bit-identical params.
        fn drive(opt: &mut dyn Optimizer, p: &mut [f64], steps: usize) {
            for k in 0..steps {
                let g: Vec<f64> = p.iter().map(|x| 2.0 * x + k as f64 * 0.01).collect();
                opt.step(p, &g);
            }
        }
        let builders: Vec<Box<dyn Fn() -> Box<dyn Optimizer>>> = vec![
            Box::new(|| Box::new(Adam::new(3, 0.1))),
            Box::new(|| Box::new(AmsGrad::new(3, 0.1))),
            Box::new(|| Box::new(Sgd::with_momentum(3, 0.1, 0.9))),
            Box::new(|| Box::new(Sgd::new(0.1))),
        ];
        for build in builders {
            let mut full = build();
            let mut p_full = vec![1.0, -2.0, 0.5];
            drive(full.as_mut(), &mut p_full, 10);

            let mut half = build();
            let mut p_half = vec![1.0, -2.0, 0.5];
            drive(half.as_mut(), &mut p_half, 5);
            let snapshot = half.state();

            let mut resumed = build();
            resumed.load_state(&snapshot).unwrap();
            assert_eq!(resumed.steps(), 5);
            // Resume must replay the same step indices the full run saw.
            for k in 5..10 {
                let g: Vec<f64> = p_half.iter().map(|x| 2.0 * x + k as f64 * 0.01).collect();
                resumed.step(&mut p_half, &g);
            }
            assert_eq!(p_full, p_half, "resumed params must be bit-identical");
        }
    }

    #[test]
    fn load_state_rejects_wrong_layout() {
        let mut adam = Adam::new(2, 0.1);
        let err = adam.load_state(&[0.0; 4]).unwrap_err();
        assert!(err.to_string().contains("Adam state"));
        // An Adam(2) snapshot has 5 values — the wrong shape for AMSGrad(2).
        let snapshot = {
            let mut a = Adam::new(2, 0.1);
            a.step(&mut [1.0, 1.0], &[1.0, 1.0]);
            a.state()
        };
        assert!(AmsGrad::new(2, 0.1).load_state(&snapshot).is_err());
        assert!(Sgd::new(0.1).load_state(&snapshot).is_err());
        // Plain SGD state is just the step counter.
        let mut sgd = Sgd::new(0.1);
        sgd.load_state(&[7.0]).unwrap();
        assert_eq!(sgd.steps(), 7);
    }

    #[test]
    fn constant_schedule_is_flat() {
        let s = ConstantLr::new(0.07);
        assert_eq!(s.lr_at(0), 0.07);
        assert_eq!(s.lr_at(10_000), 0.07);
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = StepDecay::new(0.1, 0.5, 10);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-12);
        assert!((s.lr_at(9) - 0.1).abs() < 1e-12);
        assert!((s.lr_at(10) - 0.05).abs() < 1e-12);
        assert!((s.lr_at(25) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn cosine_schedule_endpoints_and_midpoint() {
        let s = CosineAnnealing::new(0.1, 100);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-12);
        assert!((s.lr_at(50) - 0.05).abs() < 1e-12);
        assert!(s.lr_at(100).abs() < 1e-12);
        assert!(s.lr_at(200).abs() < 1e-12); // clamped
    }

    #[test]
    fn cosine_schedule_monotone_decreasing() {
        let s = CosineAnnealing::new(0.1, 500);
        let mut prev = f64::INFINITY;
        for e in 0..=500 {
            let lr = s.lr_at(e);
            assert!(lr <= prev + 1e-15);
            prev = lr;
        }
    }

    #[test]
    fn cosine_with_floor() {
        let s = CosineAnnealing::with_min_lr(0.1, 0.01, 10);
        assert!((s.lr_at(10) - 0.01).abs() < 1e-12);
        assert!(s.lr_at(5) > 0.01);
    }

    #[test]
    fn warmup_cosine_ramps_then_anneals() {
        let s = WarmupCosine::new(0.1, 5, 50);
        // Linear ramp hits the full rate on the last warmup epoch.
        assert!((s.lr_at(0) - 0.02).abs() < 1e-12);
        assert!((s.lr_at(4) - 0.1).abs() < 1e-12);
        // Then cosine decay from the peak down to ~zero at the end.
        assert!((s.lr_at(5) - 0.1).abs() < 1e-12);
        assert!(s.lr_at(27) < 0.1);
        assert!(s.lr_at(50).abs() < 1e-9);
        // The peak is the maximum over the whole schedule.
        let max = (0..=50).map(|e| s.lr_at(e)).fold(0.0f64, f64::max);
        assert!((max - 0.1).abs() < 1e-12);
    }

    #[test]
    fn schedule_drives_optimizer_through_traits() {
        let sched: Box<dyn LrSchedule> = Box::new(CosineAnnealing::new(0.1, 10));
        let mut opt: Box<dyn Optimizer> = Box::new(Adam::new(1, sched.lr_at(0)));
        let mut p = vec![1.0];
        for e in 0..10 {
            opt.set_learning_rate(sched.lr_at(e));
            let g = [2.0 * p[0]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1.0);
    }
}

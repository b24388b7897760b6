//! Differential suite: the layers and Adam must reproduce, bit for bit,
//! the plain scalar loops they replaced.
//!
//! `oracle` holds those loops, frozen: six-deep `Array3` indexing for the
//! convolution, `from_fn` for ReLU and pooling, one sum per row and an
//! indexed backward for the linear layer, an indexed loop for Adam. Every
//! comparison is on `to_bits`, so a changed accumulation order, a fused
//! multiply-add or a lost zero-gradient skip fails here even when the
//! values still agree to 1e-15.

use proptest::prelude::*;
use qugeo_nn::layers::{Conv2d, GlobalAvgPool, Linear, Relu};
use qugeo_nn::optim::{Adam, Optimizer};
use qugeo_tensor::Array3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The loops the layers replaced, kept verbatim as the reference.
mod oracle {
    use qugeo_nn::layers::{Conv2d, Linear};
    use qugeo_tensor::Array3;

    /// Weights `[out][in][kh][kw]` and biases of a layer.
    fn conv_params(conv: &Conv2d) -> (Vec<f64>, Vec<f64>) {
        let mut w = conv.params();
        let b = w.split_off(w.len() - conv.out_channels());
        (w, b)
    }

    pub fn conv_forward(conv: &Conv2d, input: &Array3) -> Array3 {
        let (weights, bias) = conv_params(conv);
        let (cin, k, s) = (conv.in_channels(), conv.kernel(), conv.stride());
        let weight =
            |o: usize, c: usize, kh: usize, kw: usize| weights[((o * cin + c) * k + kh) * k + kw];
        let (_, h, w) = input.shape();
        let (oh, ow) = conv.output_size(h, w).expect("kernel fits");
        let mut out = Array3::zeros(conv.out_channels(), oh, ow);
        for o in 0..conv.out_channels() {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = bias[o];
                    for c in 0..cin {
                        for kh in 0..k {
                            for kw in 0..k {
                                acc += weight(o, c, kh, kw) * input[(c, i * s + kh, j * s + kw)];
                            }
                        }
                    }
                    out[(o, i, j)] = acc;
                }
            }
        }
        out
    }

    pub fn conv_backward(
        conv: &Conv2d,
        input: &Array3,
        grad_output: &Array3,
    ) -> (Array3, Vec<f64>) {
        let (weights, bias) = conv_params(conv);
        let (cin, k, s) = (conv.in_channels(), conv.kernel(), conv.stride());
        let (ch, h, w) = input.shape();
        let (oh, ow) = conv.output_size(h, w).expect("kernel fits");
        let mut grad_input = Array3::zeros(ch, h, w);
        let mut grad_w = vec![0.0; weights.len()];
        let mut grad_b = vec![0.0; bias.len()];
        for o in 0..conv.out_channels() {
            for i in 0..oh {
                for j in 0..ow {
                    let g = grad_output[(o, i, j)];
                    if g == 0.0 {
                        continue;
                    }
                    grad_b[o] += g;
                    for c in 0..cin {
                        for kh in 0..k {
                            for kw in 0..k {
                                let (p, q) = (i * s + kh, j * s + kw);
                                let widx = ((o * cin + c) * k + kh) * k + kw;
                                grad_w[widx] += g * input[(c, p, q)];
                                grad_input[(c, p, q)] += g * weights[widx];
                            }
                        }
                    }
                }
            }
        }
        grad_w.extend_from_slice(&grad_b);
        (grad_input, grad_w)
    }

    pub fn relu_backward(x: &Array3, grad_output: &Array3) -> Array3 {
        let (d0, d1, d2) = x.shape();
        Array3::from_fn(d0, d1, d2, |i, j, k| {
            if x[(i, j, k)] > 0.0 {
                grad_output[(i, j, k)]
            } else {
                0.0
            }
        })
    }

    pub fn pool_forward(x: &Array3) -> Vec<f64> {
        let (ch, h, w) = x.shape();
        let n = (h * w) as f64;
        (0..ch)
            .map(|c| {
                let mut acc = 0.0;
                for i in 0..h {
                    for j in 0..w {
                        acc += x[(c, i, j)];
                    }
                }
                acc / n
            })
            .collect()
    }

    pub fn pool_backward(x: &Array3, grad_output: &[f64]) -> Array3 {
        let (ch, h, w) = x.shape();
        let n = (h * w) as f64;
        Array3::from_fn(ch, h, w, |c, _, _| grad_output[c] / n)
    }

    pub fn linear_forward(fc: &Linear, x: &[f64]) -> Vec<f64> {
        let n_in = fc.in_features();
        let params = fc.params();
        let (weights, bias) = params.split_at(n_in * fc.out_features());
        let mut y = bias.to_vec();
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &weights[o * n_in..(o + 1) * n_in];
            *yo += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>();
        }
        y
    }

    pub fn linear_backward(fc: &Linear, x: &[f64], grad_output: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n_in = fc.in_features();
        let weights = &fc.params()[..n_in * fc.out_features()];
        let mut grad_input = vec![0.0; n_in];
        let mut grad_w = vec![0.0; weights.len()];
        for (o, &g) in grad_output.iter().enumerate() {
            for i in 0..n_in {
                grad_w[o * n_in + i] = g * x[i];
                grad_input[i] += g * weights[o * n_in + i];
            }
        }
        grad_w.extend_from_slice(grad_output);
        (grad_input, grad_w)
    }

    /// Adam with the standard decays, stepped by an indexed loop.
    pub struct Adam {
        pub lr: f64,
        pub m: Vec<f64>,
        pub v: Vec<f64>,
        pub t: u64,
    }

    impl Adam {
        pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
            let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
            self.t += 1;
            let b1t = 1.0 - beta1.powi(self.t as i32);
            let b2t = 1.0 - beta2.powi(self.t as i32);
            for i in 0..params.len() {
                self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * grad[i];
                self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * grad[i] * grad[i];
                let m_hat = self.m[i] / b1t;
                let v_hat = self.v[i] / b2t;
                params[i] -= self.lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

/// Values in `[-1, 1)`, a `zero_share` of them exactly `±0.0`.
fn values(rng: &mut StdRng, len: usize, zero_share: f64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < zero_share {
                if rng.gen_range(0.0..1.0) < 0.5 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect()
}

fn assert_bits(what: &str, actual: &[f64], expected: &[f64]) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}[{i}]: {a:e} vs {e:e}");
    }
}

/// Forward, input gradient, parameter gradient and the parameter-only
/// backward of `conv` against the oracle on one input.
fn check_conv(conv: &Conv2d, x: &Array3, grad_out: &Array3) {
    let y = conv.forward(x).expect("forward");
    assert_bits(
        "forward",
        y.as_slice(),
        oracle::conv_forward(conv, x).as_slice(),
    );
    let (gx, gp) = conv.backward(x, grad_out).expect("backward");
    let (ref_gx, ref_gp) = oracle::conv_backward(conv, x, grad_out);
    assert_bits("input gradient", gx.as_slice(), ref_gx.as_slice());
    assert_bits("parameter gradient", &gp, &ref_gp);
    let gp_only = conv.backward_params(x, grad_out).expect("backward_params");
    assert_bits("backward_params", &gp_only, &ref_gp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conv_matches_the_scalar_loops_bit_for_bit(
        in_ch in 1usize..5,
        out_ch in 1usize..6,
        kernel in 1usize..=7,
        stride in 1usize..=4,
        extra_h in 0usize..24,
        extra_w in 0usize..24,
        zero_share in 0.0f64..0.9,
        seed in 0u64..1_000_000,
    ) {
        let mut conv = Conv2d::new(in_ch, out_ch, kernel, stride, seed).expect("layer");
        let mut rng = StdRng::seed_from_u64(seed);
        // Non-zero biases, so bias-first accumulation is exercised.
        let params = values(&mut rng, conv.num_params(), 0.1);
        conv.set_params(&params).expect("param count");
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let x = Array3::from_vec(in_ch, h, w, values(&mut rng, in_ch * h * w, 0.1)).expect("shape");
        let (oh, ow) = conv.output_size(h, w).expect("fits");
        let grad_out = Array3::from_vec(out_ch, oh, ow, values(&mut rng, out_ch * oh * ow, zero_share))
            .expect("shape");
        check_conv(&conv, &x, &grad_out);
    }

    #[test]
    fn linear_matches_the_scalar_loops_bit_for_bit(
        inputs in 1usize..40,
        outputs in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut fc = Linear::new(inputs, outputs, seed).expect("layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let params = values(&mut rng, fc.num_params(), 0.1);
        fc.set_params(&params).expect("param count");
        let x = values(&mut rng, inputs, 0.2);
        assert_bits("linear forward", &fc.forward(&x).expect("forward"), &oracle::linear_forward(&fc, &x));
        let g = values(&mut rng, outputs, 0.3);
        let (gx, gp) = fc.backward(&x, &g).expect("backward");
        let (ref_gx, ref_gp) = oracle::linear_backward(&fc, &x, &g);
        assert_bits("linear input gradient", &gx, &ref_gx);
        assert_bits("linear parameter gradient", &gp, &ref_gp);
    }

    #[test]
    fn relu_and_pool_match_the_scalar_loops_bit_for_bit(
        ch in 0usize..4,
        h in 0usize..7,
        w in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = ch * h * w;
        let x = Array3::from_vec(ch, h, w, values(&mut rng, len, 0.3)).expect("shape");
        let g = Array3::from_vec(ch, h, w, values(&mut rng, len, 0.3)).expect("shape");
        assert_bits(
            "relu backward",
            Relu.backward(&x, &g).as_slice(),
            oracle::relu_backward(&x, &g).as_slice(),
        );
        assert_bits("pool forward", &GlobalAvgPool.forward(&x), &oracle::pool_forward(&x));
        let gp = values(&mut rng, ch, 0.3);
        assert_bits(
            "pool backward",
            GlobalAvgPool.backward(&x, &gp).as_slice(),
            oracle::pool_backward(&x, &gp).as_slice(),
        );
    }

    #[test]
    fn adam_matches_the_scalar_loop_bit_for_bit(
        n in 1usize..64,
        lr in 0.001f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = values(&mut rng, n, 0.1);
        let mut reference = params.clone();
        let mut adam = Adam::new(n, lr);
        let mut oracle = oracle::Adam { lr, m: vec![0.0; n], v: vec![0.0; n], t: 0 };
        for _ in 0..20 {
            let grad = values(&mut rng, n, 0.3);
            adam.step(&mut params, &grad);
            oracle.step(&mut reference, &grad);
        }
        assert_bits("adam parameters", &params, &reference);
        let state = adam.state();
        assert_bits("adam first moments", &state[1..1 + n], &oracle.m);
        assert_bits("adam second moments", &state[1 + n..], &oracle.v);
    }
}

#[test]
fn conv_matches_the_scalar_loops_at_the_paper_shapes() {
    // The compressor's layers at OpenFWI size and the CNN-LY regressor's,
    // the shapes the benchmark trains.
    let shapes = [
        (1, 4, 7, 4, 1000, 70),
        (4, 8, 5, 4, 249, 16),
        (1, 6, 3, 1, 16, 16),
        (6, 9, 3, 1, 14, 14),
    ];
    for (seed, &(cin, cout, k, s, h, w)) in shapes.iter().enumerate() {
        let conv = Conv2d::new(cin, cout, k, s, seed as u64).expect("layer");
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let x = Array3::from_vec(cin, h, w, values(&mut rng, cin * h * w, 0.0)).expect("shape");
        let (oh, ow) = conv.output_size(h, w).expect("fits");
        // ReLU-like: about half the output gradient exactly zero.
        let g =
            Array3::from_vec(cout, oh, ow, values(&mut rng, cout * oh * ow, 0.5)).expect("shape");
        check_conv(&conv, &x, &g);
    }
}

#[test]
fn conv_skips_zero_gradients_even_against_non_finite_inputs() {
    // A zero output gradient contributes nothing, not `0 × inf = NaN`:
    // the scalar loops skipped such positions, and so must the kernels.
    let conv = Conv2d::new(2, 3, 3, 2, 5).expect("layer");
    let mut rng = StdRng::seed_from_u64(9);
    let mut xs = values(&mut rng, 2 * 9 * 11, 0.0);
    xs[0] = f64::INFINITY;
    xs[13] = f64::NAN;
    xs[2 * 9 * 11 - 1] = f64::NEG_INFINITY;
    let x = Array3::from_vec(2, 9, 11, xs).expect("shape");
    let mut gs = values(&mut rng, 3 * 4 * 5, 0.0);
    // Zero the gradient at every output whose window holds a non-finite value.
    let y = oracle::conv_forward(&conv, &x);
    for (g, v) in gs.iter_mut().zip(y.iter()) {
        if !v.is_finite() {
            *g = 0.0;
        }
    }
    let g = Array3::from_vec(3, 4, 5, gs).expect("shape");
    let (_, gp) = conv.backward(&x, &g).expect("backward");
    assert!(gp.iter().all(|v| v.is_finite()), "{gp:?}");
    check_conv(&conv, &x, &g);
}

//! Property-based gradient checks: every layer's analytic backward pass
//! must agree with finite differences for random shapes and inputs.

use proptest::prelude::*;
use qugeo_nn::layers::{Conv2d, GlobalAvgPool, Linear, Relu};
use qugeo_nn::loss::mse_loss;
use qugeo_nn::optim::{Adam, CosineAnnealing, LrSchedule, Optimizer};
use qugeo_tensor::Array3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_gradient_correct_for_random_shapes(
        inputs in 1usize..8,
        outputs in 1usize..6,
        seed in 0u64..1000,
    ) {
        let fc = Linear::new(inputs, outputs, seed).expect("layer");
        let x: Vec<f64> = (0..inputs).map(|i| ((i as f64) + 0.3) * 0.4 - 1.0).collect();
        let y = fc.forward(&x).expect("forward");
        let target = vec![0.25; outputs];
        let (_, grad_out) = mse_loss(&y, &target);
        let (gx, gp) = fc.backward(&x, &grad_out).expect("backward");

        let loss = |fc: &Linear, x: &[f64]| {
            let y = fc.forward(x).expect("forward");
            mse_loss(&y, &target).0
        };
        let h = 1e-6;
        // One random-ish parameter index and one input index.
        let pi = (seed as usize) % fc.num_params();
        let mut f2 = fc.clone();
        let mut p = fc.params();
        p[pi] += h;
        f2.set_params(&p).expect("param count");
        let plus = loss(&f2, &x);
        p[pi] -= 2.0 * h;
        f2.set_params(&p).expect("param count");
        let minus = loss(&f2, &x);
        let fd = (plus - minus) / (2.0 * h);
        prop_assert!((fd - gp[pi]).abs() < 1e-5, "param {}: {} vs {}", pi, fd, gp[pi]);

        let xi = (seed as usize) % inputs;
        let mut xp = x.clone();
        xp[xi] += h;
        let plus = loss(&fc, &xp);
        xp[xi] -= 2.0 * h;
        let minus = loss(&fc, &xp);
        let fd = (plus - minus) / (2.0 * h);
        prop_assert!((fd - gx[xi]).abs() < 1e-5, "input {}: {} vs {}", xi, fd, gx[xi]);
    }

    #[test]
    fn conv_gradient_correct_for_random_configs(
        in_ch in 1usize..3,
        out_ch in 1usize..3,
        kernel in (1usize..=3).prop_map(|k| 2 * k + 1),
        stride in 1usize..=4,
        extra_h in 0usize..9,
        extra_w in 0usize..9,
        seed in 0u64..1000,
    ) {
        // Kernels 3/5/7 and strides 1–4 cover the compressor's 7/4 and
        // 5/4 layers; the input is never square.
        let (h, w) = (kernel + extra_h, kernel + extra_h + 1 + extra_w);
        let conv = Conv2d::new(in_ch, out_ch, kernel, stride, seed).expect("layer");
        let x = Array3::from_fn(in_ch, h, w, |c, i, j| {
            (((c * h * w + i * w + j) as f64) * 0.37).sin()
        });
        let y = conv.forward(&x).expect("forward");
        let grad_out = y.map(|v| 2.0 * v); // d/dy of sum(y²)
        let (gx, gp) = conv.backward(&x, &grad_out).expect("backward");

        let loss = |conv: &Conv2d, x: &Array3| -> f64 {
            conv.forward(x).expect("forward").iter().map(|v| v * v).sum()
        };
        let h_step = 1e-6;
        let pi = (seed as usize) % conv.num_params();
        let mut c2 = conv.clone();
        let mut p = conv.params();
        p[pi] += h_step;
        c2.set_params(&p).expect("param count");
        let plus = loss(&c2, &x);
        p[pi] -= 2.0 * h_step;
        c2.set_params(&p).expect("param count");
        let minus = loss(&c2, &x);
        let fd = (plus - minus) / (2.0 * h_step);
        prop_assert!(
            (fd - gp[pi]).abs() < 1e-4 * fd.abs().max(1.0),
            "param {}: fd {} vs analytic {}", pi, fd, gp[pi]
        );

        // The input gradient, at a spread of elements (those no window
        // covers have gradient exactly zero).
        for probe in 0..4u64 {
            let flat = ((seed * 7919 + probe * 104_729) as usize) % x.len();
            let (c0, i0, j0) = (flat / (h * w), (flat % (h * w)) / w, flat % w);
            let mut xp = x.clone();
            xp[(c0, i0, j0)] += h_step;
            let plus = loss(&conv, &xp);
            xp[(c0, i0, j0)] -= 2.0 * h_step;
            let minus = loss(&conv, &xp);
            let fd = (plus - minus) / (2.0 * h_step);
            prop_assert!(
                (fd - gx[(c0, i0, j0)]).abs() < 1e-4 * fd.abs().max(1.0),
                "input ({}, {}, {}): fd {} vs analytic {}", c0, i0, j0, fd, gx[(c0, i0, j0)]
            );
        }
    }

    #[test]
    fn conv_backward_params_equals_backward_bit_for_bit(
        in_ch in 1usize..4,
        out_ch in 1usize..4,
        kernel in 1usize..=7,
        stride in 1usize..=4,
        extra_h in 0usize..12,
        extra_w in 0usize..12,
        seed in 0u64..1000,
    ) {
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let conv = Conv2d::new(in_ch, out_ch, kernel, stride, seed).expect("layer");
        let x = Array3::from_fn(in_ch, h, w, |c, i, j| {
            (((c * h * w + i * w + j) as f64 + seed as f64) * 0.61).cos()
        });
        // ReLU-shaped output gradient: negative entries become exact zeros.
        let grad_out = conv.forward(&x).expect("forward").map(|v| v.max(0.0));
        let (_, full) = conv.backward(&x, &grad_out).expect("backward");
        let params_only = conv.backward_params(&x, &grad_out).expect("backward_params");
        prop_assert_eq!(full.len(), params_only.len());
        for (a, b) in full.iter().zip(&params_only) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relu_never_passes_negative_gradient_through_negative_input(
        vals in prop::collection::vec(-2.0f64..2.0, 12),
    ) {
        let x = Array3::from_vec(1, 3, 4, vals.clone()).expect("shape");
        let g = Array3::from_vec(1, 3, 4, vec![1.0; 12]).expect("shape");
        let gx = Relu.backward(&x, &g);
        for (xi, gi) in vals.iter().zip(gx.iter()) {
            if *xi <= 0.0 {
                prop_assert_eq!(*gi, 0.0);
            } else {
                prop_assert_eq!(*gi, 1.0);
            }
        }
    }

    #[test]
    fn pool_gradient_sums_to_output_gradient(
        ch in 1usize..4,
        h in 1usize..5,
        w in 1usize..5,
    ) {
        let x = Array3::from_fn(ch, h, w, |c, i, j| (c + i + j) as f64);
        let grad_out: Vec<f64> = (0..ch).map(|c| (c as f64) + 1.0).collect();
        let gx = GlobalAvgPool.backward(&x, &grad_out);
        // Per channel, input gradients sum to the channel's output grad.
        for c in 0..ch {
            let mut total = 0.0;
            for i in 0..h {
                for j in 0..w {
                    total += gx[(c, i, j)];
                }
            }
            prop_assert!((total - grad_out[c]).abs() < 1e-9);
        }
    }

    #[test]
    fn adam_converges_on_random_quadratics(
        target in prop::collection::vec(-3.0f64..3.0, 4),
        lr in 0.05f64..0.3,
    ) {
        let mut p = vec![0.0; 4];
        let mut adam = Adam::new(4, lr);
        let sched = CosineAnnealing::new(lr, 400);
        for e in 0..400 {
            adam.set_learning_rate(sched.lr_at(e));
            let grad: Vec<f64> = p.iter().zip(&target).map(|(x, t)| 2.0 * (x - t)).collect();
            adam.step(&mut p, &grad);
        }
        for (x, t) in p.iter().zip(&target) {
            prop_assert!((x - t).abs() < 0.1, "{} vs {}", x, t);
        }
    }
}

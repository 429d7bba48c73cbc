//! The kernels contract over the non-zero columns of their left operand
//! only (see `mlir_rl_nn::tensor`). These properties hold them, bit for
//! bit, to plain sequential references that multiply every zero: a
//! hand-written dot product for the forward kernel, and a single-sample
//! LSTM written over the dense loops of row-major `Param`s (`matvec`,
//! `matvec_transposed`, `add_outer_to_grad`) for the layer's forward, its
//! weight-gradient accumulation and its batched backward. The LSTM's own
//! `W` is stored input-major, so that comparison also holds the
//! input-major kernels to the row-major loops; a separate property holds
//! an input-major `Param` to its row-major twin entry point by entry
//! point.

use mlir_rl_nn::tensor::matmul_nt;
use mlir_rl_nn::{sigmoid_in_place, tanh_in_place, Lstm, Param, Tensor2};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Batch sizes: a lone row, below / at / above one 4-row band, many bands.
const BATCHES: [usize; 5] = [1, 3, 4, 5, 16];

/// How many of `k` columns hold a non-zero in at least one row: none, 1 %,
/// 10 %, the last count that takes the sparse path (`nnz * 2 <= k`), the
/// first that takes the dense one, 90 %, all of them.
fn active_columns(k: usize, density: usize) -> usize {
    let active = match density {
        0 => 0,
        1 => k.div_ceil(100),
        2 => k.div_ceil(10),
        3 => k / 2,
        4 => k / 2 + 1,
        5 => (k * 9).div_ceil(10),
        _ => k,
    };
    active.min(k)
}

/// An `m x k` batch with exactly `active` columns non-zero somewhere: each
/// has one owner row and appears in every other row with probability 1/2,
/// so the rows' patterns differ; with `m > 1` one row is left entirely
/// zero (a producer-less operation); every zero is `+0.0` or `-0.0` at
/// random.
fn sparse_batch(m: usize, k: usize, active: usize, rng: &mut ChaCha8Rng) -> Tensor2 {
    let mut x = Tensor2::zeros(m, k);
    for v in x.data_mut() {
        *v = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
    }
    let zero_row = (m > 1).then(|| rng.gen_range(0..m));
    let live_rows: Vec<usize> = (0..m).filter(|r| Some(*r) != zero_row).collect();
    let mut columns: Vec<usize> = (0..k).collect();
    columns.shuffle(rng);
    for &c in &columns[..active] {
        let owner = *live_rows.choose(rng).expect("at least one live row");
        for &r in &live_rows {
            if r == owner || rng.gen_bool(0.5) {
                let v: f64 = rng.gen_range(-2.0..2.0);
                x.row_mut(r)[c] = if v == 0.0 { 1.0 } else { v };
            }
        }
    }
    x
}

fn random_values(len: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The twelve parameters of an [`Lstm`] (`W`, `U`, `b` for the gates
/// `i f g o`) driving the textbook single-sample cell through the dense
/// `Param` loops only.
struct ReferenceLstm {
    w: Vec<Param>,
    u: Vec<Param>,
    b: Vec<Param>,
}

/// What one reference step keeps for its backward pass.
struct ReferenceStep {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    gates: [Vec<f64>; 4],
    tanh_c: Vec<f64>,
}

/// A row-major `Param` holding `p`'s logical values.
fn row_major_twin(p: &Param) -> Param {
    let mut twin = Param::zeros(p.rows, p.cols);
    twin.set_value(p.logical_values().collect());
    twin
}

fn logical_bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values.map(f64::to_bits).collect()
}

impl ReferenceLstm {
    /// Row-major copies of `lstm`'s parameters.
    fn of(lstm: &Lstm) -> Self {
        let mut params: Vec<Param> = lstm
            .clone()
            .parameters_mut()
            .into_iter()
            .map(|p| row_major_twin(p))
            .collect();
        let b = params.split_off(8);
        let u = params.split_off(4);
        Self { w: params, u, b }
    }

    fn forward(&self, sequence: &[&[f64]]) -> (Vec<f64>, Vec<ReferenceStep>) {
        let hidden = self.b[0].rows;
        let mut h = vec![0.0; hidden];
        let mut c = vec![0.0; hidden];
        let mut steps = Vec::new();
        for x in sequence {
            let mut gates: [Vec<f64>; 4] = std::array::from_fn(|gate| {
                let mut z = self.w[gate].matvec(x);
                let uh = self.u[gate].matvec(&h);
                for ((zi, uhi), bi) in z.iter_mut().zip(&uh).zip(self.b[gate].value()) {
                    *zi += uhi + bi;
                }
                z
            });
            sigmoid_in_place(&mut gates[0]);
            sigmoid_in_place(&mut gates[1]);
            tanh_in_place(&mut gates[2]);
            sigmoid_in_place(&mut gates[3]);
            let (h_prev, c_prev) = (h.clone(), c.clone());
            let mut tanh_c = vec![0.0; hidden];
            for e in 0..hidden {
                c[e] = gates[1][e] * c_prev[e] + gates[0][e] * gates[2][e];
                tanh_c[e] = c[e].tanh();
                h[e] = gates[3][e] * tanh_c[e];
            }
            steps.push(ReferenceStep {
                x: x.to_vec(),
                h_prev,
                c_prev,
                gates,
                tanh_c,
            });
        }
        (h, steps)
    }

    /// Backpropagation through time for one sample: accumulates into the
    /// parameters' gradients (reverse time, then gates) and returns the
    /// per-step input gradients.
    fn backward(&mut self, steps: &[ReferenceStep], grad_h_final: &[f64]) -> Vec<Vec<f64>> {
        let hidden = grad_h_final.len();
        let mut grad_x = vec![Vec::new(); steps.len()];
        let mut dpres: Vec<[Vec<f64>; 4]> = Vec::new();
        let mut dh = grad_h_final.to_vec();
        let mut dc = vec![0.0; hidden];
        for (t, step) in steps.iter().enumerate().rev() {
            let [i, f, g, o] = &step.gates;
            let mut dpre: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; hidden]);
            for e in 0..hidden {
                let tc = step.tanh_c[e];
                let d_o = dh[e] * tc;
                dc[e] += dh[e] * o[e] * (1.0 - tc * tc);
                let di = dc[e] * g[e];
                let dg = dc[e] * i[e];
                let df = dc[e] * step.c_prev[e];
                dpre[0][e] = di * i[e] * (1.0 - i[e]);
                dpre[1][e] = df * f[e] * (1.0 - f[e]);
                dpre[2][e] = dg * (1.0 - g[e] * g[e]);
                dpre[3][e] = d_o * o[e] * (1.0 - o[e]);
                dc[e] *= f[e];
            }
            let mut gx = vec![0.0; step.x.len()];
            let mut dh_prev = vec![0.0; hidden];
            for (gate, d) in dpre.iter().enumerate() {
                for (acc, v) in gx.iter_mut().zip(self.w[gate].matvec_transposed(d)) {
                    *acc += v;
                }
                for (acc, v) in dh_prev.iter_mut().zip(self.u[gate].matvec_transposed(d)) {
                    *acc += v;
                }
            }
            grad_x[t] = gx;
            dpres.push(dpre);
            dh = dh_prev;
        }
        dpres.reverse();
        for (step, dpre) in steps.iter().zip(&dpres).rev() {
            for (gate, d) in dpre.iter().enumerate() {
                self.w[gate].add_outer_to_grad(d, &step.x);
                self.u[gate].add_outer_to_grad(d, &step.h_prev);
                for (gb, g) in self.b[gate].grad_mut().iter_mut().zip(d) {
                    *gb += g;
                }
            }
        }
        grad_x
    }

    fn grads(&self) -> Vec<Vec<u64>> {
        self.w
            .iter()
            .chain(&self.u)
            .chain(&self.b)
            .map(|p| logical_bits(p.logical_grad()))
            .collect()
    }
}

fn lstm_grads(lstm: &mut Lstm) -> Vec<Vec<u64>> {
    lstm.parameters_mut()
        .iter()
        .map(|p| logical_bits(p.logical_grad()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forward: `matmul_nt` and `Param::matmul_batch` equal one sequential
    /// `+0.0`-seeded sum over every column, and `Param::matvec`.
    #[test]
    fn forward_kernel_equals_the_plain_sequential_sum(
        batch in 0usize..5,
        n in 1usize..21,
        k in 1usize..90,
        density in 0usize..6,
        seed in 0u64..1 << 32,
    ) {
        let m = BATCHES[batch];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = sparse_batch(m, k, active_columns(k, density), &mut rng);
        let mut w = Param::zeros(n, k);
        w.set_value(random_values(n * k, &mut rng));

        let mut expected = vec![0.0; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += x.row(r)[p] * w.value()[j * k + p];
                }
                expected[r * n + j] = acc;
            }
        }

        let mut raw = vec![f64::NAN; m * n];
        matmul_nt(x.data(), w.value(), m, n, k, &mut raw);
        prop_assert_eq!(bits(&raw), bits(&expected), "matmul_nt m={} n={} k={}", m, n, k);
        let batched = w.matmul_batch(&x);
        prop_assert_eq!(bits(batched.data()), bits(&expected));
        for r in 0..m {
            prop_assert_eq!(bits(&w.matvec(x.row(r))), bits(&expected[r * n..(r + 1) * n]));
        }
    }

    /// The LSTM over observation-shaped steps: every forward form equals
    /// the dense reference cell; the parameters-only backward, the
    /// input-gradient-returning backward and a per-sample replay all leave
    /// the gradients the reference accumulates, `W` included.
    #[test]
    fn lstm_forward_and_weight_gradients_equal_the_dense_reference(
        batch in 0usize..5,
        hidden in 1usize..11,
        input in 1usize..70,
        producer_density in 0usize..6,
        consumer_density in 0usize..6,
        seed in 0u64..1 << 32,
    ) {
        let m = BATCHES[batch];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let steps = [
            sparse_batch(m, input, active_columns(input, producer_density), &mut rng),
            sparse_batch(m, input, active_columns(input, consumer_density), &mut rng),
        ];
        let grad_h = Tensor2::from_flat(m, hidden, random_values(m * hidden, &mut rng));
        let mut lstm = Lstm::new(input, hidden, &mut rng);
        let layouts: Vec<bool> = lstm.parameters_mut().iter().map(|p| p.is_input_major()).collect();
        prop_assert_eq!(layouts, [[true; 4], [false; 4], [false; 4]].concat(), "only W is input-major");
        let mut reference = ReferenceLstm::of(&lstm);

        // Forward, sample by sample, and the reference's backward in the
        // order a replay against stacked caches visits a minibatch: last
        // sample first.
        let forwards: Vec<_> = (0..m)
            .map(|r| reference.forward(&[steps[0].row(r), steps[1].row(r)]))
            .collect();
        let mut reference_grad_x = vec![Vec::new(); m];
        for r in (0..m).rev() {
            reference_grad_x[r] = reference.backward(&forwards[r].1, grad_h.row(r));
        }

        let trained = lstm.forward_batch(&steps);
        let inferred = lstm.infer_batch(&[&steps[0], &steps[1]]).clone();
        for (r, (h, _)) in forwards.iter().enumerate() {
            prop_assert_eq!(bits(trained.row(r)), bits(h), "forward_batch row {}", r);
            prop_assert_eq!(bits(inferred.row(r)), bits(h), "infer_batch row {}", r);
            let sequence = [steps[0].row(r), steps[1].row(r)];
            prop_assert_eq!(bits(lstm.infer(&sequence)), bits(h), "infer row {}", r);
            let owned = sequence.map(<[f64]>::to_vec);
            prop_assert_eq!(bits(&lstm.forward_inference(&owned)), bits(h));
        }

        // The parameters-only backward (what the networks call).
        lstm.backward_params_batch(&grad_h);
        prop_assert_eq!(lstm_grads(&mut lstm), reference.grads());

        // The input-gradient-returning form: same gradients, plus grad_x.
        lstm.zero_grad();
        lstm.forward_batch(&steps);
        let grad_x = lstm.backward_batch(&grad_h);
        prop_assert_eq!(lstm_grads(&mut lstm), reference.grads());
        for (r, per_step) in reference_grad_x.iter().enumerate() {
            for (t, gx) in per_step.iter().enumerate() {
                prop_assert_eq!(bits(grad_x[t].row(r)), bits(gx), "grad_x t={} row {}", t, r);
            }
        }

        // Per-sample replay: one-row forwards stacked in order, one-row
        // backwards popped in reverse.
        lstm.zero_grad();
        for r in 0..m {
            lstm.forward_batch(&[Tensor2::from_row(steps[0].row(r)), Tensor2::from_row(steps[1].row(r))]);
        }
        for r in (0..m).rev() {
            lstm.backward_params_batch(&Tensor2::from_row(grad_h.row(r)));
        }
        prop_assert_eq!(lstm_grads(&mut lstm), reference.grads());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An input-major `Param` and a row-major one holding the same logical
    /// values agree bit for bit on every entry point: the Xavier draws,
    /// the forward products, the input gradients, gradient accumulation
    /// (the LSTM property above covers accumulation over listed columns),
    /// the gradient norm and the reference loops.
    #[test]
    fn an_input_major_param_computes_what_its_row_major_twin_does(
        batch in 0usize..5,
        n in 1usize..21,
        k in 1usize..90,
        x_density in 0usize..7,
        y_density in 0usize..7,
        seed in 0u64..1 << 32,
    ) {
        let m = BATCHES[batch];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draws = rng.gen::<u64>();
        let mut input_major = Param::xavier_input_major(n, k, &mut ChaCha8Rng::seed_from_u64(draws));
        let mut row_major = Param::xavier(n, k, &mut ChaCha8Rng::seed_from_u64(draws));
        prop_assert!(input_major.is_input_major() && !row_major.is_input_major());
        prop_assert_eq!(
            logical_bits(input_major.logical_values()),
            bits(row_major.value()),
            "the same draws in the same order"
        );
        prop_assert_eq!(input_major.at(n - 1, 0).to_bits(), row_major.at(n - 1, 0).to_bits());
        // A loaded image lands in logical order too.
        let image = random_values(n * k, &mut rng);
        input_major.set_value(image.clone());
        row_major.set_value(image.clone());
        prop_assert_eq!(logical_bits(input_major.logical_values()), bits(&image));

        // Forward: batched and per row, `-0.0` among the zeros.
        let x = sparse_batch(m, k, active_columns(k, x_density), &mut rng);
        let forward = input_major.matmul_batch(&x);
        prop_assert_eq!(bits(forward.data()), bits(row_major.matmul_batch(&x).data()), "forward m={} n={} k={}", m, n, k);
        for r in 0..m {
            prop_assert_eq!(bits(&input_major.matvec(x.row(r))), bits(forward.row(r)));
        }

        // Input gradients.
        let y = sparse_batch(m, n, active_columns(n, y_density), &mut rng);
        let grad_x = input_major.matmul_batch_transposed(&y);
        prop_assert_eq!(bits(grad_x.data()), bits(row_major.matmul_batch_transposed(&y).data()));
        for r in 0..m {
            prop_assert_eq!(bits(&input_major.matvec_transposed(y.row(r))), bits(grad_x.row(r)));
            prop_assert_eq!(bits(&row_major.matvec_transposed(y.row(r))), bits(grad_x.row(r)));
        }

        // Gradient accumulation over all columns, batched then per row, and
        // the norm folded from it.
        for p in [&mut input_major, &mut row_major] {
            p.zero_grad();
            p.add_outer_batch_to_grad(&y, &x);
            p.add_outer_to_grad(y.row(0), x.row(0));
            p.add_grad(n - 1, k / 2, -0.75);
        }
        prop_assert_eq!(logical_bits(input_major.logical_grad()), bits(row_major.grad()));
        prop_assert_eq!(
            input_major.grad_norm_squared().to_bits(),
            row_major.grad_norm_squared().to_bits()
        );
        input_major.scale_grad(0.3);
        row_major.scale_grad(0.3);
        prop_assert_eq!(logical_bits(input_major.logical_grad()), bits(row_major.grad()));
    }
}

/// A strictly ascending `(columns, values)` list of `nnz` random non-zeros
/// among `width` columns, with the dense vector it stands for.
fn random_list(width: usize, nnz: usize, rng: &mut ChaCha8Rng) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
    let mut columns: Vec<usize> = (0..width).collect();
    columns.shuffle(rng);
    columns.truncate(nnz);
    columns.sort_unstable();
    let mut dense = vec![0.0; width];
    let mut values = Vec::with_capacity(nnz);
    for &c in &columns {
        let v: f64 = rng.gen_range(-2.0..2.0);
        dense[c] = if v == 0.0 { 1.0 } else { v };
        values.push(dense[c]);
    }
    (columns.iter().map(|c| *c as u32).collect(), values, dense)
}

/// `Lstm::infer_nonzeros` on a two-step sequence of lists against the dense
/// plain-loop oracle on the vectors they stand for.
fn assert_list_entry_matches_oracle(lstm: &mut Lstm, width: usize, nnz: [usize; 2], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let steps = nnz.map(|n| random_list(width, n, &mut rng));
    let oracle = lstm.forward_inference(&[steps[0].2.clone(), steps[1].2.clone()]);
    let lists = [
        (steps[0].0.as_slice(), steps[0].1.as_slice()),
        (steps[1].0.as_slice(), steps[1].1.as_slice()),
    ];
    assert_eq!(
        bits(lstm.infer_nonzeros(&lists)),
        bits(&oracle),
        "nnz {nnz:?}"
    );
    // The dense entry on the same vectors agrees too, before and after.
    let dense = [steps[0].2.as_slice(), steps[1].2.as_slice()];
    assert_eq!(bits(lstm.infer(&dense)), bits(&oracle));
}

#[test]
fn list_entry_equals_the_dense_oracle_bit_for_bit() {
    // (a) Paper width, an observation's sparsity (mean 21 non-zeros, at
    // most 57 measured).
    const WIDTH: usize = 3252;
    let mut wide = Lstm::new(WIDTH, 6, &mut ChaCha8Rng::seed_from_u64(1));
    for (seed, nnz) in [[21, 18], [57, 3], [1, 40]].into_iter().enumerate() {
        assert_list_entry_matches_oracle(&mut wide, WIDTH, nnz, seed as u64);
    }
    // (b) An empty list next to a non-empty one: the producer-less step.
    assert_list_entry_matches_oracle(&mut wide, WIDTH, [0, 24], 10);
    assert_list_entry_matches_oracle(&mut wide, WIDTH, [0, 0], 11);

    // (c) Lists past half the width take the dense loop: the last count on
    // the sparse side of the rule, the first on the dense side, all of them.
    let mut narrow = Lstm::new(40, 5, &mut ChaCha8Rng::seed_from_u64(2));
    for (seed, nnz) in [[20, 21], [21, 20], [40, 33]].into_iter().enumerate() {
        assert_list_entry_matches_oracle(&mut narrow, 40, nnz, 20 + seed as u64);
    }

    // (d) The staging rows are all-zero again after every call. Only the
    // dense loop reads entries that are not listed, so that is where a
    // leftover would show: after lists covering every column, a shorter
    // pair that still takes the dense loop answers like a fresh clone.
    assert_list_entry_matches_oracle(&mut narrow, 40, [40, 40], 30);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let steps = [21, 22].map(|nnz| random_list(40, nnz, &mut rng));
    let lists = [
        (steps[0].0.as_slice(), steps[0].1.as_slice()),
        (steps[1].0.as_slice(), steps[1].1.as_slice()),
    ];
    let used = bits(narrow.infer_nonzeros(&lists));
    assert_eq!(used, bits(narrow.clone().infer_nonzeros(&lists)));
}

/// One input vector as the list `infer_nonzeros` takes and the dense vector
/// the oracle takes.
struct Step {
    cols: Vec<u32>,
    values: Vec<f64>,
    dense: Vec<f64>,
}

impl Step {
    fn random(width: usize, nnz: usize, rng: &mut ChaCha8Rng) -> Self {
        let (cols, values, dense) = random_list(width, nnz, rng);
        Self {
            cols,
            values,
            dense,
        }
    }
}

/// `infer_nonzeros` on `sequence`, checked bit for bit against the dense
/// oracle and against a fresh clone (which carries no memo).
fn infer_checked(lstm: &mut Lstm, sequence: &[&Step]) -> Vec<u64> {
    let oracle =
        lstm.forward_inference(&sequence.iter().map(|s| s.dense.clone()).collect::<Vec<_>>());
    let lists: Vec<(&[u32], &[f64])> = sequence
        .iter()
        .map(|s| (s.cols.as_slice(), s.values.as_slice()))
        .collect();
    let fresh = bits(lstm.clone().infer_nonzeros(&lists));
    let got = bits(lstm.infer_nonzeros(&lists));
    assert_eq!(got, bits(&oracle), "against the dense oracle");
    assert_eq!(got, fresh, "against a fresh clone");
    got
}

#[test]
fn the_first_step_memo_is_invisible_in_the_bits() {
    const WIDTH: usize = 3252;
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    let mut lstm = Lstm::new(WIDTH, 6, &mut rng);
    let [producer, other, consumer, next] =
        [21, 9, 18, 30].map(|nnz| Step::random(WIDTH, nnz, &mut rng));
    let empty = Step::random(WIDTH, 0, &mut rng);

    // (a) The same producer twice, under different consumers and at a
    // third step: the second call starts from the memo.
    let first = infer_checked(&mut lstm, &[&producer, &consumer]);
    assert_ne!(infer_checked(&mut lstm, &[&producer, &next]), first);
    assert_eq!(infer_checked(&mut lstm, &[&producer, &consumer]), first);
    infer_checked(&mut lstm, &[&producer, &consumer, &next]);

    // (b) Alternating two producers and the empty list (a producer-less
    // operation, where step 0 is a function of the weights alone), then
    // the producer's columns with other values: the key is the values'
    // bits, not the column list alone.
    for step in [
        &other, &empty, &producer, &empty, &empty, &other, &other, &producer,
    ] {
        infer_checked(&mut lstm, &[step, &consumer]);
    }
    let twin = Step {
        cols: producer.cols.clone(),
        values: producer.values.iter().map(|v| v * 0.5).collect(),
        dense: producer.dense.iter().map(|v| v * 0.5).collect(),
    };
    assert_ne!(
        infer_checked(&mut lstm, &[&twin, &consumer]),
        infer_checked(&mut lstm, &[&producer, &consumer])
    );

    // (c) A write through `parameters_mut` to one step-0 `W` entry — the
    // input gate's weight on a listed producer column — between two calls
    // that share the producer: the second answers like the perturbed
    // network's oracle, which a stale memo would not.
    let before = infer_checked(&mut lstm, &[&producer, &consumer]);
    let column = producer.cols[3] as usize;
    let w_input = &mut lstm.parameters_mut()[0];
    let at = w_input.storage_index(2, column);
    w_input.value_mut()[at] += 0.5;
    let after = infer_checked(&mut lstm, &[&producer, &consumer]);
    assert_ne!(after, before, "the write reaches step 0");

    // (d) A weight-image load (what `WeightSnapshot::restore_weights`
    // does: `set_value` on every tensor `parameters_mut` hands out, with
    // the values in logical order) after a call that filled the memo with
    // the same producer.
    let mut donor = Lstm::new(WIDTH, 6, &mut rng);
    infer_checked(&mut lstm, &[&producer, &consumer]);
    let image: Vec<Vec<f64>> = donor
        .parameters_mut()
        .iter()
        .map(|p| p.logical_values().collect())
        .collect();
    for (param, values) in lstm.parameters_mut().into_iter().zip(image) {
        param.set_value(values);
    }
    let loaded = infer_checked(&mut lstm, &[&producer, &consumer]);
    assert_eq!(loaded, infer_checked(&mut donor, &[&producer, &consumer]));

    // (e) A length-1 sequence neither reads nor disturbs the memo.
    let two_steps = infer_checked(&mut lstm, &[&producer, &consumer]);
    infer_checked(&mut lstm, &[&producer]);
    infer_checked(&mut lstm, &[&consumer]);
    assert_eq!(infer_checked(&mut lstm, &[&producer, &consumer]), two_steps);
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn list_entry_rejects_unordered_columns() {
    let mut lstm = Lstm::new(8, 2, &mut ChaCha8Rng::seed_from_u64(3));
    lstm.infer_nonzeros(&[(&[3, 1], &[1.0, 1.0])]);
}

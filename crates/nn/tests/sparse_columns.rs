//! The kernels contract over the non-zero columns of their left operand
//! only (see `mlir_rl_nn::tensor`). These properties hold them, bit for
//! bit, to plain sequential references that multiply every zero: a
//! hand-written dot product for the forward kernel, and a single-sample
//! LSTM written over the plain loops of `Param` (`matvec`,
//! `matvec_transposed`, `add_outer_to_grad`) for the layer's forward, its
//! weight-gradient accumulation and its batched backward. Every `Param` is
//! stored input-major, so a separate property holds each kernel-backed
//! entry point of one to those plain loops, and its Xavier draws to the
//! plain sequence of draws in logical order.

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

fn logical_bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values.map(f64::to_bits).collect()
}

impl ReferenceLstm {
    /// Copies of `lstm`'s parameters.
    fn of(lstm: &Lstm) -> Self {
        let mut params: Vec<Param> = lstm
            .clone()
            .parameters_mut()
            .into_iter()
            .map(|p| p.clone())
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
        let row_major = random_values(n * k, &mut rng);
        let mut w = Param::zeros(n, k);
        w.set_value(row_major.clone());

        let mut expected = vec![0.0; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += x.row(r)[p] * row_major[j * k + p];
                }
                expected[r * n + j] = acc;
            }
        }

        let mut raw = vec![f64::NAN; m * n];
        matmul_nt(x.data(), &row_major, m, n, k, &mut raw);
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
        for p in lstm.parameters_mut() {
            let corners = [(p.rows - 1, 0), (0, p.cols - 1)];
            let at = corners.map(|(r, c)| p.storage_index(r, c));
            prop_assert_eq!(at, corners.map(|(r, c)| c * p.rows + r), "every weight matrix is input-major");
        }
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

    /// A `Param` (stored input-major) agrees bit for bit with the plain
    /// reference loops on every entry point: the Xavier draws against the
    /// plain sequence of draws in logical order, the forward products and
    /// input gradients against `matvec` / `matvec_transposed`, gradient
    /// accumulation against one `+=` per element in the reverse batch order
    /// of `add_outer_to_grad` (the LSTM property above covers accumulation
    /// over listed columns), and the norm and scale against the same folds
    /// over a logical-order copy.
    #[test]
    fn a_param_computes_what_the_reference_loops_do(
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
        let mut p = Param::xavier(n, k, &mut ChaCha8Rng::seed_from_u64(draws));
        let limit = (6.0 / (n + k) as f64).sqrt();
        let mut plain = ChaCha8Rng::seed_from_u64(draws);
        let drawn: Vec<f64> = (0..n * k).map(|_| plain.gen_range(-limit..limit)).collect();
        prop_assert_eq!(logical_bits(p.logical_values()), bits(&drawn), "the draws in logical order");
        prop_assert_eq!(p.at(n - 1, 0).to_bits(), drawn[(n - 1) * k].to_bits());
        // A loaded image lands in logical order too.
        let image = random_values(n * k, &mut rng);
        p.set_value(image.clone());
        prop_assert_eq!(logical_bits(p.logical_values()), bits(&image));

        // Forward: batched and per row, `-0.0` among the zeros.
        let x = sparse_batch(m, k, active_columns(k, x_density), &mut rng);
        let forward = p.matmul_batch(&x);
        for r in 0..m {
            prop_assert_eq!(bits(&p.matvec(x.row(r))), bits(forward.row(r)), "forward m={} n={} k={}", m, n, k);
        }

        // Input gradients.
        let y = sparse_batch(m, n, active_columns(n, y_density), &mut rng);
        let grad_x = p.matmul_batch_transposed(&y);
        for r in 0..m {
            prop_assert_eq!(bits(&p.matvec_transposed(y.row(r))), bits(grad_x.row(r)));
        }

        // Gradient accumulation over all columns, batched then per row, and
        // the norm folded from it, against a logical-order buffer.
        p.zero_grad();
        p.add_outer_batch_to_grad(&y, &x);
        p.add_outer_to_grad(y.row(0), x.row(0));
        p.add_grad(n - 1, k / 2, -0.75);
        let mut reference = vec![0.0; n * k];
        for b in (0..m).rev().chain([0]) {
            for (r, yr) in y.row(b).iter().enumerate() {
                for (c, xc) in x.row(b).iter().enumerate() {
                    reference[r * k + c] += yr * xc;
                }
            }
        }
        reference[(n - 1) * k + k / 2] += -0.75;
        prop_assert_eq!(logical_bits(p.logical_grad()), bits(&reference));
        let norm = reference.iter().fold(0.0, |acc, g| acc + g * g);
        prop_assert_eq!(p.grad_norm_squared().to_bits(), norm.to_bits());
        p.scale_grad(0.3);
        let scaled: Vec<f64> = reference.iter().map(|g| g * 0.3).collect();
        prop_assert_eq!(logical_bits(p.logical_grad()), bits(&scaled));
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

/// Adds `delta` to entry `(row, col)` of parameter `index` in
/// `parameters_mut` order (`W` 0–3, `U` 4–7, `b` 8–11; gates `i f g o`).
fn nudge(lstm: &mut Lstm, index: usize, (row, col): (usize, usize), delta: f64) {
    let param = &mut lstm.parameters_mut()[index];
    let at = param.storage_index(row, col);
    param.value_mut()[at] += delta;
}

#[test]
fn the_second_step_hidden_term_is_invisible_in_the_bits() {
    const WIDTH: usize = 3252;
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let mut lstm = Lstm::new(WIDTH, 6, &mut rng);
    let [producer, consumer, next] = [21, 18, 30].map(|nnz| Step::random(WIDTH, nnz, &mut rng));
    let empty = Step::random(WIDTH, 0, &mut rng);

    // (a) A write to one `U` entry between two calls that share the
    // producer. Step 0 starts from `h = 0` and lists no column of `U`, so
    // the first step that reads the write is step 1: its hidden term
    // `U·h₁ + b` is all that a stale memo could get wrong.
    let before = infer_checked(&mut lstm, &[&producer, &consumer]);
    nudge(&mut lstm, 5, (1, 4), 0.5);
    let after = infer_checked(&mut lstm, &[&producer, &consumer]);
    assert_ne!(after, before, "the `U` write reaches step 1");
    assert_eq!(infer_checked(&mut lstm, &[&producer, &consumer]), after);

    // (b) The same with a write to one `b` entry (the cell gate's).
    nudge(&mut lstm, 10, (3, 0), 0.25);
    let biased = infer_checked(&mut lstm, &[&producer, &consumer]);
    assert_ne!(biased, after, "the `b` write reaches the output");
    assert_eq!(infer_checked(&mut lstm, &[&producer, &consumer]), biased);

    // (c) Three steps on a hit: step 1 starts from the memo, step 2 runs
    // on from the state step 1 left; then the consumers swap places.
    infer_checked(&mut lstm, &[&producer, &next]);
    infer_checked(&mut lstm, &[&producer, &consumer, &next]);
    infer_checked(&mut lstm, &[&producer, &next, &consumer]);
    infer_checked(&mut lstm, &[&producer, &consumer, &next]);

    // (d) Non-zero gate biases. At initialization the cell gate's bias is
    // zero, so the empty producer leaves `h₁ = +0.0` and step 1's hidden
    // product lists no column; with every bias non-zero `h₁` is dense and
    // so is the hidden term a hit reuses.
    let mut fresh = Lstm::new(WIDTH, 6, &mut rng);
    let zero = infer_checked(&mut fresh, &[&empty]);
    assert!(zero.iter().all(|b| *b == 0), "h₁ = +0.0 at initialization");
    let image: Vec<Vec<f64>> = fresh
        .parameters_mut()
        .iter()
        .map(|p| p.logical_values().collect())
        .collect();
    for (index, (param, mut values)) in fresh.parameters_mut().into_iter().zip(image).enumerate() {
        if index >= 8 {
            values = random_values(values.len(), &mut rng);
        }
        param.set_value(values);
    }
    let h1 = infer_checked(&mut fresh, &[&empty]);
    assert!(h1.iter().all(|b| *b != 0 && *b != 1 << 63), "h₁ is dense");
    for consumer in [&consumer, &next, &consumer, &empty, &consumer] {
        infer_checked(&mut fresh, &[&empty, consumer]);
    }
    infer_checked(&mut fresh, &[&empty, &next, &consumer]);
    let before = infer_checked(&mut fresh, &[&empty, &consumer]);
    nudge(&mut fresh, 7, (0, 5), -0.5);
    assert_ne!(infer_checked(&mut fresh, &[&empty, &consumer]), before);
    infer_checked(&mut fresh, &[&empty, &consumer]);
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn list_entry_rejects_unordered_columns() {
    let mut lstm = Lstm::new(8, 2, &mut ChaCha8Rng::seed_from_u64(3));
    lstm.infer_nonzeros(&[(&[3, 1], &[1.0, 1.0])]);
}

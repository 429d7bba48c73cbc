//! A single-layer LSTM used for the producer-consumer embedding.
//!
//! The paper feeds the representation vectors of the producer and the
//! consumer sequentially into an LSTM with 512 units and uses the final
//! hidden state as the embedding (Sec. V-A-1). This module implements the
//! standard LSTM cell with full backpropagation through time over the short
//! sequences involved.
//!
//! All state is batched: a time step is a row-major [`Tensor2`] with one
//! sequence per row, so a batch of observations runs one blocked matmul per
//! gate per step instead of one matvec per observation, and training a
//! single sequence is a batch of one. The per-vector inference entry points
//! ([`Lstm::infer`], [`Lstm::infer_nonzeros`]) are bit-identical to the
//! single-sample [`Lstm::forward_inference`] reference;
//! [`Lstm::backward_params_batch`] accumulates parameter gradients
//! sample-major in reverse row order, exactly like one-row calls replayed
//! in reverse against stacked caches.
//!
//! The inputs are sparse — an observation vector is under 2 % dense and the
//! first step's hidden state is all zeros — so each forward step lists the
//! non-zero columns of `x` and of `h` once for its four gate products, the
//! backward pass lists each sample's own once for the four gates' `W`/`U`
//! gradient accumulation, and both contract over the lists alone,
//! bit-identically (proof in [`crate::tensor`]). Every weight is stored
//! input-major (see [`crate::param`]), so a listed input column of `W` or
//! `U` is one contiguous run of `hidden` weights, read whole by the forward
//! product and written whole by the gradient accumulation. An input that
//! arrives as its non-zero list ([`Lstm::infer_nonzeros`]) skips the
//! listing, and a first step that repeats the previous call's skips the
//! step and the hidden product of the next: a one-entry memo keeps the
//! cell state `c₁` it left and each gate's hidden term `U_g·h₁ + b_g` until
//! the weights are next handed out for writing ([`Lstm::parameters_mut`]).

use rand::Rng;

use crate::activation::{sigmoid_in_place, tanh_in_place};
use crate::param::Param;
use crate::scratch::Scratch;
use crate::tensor::{ActiveCols, Tensor2};

/// Cached values of one (batched) LSTM time step, needed for
/// backpropagation. Every field is `batch x size` row-major.
#[derive(Debug, Clone, PartialEq)]
struct StepCache {
    x: Tensor2,
    h_prev: Tensor2,
    c_prev: Tensor2,
    i: Tensor2,
    f: Tensor2,
    g: Tensor2,
    o: Tensor2,
    tanh_c: Tensor2,
}

/// Preallocated working memory for [`Lstm::infer`] / [`Lstm::infer_batch`].
#[derive(Debug, Clone, Default, PartialEq)]
struct LstmScratch {
    h: Tensor2,
    c: Tensor2,
    gates: [Tensor2; 4],
    uh: Tensor2,
    x_cols: ActiveCols,
    h_cols: ActiveCols,
}

/// The one-entry prefix memo of [`Lstm::infer_nonzeros`]: the first step
/// of the last multi-step sequence (its column list and value bits), the
/// cell state `c₁` after it and the hidden terms `U_g·h₁ + b_g` of the step
/// after it. That is all step 1 reads of step 0: its hidden state `h₁`
/// enters only through the hidden terms.
#[derive(Debug, Clone, Default, PartialEq)]
struct PrefixMemo {
    /// Whether the fields below describe a computed step.
    filled: bool,
    cols: Vec<u32>,
    values: Vec<f64>,
    c: Vec<f64>,
    hidden: [Tensor2; 4],
}

impl PrefixMemo {
    /// Whether the memo holds the step `(cols, values)`, bit for bit.
    fn holds(&self, cols: &[u32], values: &[f64]) -> bool {
        let bits = |v: &f64| v.to_bits();
        self.filled && self.cols == cols && self.values.iter().map(bits).eq(values.iter().map(bits))
    }

    /// Records the step `(cols, values)` and the cell state it left; the
    /// caller has written the hidden terms.
    fn fill(&mut self, cols: &[u32], values: &[f64], c: &Tensor2) {
        self.cols.clear();
        self.cols.extend_from_slice(cols);
        self.values.clear();
        self.values.extend_from_slice(values);
        self.c.clear();
        self.c.extend_from_slice(c.data());
        self.filled = true;
    }
}

/// A single-layer LSTM.
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    input_size: usize,
    hidden_size: usize,
    // Gate order: input (i), forget (f), cell (g), output (o).
    w: [Param; 4],
    u: [Param; 4],
    b: [Param; 4],
    cached_sequences: Vec<Vec<StepCache>>,
    infer_scratch: Scratch<LstmScratch>,
    /// Batch-of-1 staging tensors for the per-vector [`Lstm::infer`]
    /// wrapper (one per time step).
    infer_inputs: Scratch<Vec<Tensor2>>,
    /// `1 x input` staging rows for [`Lstm::infer_nonzeros`] (one per time
    /// step), all `+0.0` between calls: a call scatters its listed values
    /// in and clears exactly those entries on the way out.
    zeroed_inputs: Scratch<Vec<Tensor2>>,
    /// Step 0 of the last multi-step [`Lstm::infer_nonzeros`] call, the
    /// cell state it left and step 1's hidden terms. Valid for the current
    /// weights only: every write to `w` / `u` / `b` passes through
    /// [`Lstm::parameters_mut`], which clears it.
    prefix_memo: Scratch<PrefixMemo>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights and a forget-gate
    /// bias of 1 (the usual initialization that helps gradient flow).
    pub fn new<R: Rng>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        let w = std::array::from_fn(|_| Param::xavier(hidden_size, input_size, rng));
        let u = std::array::from_fn(|_| Param::xavier(hidden_size, hidden_size, rng));
        let mut b: [Param; 4] = std::array::from_fn(|_| Param::zeros(hidden_size, 1));
        b[1].value_mut().fill(1.0);
        Self {
            input_size,
            hidden_size,
            w,
            u,
            b,
            cached_sequences: Vec::new(),
            infer_scratch: Scratch::default(),
            infer_inputs: Scratch::default(),
            zeroed_inputs: Scratch::default(),
            prefix_memo: Scratch::default(),
        }
    }

    /// Input feature count.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-state size.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// The hidden term of one gate, `U_g h + b_g`, into `out`
    /// (`rows x hidden`); `h_cols` is the column list of `h`. Each entry is
    /// the rounded sum `uh + b` that the single-sample cell adds to `W_g x`
    /// as one term, so a kept copy stands in for it bit for bit.
    fn hidden_term_into(&self, gate: usize, h: &Tensor2, h_cols: &ActiveCols, out: &mut Tensor2) {
        self.u[gate].matmul_batch_cols_into(h, h_cols, out);
        for r in 0..out.rows() {
            for (v, bi) in out.row_mut(r).iter_mut().zip(self.b[gate].value()) {
                *v += bi;
            }
        }
    }

    /// Pre-activation of one gate, `z = W_g x + hidden`, where `hidden` is
    /// the gate's term from [`Lstm::hidden_term_into`]: the same
    /// per-element addition order as the historical single-sample cell.
    /// `x_cols` is the column list of `x`.
    fn gate_pre_into(
        &self,
        gate: usize,
        x: &Tensor2,
        x_cols: &ActiveCols,
        hidden: &Tensor2,
        z: &mut Tensor2,
    ) {
        self.w[gate].matmul_batch_cols_into(x, x_cols, z);
        for (zi, hi) in z.data_mut().iter_mut().zip(hidden.data()) {
            *zi += hi;
        }
    }

    /// One batched cell step: `x`, `h_prev`, `c_prev` are `batch x size`.
    /// Row `b` of every output is bit-identical to the single-sample cell
    /// on row `b` of the inputs. The previous state is taken by value: it
    /// moves into the step's cache, which is its only later reader.
    fn step_batch(
        &self,
        x: &Tensor2,
        h_prev: Tensor2,
        c_prev: Tensor2,
    ) -> (Tensor2, Tensor2, StepCache) {
        let rows = x.rows();
        let mut x_cols = ActiveCols::default();
        x_cols.scan(x.data(), rows, x.cols());
        let mut h_cols = ActiveCols::default();
        h_cols.scan(h_prev.data(), rows, h_prev.cols());
        let mut uh = Tensor2::default();
        let mut pre = |gate: usize| -> Tensor2 {
            let mut z = Tensor2::default();
            self.hidden_term_into(gate, &h_prev, &h_cols, &mut uh);
            self.gate_pre_into(gate, x, &x_cols, &uh, &mut z);
            z
        };
        let mut i = pre(0);
        let mut f = pre(1);
        let mut g = pre(2);
        let mut o = pre(3);
        sigmoid_in_place(i.data_mut());
        sigmoid_in_place(f.data_mut());
        tanh_in_place(g.data_mut());
        sigmoid_in_place(o.data_mut());
        let mut c = Tensor2::zeros(rows, self.hidden_size);
        for (slot, ((fv, cp), (iv, gv))) in c.data_mut().iter_mut().zip(
            f.data()
                .iter()
                .zip(c_prev.data())
                .zip(i.data().iter().zip(g.data())),
        ) {
            *slot = fv * cp + iv * gv;
        }
        let mut tanh_c = c.clone();
        tanh_c.data_mut().iter_mut().for_each(|v| *v = v.tanh());
        let mut h = Tensor2::zeros(rows, self.hidden_size);
        for (slot, (ov, tv)) in h
            .data_mut()
            .iter_mut()
            .zip(o.data().iter().zip(tanh_c.data()))
        {
            *slot = ov * tv;
        }
        let cache = StepCache {
            x: x.clone(),
            h_prev,
            c_prev,
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h, c, cache)
    }

    fn check_step(&self, step: &Tensor2, rows: usize) {
        assert_eq!(step.cols(), self.input_size, "LSTM input size mismatch");
        assert_eq!(step.rows(), rows, "LSTM batch size mismatch");
    }

    /// Runs the LSTM over a batched sequence (each element one time step,
    /// `batch x input` row-major), starting from zero state, and returns
    /// the final hidden states (`batch x hidden`). Caches everything needed
    /// for [`Lstm::backward_params_batch`]. Row `b` is bit-identical to
    /// [`Lstm::forward_inference`] on row `b` of every step.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or any step has the wrong shape.
    pub fn forward_batch(&mut self, sequence: &[Tensor2]) -> Tensor2 {
        assert!(!sequence.is_empty(), "LSTM sequence must not be empty");
        let rows = sequence[0].rows();
        let mut h = Tensor2::zeros(rows, self.hidden_size);
        let mut c = Tensor2::zeros(rows, self.hidden_size);
        let mut caches = Vec::with_capacity(sequence.len());
        for x in sequence {
            self.check_step(x, rows);
            let cache;
            (h, c, cache) = self.step_batch(x, h, c);
            caches.push(cache);
        }
        self.cached_sequences.push(caches);
        h
    }

    /// Inference-only forward (no caching), written as the plain
    /// single-sample cell over [`Param::matvec`] — dense sequential loops,
    /// no tiling, no column lists. This is the reference every kernel-backed
    /// path ([`Lstm::infer`], the batched forms) is tested bit for bit
    /// against; it is not a hot path.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or any input has the wrong size.
    pub fn forward_inference(&self, sequence: &[Vec<f64>]) -> Vec<f64> {
        assert!(!sequence.is_empty(), "LSTM sequence must not be empty");
        let mut h = vec![0.0; self.hidden_size];
        let mut c = vec![0.0; self.hidden_size];
        for x in sequence {
            assert_eq!(x.len(), self.input_size, "LSTM input size mismatch");
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
            let [i, f, g, o] = &gates;
            for e in 0..self.hidden_size {
                c[e] = f[e] * c[e] + i[e] * g[e];
                h[e] = o[e] * c[e].tanh();
            }
        }
        h
    }

    /// Core of the scratch-based inference paths: runs the cell over the
    /// given steps from zero state with all working memory in `s`; leaves
    /// the final hidden states in `s.h`. A step comes with the ascending
    /// list of its non-zero columns when the caller has it, and is scanned
    /// for it otherwise.
    fn run_infer<'a, I>(&self, steps: I, rows: usize, s: &mut LstmScratch)
    where
        I: Iterator<Item = (&'a Tensor2, Option<&'a [u32]>)>,
    {
        s.h.resize(rows, self.hidden_size);
        s.c.resize(rows, self.hidden_size);
        self.run_steps(steps, rows, s, None);
    }

    /// [`Lstm::run_infer`] from the state already in `s.h` / `s.c`
    /// (`rows x hidden`): each step reads only that state and its input, so
    /// resuming after step `t` from the state step `t` left is the same
    /// computation as running on. With `first_hidden`, the first step takes
    /// its hidden terms from there instead of computing them from `s.h`,
    /// which it then does not read.
    fn run_steps<'a, I>(
        &self,
        steps: I,
        rows: usize,
        s: &mut LstmScratch,
        mut first_hidden: Option<&[Tensor2; 4]>,
    ) where
        I: Iterator<Item = (&'a Tensor2, Option<&'a [u32]>)>,
    {
        let hs = self.hidden_size;
        for (x, listed) in steps {
            self.check_step(x, rows);
            match listed {
                Some(cols) => s.x_cols.adopt(cols, x.cols()),
                None => s.x_cols.scan(x.data(), rows, x.cols()),
            }
            let kept = first_hidden.take();
            if kept.is_none() {
                s.h_cols.scan(s.h.data(), rows, hs);
            }
            for (gate, z) in s.gates.iter_mut().enumerate() {
                let hidden = match kept {
                    Some(terms) => &terms[gate],
                    None => {
                        self.hidden_term_into(gate, &s.h, &s.h_cols, &mut s.uh);
                        &s.uh
                    }
                };
                self.gate_pre_into(gate, x, &s.x_cols, hidden, z);
            }
            sigmoid_in_place(s.gates[0].data_mut());
            sigmoid_in_place(s.gates[1].data_mut());
            tanh_in_place(s.gates[2].data_mut());
            sigmoid_in_place(s.gates[3].data_mut());
            for e in 0..rows * hs {
                let i = s.gates[0].data()[e];
                let f = s.gates[1].data()[e];
                let g = s.gates[2].data()[e];
                let o = s.gates[3].data()[e];
                let c = f * s.c.data()[e] + i * g;
                s.c.data_mut()[e] = c;
                s.h.data_mut()[e] = o * c.tanh();
            }
        }
    }

    /// Allocation-free batched inference over a sequence of borrowed time
    /// steps using internal scratch buffers. Returns the final hidden
    /// states (`batch x hidden`) as a tensor borrowing the scratch; row `b`
    /// is bit-identical to [`Lstm::forward_inference`] on row `b`.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or any step has the wrong shape.
    pub fn infer_batch(&mut self, sequence: &[&Tensor2]) -> &Tensor2 {
        assert!(!sequence.is_empty(), "LSTM sequence must not be empty");
        let rows = sequence[0].rows();
        let mut s = std::mem::take(&mut self.infer_scratch).0;
        self.run_infer(sequence.iter().map(|x| (*x, None)), rows, &mut s);
        self.infer_scratch = Scratch(s);
        &self.infer_scratch.0.h
    }

    /// Allocation-free inference over a sequence of borrowed inputs (a thin
    /// wrapper over batch-of-1). Returns the final hidden state as a slice
    /// borrowing the scratch; bit-identical to [`Lstm::forward_inference`].
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or any input has the wrong size.
    pub fn infer(&mut self, sequence: &[&[f64]]) -> &[f64] {
        assert!(!sequence.is_empty(), "LSTM sequence must not be empty");
        let mut inputs = std::mem::take(&mut self.infer_inputs).0;
        inputs.resize(sequence.len(), Tensor2::default());
        for (staged, x) in inputs.iter_mut().zip(sequence) {
            staged.assign_flat(1, x.len(), x);
        }
        let mut s = std::mem::take(&mut self.infer_scratch).0;
        self.run_infer(inputs.iter().map(|x| (x, None)), 1, &mut s);
        self.infer_scratch = Scratch(s);
        self.infer_inputs = Scratch(inputs);
        self.infer_scratch.0.h.row(0)
    }

    /// [`Lstm::infer`] for inputs held as their non-zeros: each time step
    /// is `(columns, values)` — strictly ascending columns and, in the same
    /// order, the values there; every other entry of the step is `+0.0`.
    /// Touches `O(listed)` input memory instead of copying and scanning
    /// `input_size` floats per step. The kernels are the ones `infer` runs,
    /// over the same column list a scan of the dense vector would find (the
    /// dense loop when more than half the columns are listed), so the
    /// result is bit-identical to [`Lstm::forward_inference`] on the dense
    /// vectors.
    ///
    /// A one-entry prefix memo skips step 0 when it repeats: a sequence of
    /// two or more steps whose first step has the column list and value
    /// bits of the previous such call's first step starts at step 1 from
    /// the cell state `c₁` step 0 left then, and step 1 adds the hidden
    /// terms `U_g·h₁ + b_g` kept then to its `W_g·x` over the listed columns
    /// (the embedding LSTM sees the producer first, and it repeats across
    /// the steps on one consumer). The memo is working memory under the
    /// [`Scratch`] rule — a clone starts without it, equality ignores it —
    /// and [`Lstm::parameters_mut`], the only way to write the weights,
    /// clears it.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty, a step's columns and values differ
    /// in length, or its columns are not strictly ascending and below
    /// `input_size`.
    pub fn infer_nonzeros(&mut self, sequence: &[(&[u32], &[f64])]) -> &[f64] {
        assert!(!sequence.is_empty(), "LSTM sequence must not be empty");
        let mut memo = std::mem::take(&mut self.prefix_memo).0;
        let (first_cols, first_values) = sequence[0];
        let hit = sequence.len() > 1 && memo.holds(first_cols, first_values);
        // A hit neither runs step 0 nor reads its staging row, and its list
        // passed the checks below when the memo was filled.
        let skip = usize::from(hit);
        let mut inputs = std::mem::take(&mut self.zeroed_inputs).0;
        inputs.resize_with(sequence.len(), || Tensor2::zeros(1, self.input_size));
        for (staged, (cols, values)) in inputs.iter_mut().zip(sequence).skip(skip) {
            assert_eq!(cols.len(), values.len(), "LSTM column list mismatch");
            assert!(
                cols.windows(2).all(|w| w[0] < w[1])
                    && cols.last().is_none_or(|c| (*c as usize) < self.input_size),
                "LSTM input columns must be strictly ascending and in range"
            );
            let row = staged.data_mut();
            for (col, value) in cols.iter().zip(*values) {
                row[*col as usize] = *value;
            }
        }
        let mut s = std::mem::take(&mut self.infer_scratch).0;
        let mut steps = inputs
            .iter()
            .zip(sequence)
            .map(|(x, (cols, _))| (x, Some(*cols)));
        if sequence.len() == 1 {
            self.run_infer(steps, 1, &mut s);
        } else {
            if hit {
                steps.next();
                s.c.assign_flat(1, self.hidden_size, &memo.c);
                s.h.reshape_for_overwrite(1, self.hidden_size);
            } else {
                self.run_infer(steps.by_ref().take(1), 1, &mut s);
                s.h_cols.scan(s.h.data(), 1, self.hidden_size);
                for (gate, term) in memo.hidden.iter_mut().enumerate() {
                    self.hidden_term_into(gate, &s.h, &s.h_cols, term);
                }
                memo.fill(first_cols, first_values, &s.c);
            }
            self.run_steps(steps, 1, &mut s, Some(&memo.hidden));
        }
        self.prefix_memo = Scratch(memo);
        self.infer_scratch = Scratch(s);
        for (staged, (cols, _)) in inputs.iter_mut().zip(sequence).skip(skip) {
            let row = staged.data_mut();
            for col in *cols {
                row[*col as usize] = 0.0;
            }
        }
        self.zeroed_inputs = Scratch(inputs);
        self.infer_scratch.0.h.row(0)
    }

    /// The one backpropagation-through-time body: consumes the most recent
    /// cached forward call and accumulates parameter gradients
    /// **sample-major in reverse row order** (bit-identical to a per-sample
    /// replay against stacked caches). With `want_grad_x` it also returns
    /// the per-step input gradients (`batch x input` each) — four
    /// `H x input` products per step that no network needs, since the
    /// LSTM's inputs are observations; without, it returns an empty `Vec`.
    fn bptt(&mut self, grad_h_final: &Tensor2, want_grad_x: bool) -> Vec<Tensor2> {
        let caches = self
            .cached_sequences
            .pop()
            .expect("backward called without a matching forward");
        let rows = caches[0].x.rows();
        assert_eq!(grad_h_final.rows(), rows, "gradient batch size mismatch");
        assert_eq!(
            grad_h_final.cols(),
            self.hidden_size,
            "gradient size mismatch"
        );
        let h = self.hidden_size;
        let mut grad_x: Vec<Tensor2> = if want_grad_x {
            caches
                .iter()
                .map(|_| Tensor2::zeros(rows, self.input_size))
                .collect()
        } else {
            Vec::new()
        };
        // Pre-activation gradients per step and gate, kept so the parameter
        // accumulation below can run in per-sample replay order.
        let mut dpres: Vec<[Tensor2; 4]> = Vec::with_capacity(caches.len());
        let mut dh = grad_h_final.clone();
        let mut dc = Tensor2::zeros(rows, h);
        let mut tmp = Tensor2::zeros(0, 0);

        for (t, cache) in caches.iter().enumerate().rev() {
            // h = o * tanh(c)
            let mut do_gate = Tensor2::zeros(rows, h);
            for (slot, (d, tc)) in do_gate
                .data_mut()
                .iter_mut()
                .zip(dh.data().iter().zip(cache.tanh_c.data()))
            {
                *slot = d * tc;
            }
            for e in 0..rows * h {
                dc.data_mut()[e] += dh.data()[e]
                    * cache.o.data()[e]
                    * (1.0 - cache.tanh_c.data()[e] * cache.tanh_c.data()[e]);
            }
            // c = f * c_prev + i * g
            let elementwise = |a: &Tensor2, b: &Tensor2| {
                let mut out = Tensor2::zeros(rows, h);
                for (slot, (x, y)) in out.data_mut().iter_mut().zip(a.data().iter().zip(b.data())) {
                    *slot = x * y;
                }
                out
            };
            let di = elementwise(&dc, &cache.g);
            let dg = elementwise(&dc, &cache.i);
            let df = elementwise(&dc, &cache.c_prev);
            let dc_prev = elementwise(&dc, &cache.f);

            // Pre-activation gradients.
            let sigmoid_pre = |d: &Tensor2, v: &Tensor2| {
                let mut out = Tensor2::zeros(rows, h);
                for (slot, (dv, vv)) in out.data_mut().iter_mut().zip(d.data().iter().zip(v.data()))
                {
                    *slot = dv * vv * (1.0 - vv);
                }
                out
            };
            let di_pre = sigmoid_pre(&di, &cache.i);
            let df_pre = sigmoid_pre(&df, &cache.f);
            let mut dg_pre = Tensor2::zeros(rows, h);
            for (slot, (dv, vv)) in dg_pre
                .data_mut()
                .iter_mut()
                .zip(dg.data().iter().zip(cache.g.data()))
            {
                *slot = dv * (1.0 - vv * vv);
            }
            let do_pre = sigmoid_pre(&do_gate, &cache.o);

            let gate_grads = [di_pre, df_pre, dg_pre, do_pre];
            let mut dh_prev = Tensor2::zeros(rows, h);
            for (gate, dpre) in gate_grads.iter().enumerate() {
                if want_grad_x {
                    self.w[gate].matmul_batch_transposed_into(dpre, &mut tmp);
                    for (acc, v) in grad_x[t].data_mut().iter_mut().zip(tmp.data()) {
                        *acc += v;
                    }
                }
                // Step 0 has no earlier step to hand a hidden gradient to.
                if t > 0 {
                    self.u[gate].matmul_batch_transposed_into(dpre, &mut tmp);
                    for (acc, v) in dh_prev.data_mut().iter_mut().zip(tmp.data()) {
                        *acc += v;
                    }
                }
            }
            dpres.push(gate_grads);
            dh = dh_prev;
            dc = dc_prev;
        }
        // `dpres` was filled in reverse time order; index it back to t.
        dpres.reverse();

        // Parameter accumulation in per-sample replay order: sample-major
        // (reverse rows), then reverse time, then gates — the exact `+=`
        // sequence B stacked per-vector backward calls perform.
        let (mut x_cols, mut h_cols) = (ActiveCols::default(), ActiveCols::default());
        for b in (0..rows).rev() {
            for (cache, step_dpres) in caches.iter().zip(&dpres).rev() {
                // This sample's own non-zero columns, shared by the gates.
                let (x, h_prev) = (cache.x.row(b), cache.h_prev.row(b));
                x_cols.scan(x, 1, x.len());
                h_cols.scan(h_prev, 1, h_prev.len());
                for (gate, gate_dpre) in step_dpres.iter().enumerate() {
                    let dpre = gate_dpre.row(b);
                    self.w[gate].add_outer_to_grad_cols(dpre, x, &x_cols);
                    self.u[gate].add_outer_to_grad_cols(dpre, h_prev, &h_cols);
                    for (gb, g) in self.b[gate].grad_mut().iter_mut().zip(dpre) {
                        *gb += g;
                    }
                }
            }
        }
        grad_x
    }

    /// Batched backpropagation through time for the most recent un-consumed
    /// forward call, given the gradients with respect to the final hidden
    /// states (`batch x hidden`). Accumulates parameter gradients
    /// **sample-major in reverse row order** (bit-identical to one-row
    /// calls replayed in reverse against stacked caches). This is the entry
    /// the networks call.
    ///
    /// # Panics
    ///
    /// Panics if no cached forward call is available or the gradient shape
    /// does not match.
    pub fn backward_params_batch(&mut self, grad_h_final: &Tensor2) {
        self.bptt(grad_h_final, false);
    }

    /// [`Lstm::backward_params_batch`] that also returns the per-step
    /// gradients with respect to the inputs (`batch x input` each) — for
    /// gradient checks; the same parameter gradients, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if no cached forward call is available or the gradient shape
    /// does not match.
    pub fn backward_batch(&mut self, grad_h_final: &Tensor2) -> Vec<Tensor2> {
        self.bptt(grad_h_final, true)
    }

    /// Clears gradients and cached activations.
    pub fn zero_grad(&mut self) {
        for p in self.parameters_mut() {
            p.zero_grad();
        }
        self.cached_sequences.clear();
    }

    /// All parameters, for the optimizer. Every write to the weights
    /// passes through here, so this is where [`Lstm::infer_nonzeros`]'s
    /// prefix memo is dropped.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.prefix_memo.0.filled = false;
        let mut out = Vec::with_capacity(12);
        out.extend(self.w.iter_mut());
        out.extend(self.u.iter_mut());
        out.extend(self.b.iter_mut());
        out
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        4 * (self.hidden_size * self.input_size
            + self.hidden_size * self.hidden_size
            + self.hidden_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    /// One sequence as time steps of a batch of one.
    fn one(sequence: &[Vec<f64>]) -> Vec<Tensor2> {
        sequence.iter().map(|x| Tensor2::from_row(x)).collect()
    }

    /// One-row backward through time: the per-step input gradients.
    fn backward_one(lstm: &mut Lstm, grad_h_final: &[f64]) -> Vec<Vec<f64>> {
        lstm.backward_batch(&Tensor2::from_row(grad_h_final))
            .into_iter()
            .map(Tensor2::into_flat)
            .collect()
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut lstm = Lstm::new(4, 6, &mut rng());
        assert_eq!(lstm.input_size(), 4);
        assert_eq!(lstm.hidden_size(), 6);
        assert_eq!(lstm.num_parameters(), 4 * (6 * 4 + 36 + 6));
        let seq = vec![vec![0.1, 0.2, -0.3, 0.4], vec![1.0, -1.0, 0.5, 0.0]];
        let h1 = lstm.forward_batch(&one(&seq)).into_flat();
        let h2 = lstm.forward_inference(&seq);
        assert_eq!(h1.len(), 6);
        assert_eq!(h1, h2);
        // Different inputs give different embeddings.
        let h3 = lstm.forward_inference(&[vec![0.0; 4], vec![0.0; 4]]);
        assert_ne!(h1, h3);
    }

    #[test]
    fn infer_matches_forward_inference_bitwise() {
        let mut lstm = Lstm::new(4, 6, &mut rng());
        let seq = vec![vec![0.1, 0.2, -0.3, 0.4], vec![1.0, -1.0, 0.5, 0.0]];
        let expected = lstm.forward_inference(&seq);
        let borrowed: Vec<&[f64]> = seq.iter().map(Vec::as_slice).collect();
        let got = lstm.infer(&borrowed).to_vec();
        assert_eq!(expected, got, "scratch inference must be bit-identical");
        // Scratch is reused across calls without contaminating results.
        assert_eq!(expected, lstm.infer(&borrowed).to_vec());
        // Clones start with fresh scratch but identical weights.
        assert_eq!(expected, lstm.clone().infer(&borrowed).to_vec());
    }

    #[test]
    fn the_prefix_memo_keeps_the_last_first_step_until_the_weights_are_handed_out() {
        let mut lstm = Lstm::new(8, 3, &mut rng());
        let producer: (&[u32], &[f64]) = (&[1, 5], &[0.5, -1.0]);
        let consumer: (&[u32], &[f64]) = (&[0, 2, 7], &[1.0, 2.0, -3.0]);
        let memo = |lstm: &Lstm| lstm.prefix_memo.0.holds(producer.0, producer.1);
        lstm.infer_nonzeros(&[producer, consumer]);
        assert!(memo(&lstm));
        let kept = |lstm: &Lstm| {
            (
                lstm.prefix_memo.0.c.clone(),
                lstm.prefix_memo.0.hidden.clone(),
            )
        };
        let state = kept(&lstm);
        // A hit keeps the entry; a one-step call neither reads nor writes it.
        lstm.infer_nonzeros(&[producer, producer]);
        lstm.infer_nonzeros(&[consumer]);
        assert!(memo(&lstm));
        assert_eq!(state, kept(&lstm));
        // A clone starts without it; handing out the weights drops it.
        assert!(!memo(&lstm.clone()));
        lstm.parameters_mut();
        assert!(!memo(&lstm));
        // A different first step replaces it.
        lstm.infer_nonzeros(&[consumer, producer]);
        assert!(lstm.prefix_memo.0.holds(consumer.0, consumer.1) && !memo(&lstm));
    }

    #[test]
    fn batched_forward_and_infer_match_per_sample_rows() {
        let mut lstm = Lstm::new(3, 5, &mut rng());
        let sequences = [
            vec![vec![0.2, -0.4, 0.6], vec![-0.1, 0.3, 0.5]],
            vec![vec![1.0, 0.0, -1.0], vec![0.7, 0.7, 0.0]],
            vec![vec![-0.5, 0.5, 0.1], vec![0.0, -0.9, 0.4]],
        ];
        // Pack: one tensor per time step, one row per sequence.
        let steps: Vec<Tensor2> = (0..2)
            .map(|t| Tensor2::from_rows(3, sequences.iter().map(|s| s[t].as_slice())))
            .collect();
        let batched = lstm.forward_batch(&steps);
        for (b, seq) in sequences.iter().enumerate() {
            assert_eq!(batched.row(b), lstm.forward_inference(seq).as_slice());
        }
        let refs: Vec<&Tensor2> = steps.iter().collect();
        let inferred = lstm.infer_batch(&refs).clone();
        assert_eq!(inferred, batched);
        lstm.zero_grad();
    }

    #[test]
    fn backward_batch_matches_reverse_per_sample_replay() {
        let mut batched = Lstm::new(3, 4, &mut rng());
        let mut serial = batched.clone();
        let sequences = [
            vec![vec![0.2, -0.4, 0.6], vec![-0.1, 0.3, 0.5]],
            vec![vec![1.0, 0.0, -1.0], vec![0.7, 0.7, 0.0]],
            vec![vec![-0.5, 0.5, 0.1], vec![0.0, -0.9, 0.4]],
        ];
        let grads = [
            vec![1.0, -0.5, 0.2, 0.8],
            vec![-1.0, 0.1, 0.4, 0.4],
            vec![0.3, 0.9, -0.2, 0.0],
        ];
        let steps: Vec<Tensor2> = (0..2)
            .map(|t| Tensor2::from_rows(3, sequences.iter().map(|s| s[t].as_slice())))
            .collect();
        batched.forward_batch(&steps);
        let g = Tensor2::from_rows(4, grads.iter().map(Vec::as_slice));
        let gx_batched = batched.backward_batch(&g);

        for seq in &sequences {
            serial.forward_batch(&one(seq));
        }
        let mut gx_serial: Vec<Vec<Vec<f64>>> = Vec::new();
        for grad in grads.iter().rev() {
            gx_serial.push(backward_one(&mut serial, grad));
        }
        gx_serial.reverse();
        for (b, gs) in gx_serial.iter().enumerate() {
            for (t, gt) in gs.iter().enumerate() {
                assert_eq!(gx_batched[t].row(b), gt.as_slice(), "b={b} t={t}");
            }
        }
        let pb = batched.parameters_mut();
        let ps = serial.parameters_mut();
        for (a, b) in pb.iter().zip(&ps) {
            assert_eq!(a.grad(), b.grad());
        }
    }

    #[test]
    fn hidden_state_bounded_by_tanh() {
        let mut lstm = Lstm::new(3, 5, &mut rng());
        let h = lstm.forward_batch(&one(&[vec![10.0, -10.0, 10.0]]));
        assert!(h.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut lstm = Lstm::new(3, 4, &mut rng());
        let seq = vec![vec![0.2, -0.4, 0.6], vec![-0.1, 0.3, 0.5]];
        // Loss = sum of final hidden state.
        let base: f64 = lstm.forward_batch(&one(&seq)).data().iter().sum();
        let grad_x = backward_one(&mut lstm, &[1.0; 4]);
        let eps = 1e-6;
        for t in 0..seq.len() {
            for i in 0..3 {
                let mut perturbed = seq.clone();
                perturbed[t][i] += eps;
                let fd = (lstm.forward_inference(&perturbed).iter().sum::<f64>() - base) / eps;
                assert!(
                    (fd - grad_x[t][i]).abs() < 1e-4,
                    "t={t} i={i}: fd {fd} vs analytic {}",
                    grad_x[t][i]
                );
            }
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut lstm = Lstm::new(2, 3, &mut rng());
        let seq = vec![vec![0.5, -0.2], vec![0.1, 0.9]];
        let base: f64 = lstm.forward_batch(&one(&seq)).data().iter().sum();
        lstm.backward_params_batch(&Tensor2::from_row(&[1.0; 3]));
        let eps = 1e-6;
        // Check an entry of the input-gate W, the forget-gate U and the
        // output-gate bias.
        let checks: [(usize, usize); 3] = [(0, 1), (5, 2), (11, 0)];
        for (param_idx, entry) in checks {
            // Read from `lstm` itself: a clone does not carry the gradient.
            let analytic = lstm.parameters_mut()[param_idx].grad()[entry];
            let mut perturbed = lstm.clone();
            perturbed.parameters_mut()[param_idx].value_mut()[entry] += eps;
            let fd = (perturbed.forward_inference(&seq).iter().sum::<f64>() - base) / eps;
            assert!(
                (fd - analytic).abs() < 1e-4,
                "param {param_idx} entry {entry}: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_sequence_panics() {
        Lstm::new(2, 2, &mut rng()).forward_batch(&[]);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut lstm = Lstm::new(2, 2, &mut rng());
        lstm.forward_batch(&one(&[vec![1.0, 1.0]]));
        lstm.backward_params_batch(&Tensor2::from_row(&[1.0, 1.0]));
        lstm.zero_grad();
        assert!(lstm
            .parameters_mut()
            .iter()
            .all(|p| p.grad().iter().all(|g| *g == 0.0)));
    }
}

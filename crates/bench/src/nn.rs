//! NN throughput: batched (blocked-matmul) vs per-vector inference and
//! training on PPO/beam-realistic layer shapes, plus the embedding LSTM at
//! its deployed input shape on real observations.

use std::hint::black_box;
use std::time::Instant;

use mlir_rl_agent::{PolicyHyperparams, PolicyNetwork};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, Features, OptimizationEnv};
use mlir_rl_nn::{Lstm, Mlp, Tensor2};
use mlir_rl_workloads::dl_ops;
use mlir_rl_workloads::sequences::sequence_dataset;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{ensure_all, report, Report};
use crate::ExperimentScale;

report! {
    /// One batch-size row of the NN-throughput experiment. All figures are
    /// rows (samples) per second; `*_speedup` is batched over looped.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NnThroughputRow {
        /// Batch size (rows per batched call; the looped figures process
        /// the same rows one at a time).
        batch: usize = "batch",
        /// MLP training forward, one one-row `forward_batch` call per row.
        forward_looped: f64 = "forward loop",
        /// MLP training forward, one `forward_batch` call.
        forward_batched: f64 = "forward batch",
        /// `forward_batched / forward_looped`.
        forward_speedup: f64 = "x",
        /// MLP scratch inference, one `infer` call per row.
        infer_looped: f64 = "infer loop",
        /// MLP scratch inference, one `infer_batch` call.
        infer_batched: f64 = "infer batch",
        /// `infer_batched / infer_looped`.
        infer_speedup: f64 = "x",
        /// MLP backward, one one-row `backward_batch` call per row in
        /// reverse order.
        backward_looped: f64 = "backward loop",
        /// MLP backward, one `backward_batch` call.
        backward_batched: f64 = "backward batch",
        /// `backward_batched / backward_looped`.
        backward_speedup: f64 = "x",
        /// LSTM scratch inference (sequence length 2, the producer-consumer
        /// embedding shape), one `infer` call per row.
        lstm_infer_looped: f64 = "lstm loop",
        /// LSTM scratch inference, one `infer_batch` call.
        lstm_infer_batched: f64 = "lstm batch",
        /// `lstm_infer_batched / lstm_infer_looped`.
        lstm_infer_speedup: f64 = "x",
    }
}

report! {
    /// The embedding LSTM at the shape it is deployed in — `feature_len`
    /// inputs, sequence length 2 — at one batch size: rows/sec on real
    /// reset observations (under 2 % dense, so the kernels contract over
    /// the non-zero columns only) against dense random vectors of the same
    /// shape (every column contracted over), and at the PPO minibatch size
    /// one training step on those observations.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ObservationLstmRow {
        /// Sequences per `infer_batch` call (`infer` at 1).
        batch: usize = "batch",
        /// Rows/sec fed real observations.
        observation_rows: f64 = "observations",
        /// Rows/sec fed the same observations as the `(columns, values)`
        /// lists they are stored as (`Lstm::infer_nonzeros`, what
        /// `select_action` runs): no staging copy and no scan. Batch 1 only.
        list_rows: Option<f64> = "as lists",
        /// Rows/sec fed dense random vectors.
        dense_rows: f64 = "dense random",
        /// `observation_rows / dense_rows`.
        speedup: f64 = "x",
        /// Rows/sec of one training step — `forward_batch_nonzeros`, then
        /// `backward_params_batch` — fed the observations as their lists,
        /// what the PPO update runs. Batch 16 only.
        train_list_rows: Option<f64> = "train step, lists",
        /// The same training step fed the observations as packed dense
        /// rows through `forward_batch`, which lists each row before it
        /// runs the same body. Batch 16 only.
        train_packed_rows: Option<f64> = "train step, packed rows",
    }
}

report! {
    /// The embedding calls of greedy decoding, in the order a served
    /// greedy request makes them: greedy episodes at `EnvConfig::paper()`
    /// with a fixed-seed 128-unit policy over `dl_ops::evaluation_benchmark()`
    /// and random operator sequences, one batch-1 call per step. A call
    /// whose producer list repeats the previous call's is one the LSTM's
    /// prefix memo answers without running the producer step.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GreedyStreamRow {
        /// Batch-1 policy calls in the stream.
        calls: usize = "calls",
        /// Share of calls whose producer list equals the previous call's.
        producer_repeat_fraction: f64 = "producer repeats",
        /// Share of calls whose producer list is empty (a producer-less
        /// operation).
        empty_producer_fraction: f64 = "empty producer",
        /// Rows/sec of `Lstm::infer_nonzeros` fed the stream in order (the
        /// observation-shaped LSTM above, memo and all).
        list_rows: f64 = "as lists (rows/sec)",
    }
}

report! {
    /// The `exp nn_throughput` report: rows/sec for batched vs per-vector
    /// forward, inference and backward at PPO/beam-realistic shapes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NnThroughputReport {
        /// Input feature count of the measured MLP (equal to the hidden
        /// size, like the paper's backbone).
        input: usize = "mlp input width",
        /// Hidden width of the measured layers.
        hidden: usize = "hidden width",
        /// Number of MLP layers.
        layers: usize = "mlp layers",
        /// One row per measured batch size.
        rows: Vec<NnThroughputRow> = "rows/sec, per-vector loop vs one batched call",
        /// Input size of the observation-shaped LSTM:
        /// `EnvConfig::paper().feature_len()`.
        feature_len: usize = "observation lstm input width",
        /// Mean non-zeros per observation vector fed to it.
        observation_nnz: f64 = "non-zeros per observation vector",
        /// The observation-shaped LSTM, one row per measured batch size.
        observation_lstm: Vec<ObservationLstmRow> = "observation-shaped lstm, sequence 2 (rows/sec)",
        /// The observation-shaped LSTM on the calls of greedy decoding.
        greedy_stream: GreedyStreamRow = "greedy-decoding stream, batch 1",
    }
}

impl Report for NnThroughputReport {
    fn check(&self) -> Result<(), String> {
        let measured = |rate: &f64| rate.is_finite() && *rate > 0.0;
        ensure_all!(
            self.rows.len() == 4 && self.rows.iter().any(|r| r.batch >= 16),
            self.rows.iter().all(|r| [
                r.forward_looped,
                r.forward_batched,
                r.infer_looped,
                r.infer_batched,
                r.backward_looped,
                r.backward_batched,
                r.lstm_infer_looped,
                r.lstm_infer_batched,
            ]
            .iter()
            .all(measured)),
            // The observation-shaped LSTM: real inputs are sparse, and the
            // kernels are faster on them than on dense vectors of that
            // shape.
            self.feature_len == 3252,
            self.observation_nnz > 0.0 && self.observation_nnz < 0.05 * 3252.0,
            self.observation_lstm.len() == 2,
            self.observation_lstm
                .iter()
                .all(|r| measured(&r.dense_rows) && r.observation_rows >= r.dense_rows),
            // The list entry is measured where it runs: at batch 1; the
            // training step at the minibatch size.
            self.observation_lstm.iter().all(
                |r| r.list_rows.is_some() == (r.batch == 1) && r.list_rows.iter().all(measured)
            ),
            self.observation_lstm.iter().all(|r| {
                let train = [r.train_list_rows, r.train_packed_rows];
                train.iter().all(|rate| rate.is_some() == (r.batch == 16))
                    && train.iter().flatten().all(measured)
            }),
            self.greedy_stream.calls > 0 && measured(&self.greedy_stream.list_rows),
            (0.0..=1.0).contains(&self.greedy_stream.producer_repeat_fraction),
            (0.0..=1.0).contains(&self.greedy_stream.empty_producer_fraction),
        )
    }
}

/// Repeats `setup` (untimed) then `timed` on `state` until the timed
/// region has accumulated `budget_s` seconds; returns rows/sec over it,
/// each repetition processing `rows` rows.
fn rows_per_sec<S>(
    budget_s: f64,
    rows: usize,
    mut state: S,
    mut setup: impl FnMut(&mut S),
    mut timed: impl FnMut(&mut S),
) -> f64 {
    let (mut done, mut spent) = (0usize, 0.0f64);
    while spent < budget_s {
        setup(&mut state);
        let start = Instant::now();
        timed(&mut state);
        spent += start.elapsed().as_secs_f64();
        done += rows;
    }
    done as f64 / spent.max(1e-9)
}

/// The `setup` of a measurement that has nothing to prepare.
fn no_setup<S>(_: &mut S) {}

/// Measures rows/sec for batched vs per-vector NN execution: MLP training
/// forward, scratch inference and backward, plus LSTM scratch inference at
/// sequence length 2 (the producer-consumer embedding). Shapes follow the
/// scale: the smoke scale uses a 96-unit stack so CI stays fast; every
/// other scale uses the paper's 512-unit PPO shape. Both sides of each
/// comparison compute bit-identical results (the batched kernels fix their
/// accumulation order), so the ratio is pure engine throughput.
///
/// Those layers are dense and square. The shape that decides serving cost
/// is the embedding LSTM's input layer — `EnvConfig::paper()`'s 3252
/// features, under 2 % of them non-zero — so the report also runs the LSTM
/// at that shape on the reset observations of
/// `dl_ops::evaluation_benchmark()`, next to dense random vectors of the
/// same shape, and on the calls greedy decoding makes (`greedy_stream`),
/// where the producer list repeats from call to call.
pub fn nn_throughput(scale: &ExperimentScale) -> NnThroughputReport {
    let hidden = if scale.hidden_size <= 16 { 96 } else { 512 };
    let budget_s = if scale.hidden_size <= 16 { 0.02 } else { 0.25 };
    let layers = 3usize;
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let sizes: Vec<usize> = std::iter::repeat_n(hidden, layers + 1).collect();
    let mlp = Mlp::new(&sizes, false, &mut rng);
    let lstm = Lstm::new(hidden, hidden, &mut rng);

    let mut rows = Vec::new();
    for batch in [1usize, 16, 32, 64] {
        let mut random_rows = || -> Vec<Vec<f64>> {
            (0..batch)
                .map(|_| (0..hidden).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect()
        };
        let (data, grad) = (random_rows(), random_rows());
        let x = Tensor2::from_rows(hidden, data.iter().map(Vec::as_slice));
        let g = Tensor2::from_rows(hidden, grad.iter().map(Vec::as_slice));
        let measure_mlp = |setup: &dyn Fn(&mut Mlp), timed: &dyn Fn(&mut Mlp)| {
            rows_per_sec(budget_s, batch, mlp.clone(), setup, timed)
        };

        let forward_looped = measure_mlp(&Mlp::zero_grad, &|mlp| {
            for row in &data {
                black_box(mlp.forward_batch(&Tensor2::from_row(row)));
            }
        });
        let forward_batched = measure_mlp(&Mlp::zero_grad, &|mlp| {
            black_box(mlp.forward_batch(&x));
        });
        let infer_looped = measure_mlp(&no_setup, &|mlp| {
            for row in &data {
                black_box(mlp.infer(row));
            }
        });
        let infer_batched = measure_mlp(&no_setup, &|mlp| {
            black_box(mlp.infer_batch(&x));
        });
        // Backward: the forward pass it needs is untimed.
        let backward_looped = measure_mlp(
            &|mlp| {
                mlp.zero_grad();
                for row in &data {
                    mlp.forward_batch(&Tensor2::from_row(row));
                }
            },
            &|mlp| {
                for grow in grad.iter().rev() {
                    black_box(mlp.backward_batch(&Tensor2::from_row(grow)));
                }
            },
        );
        let backward_batched = measure_mlp(
            &|mlp| {
                mlp.zero_grad();
                mlp.forward_batch(&x);
            },
            &|mlp| {
                black_box(mlp.backward_batch(&g));
            },
        );
        // LSTM scratch inference at sequence length 2.
        let lstm_infer_looped = rows_per_sec(budget_s, batch, lstm.clone(), no_setup, |lstm| {
            for row in &data {
                black_box(lstm.infer(&[row.as_slice(), row.as_slice()]));
            }
        });
        let lstm_infer_batched = rows_per_sec(budget_s, batch, lstm.clone(), no_setup, |lstm| {
            black_box(lstm.infer_batch(&[&x, &x]));
        });

        rows.push(NnThroughputRow {
            batch,
            forward_looped,
            forward_batched,
            forward_speedup: forward_batched / forward_looped.max(1e-9),
            infer_looped,
            infer_batched,
            infer_speedup: infer_batched / infer_looped.max(1e-9),
            backward_looped,
            backward_batched,
            backward_speedup: backward_batched / backward_looped.max(1e-9),
            lstm_infer_looped,
            lstm_infer_batched,
            lstm_infer_speedup: lstm_infer_batched / lstm_infer_looped.max(1e-9),
        });
    }

    // --- The embedding LSTM at its deployed input shape -----------------
    let env_config = EnvConfig::paper();
    let feature_len = env_config.feature_len();
    let mut env = OptimizationEnv::new(env_config, CostModel::new(MachineModel::default()));
    let lists: Vec<[Features; 2]> = dl_ops::evaluation_benchmark()
        .into_iter()
        .filter_map(|(_, module)| env.reset(module))
        .map(|obs| [obs.producer, obs.consumer])
        .collect();
    assert!(!lists.is_empty(), "no operator produced an observation");
    let observations: Vec<[Vec<f64>; 2]> = lists
        .iter()
        .map(|[producer, consumer]| [producer.to_vec(), consumer.to_vec()])
        .collect();
    let nnz: usize = lists.iter().flatten().map(|f| f.nonzeros().0.len()).sum();
    let dense: Vec<[Vec<f64>; 2]> = (0..observations.len())
        .map(|_| {
            std::array::from_fn(|_| (0..feature_len).map(|_| rng.gen_range(0.5..1.0)).collect())
        })
        .collect();
    let wide = Lstm::new(feature_len, hidden, &mut rng);
    let mut observation_lstm = Vec::new();
    for batch in [1usize, 16] {
        let dense_rows_per_sec = |inputs: &[[Vec<f64>; 2]]| {
            if batch == 1 {
                return rows_per_sec(budget_s, inputs.len(), wide.clone(), no_setup, |lstm| {
                    for [producer, consumer] in inputs {
                        black_box(lstm.infer(&[producer, consumer]));
                    }
                });
            }
            let steps: [Tensor2; 2] = std::array::from_fn(|t| {
                Tensor2::from_rows(
                    feature_len,
                    (0..batch).map(|r| inputs[r % inputs.len()][t].as_slice()),
                )
            });
            rows_per_sec(budget_s, batch, wide.clone(), no_setup, |lstm| {
                black_box(lstm.infer_batch(&[&steps[0], &steps[1]]));
            })
        };
        let observation_rows = dense_rows_per_sec(&observations);
        let dense_rows = dense_rows_per_sec(&dense);
        let list_rows = (batch == 1).then(|| {
            rows_per_sec(budget_s, lists.len(), wide.clone(), no_setup, |lstm| {
                for [producer, consumer] in &lists {
                    let sequence = [producer.nonzeros(), consumer.nonzeros()];
                    black_box(lstm.infer_nonzeros(&sequence));
                }
            })
        });
        let [train_list_rows, train_packed_rows] = if batch == 16 {
            train_step_rows(budget_s, &wide, &lists, &mut rng).map(Some)
        } else {
            [None; 2]
        };
        observation_lstm.push(ObservationLstmRow {
            batch,
            observation_rows,
            list_rows,
            dense_rows,
            speedup: observation_rows / dense_rows.max(1e-9),
            train_list_rows,
            train_packed_rows,
        });
    }

    // --- The same LSTM on the calls of greedy decoding -------------------
    let sequences = if scale.hidden_size <= 16 { 2 } else { 8 };
    let stream = greedy_stream(&mut env, sequences);
    let share = |count: usize| count as f64 / stream.len() as f64;
    let repeats = stream.windows(2).filter(|w| w[0][0] == w[1][0]).count();
    let empty = stream
        .iter()
        .filter(|[p, _]| p.nonzeros().0.is_empty())
        .count();
    let greedy_stream = GreedyStreamRow {
        calls: stream.len(),
        producer_repeat_fraction: share(repeats),
        empty_producer_fraction: share(empty),
        list_rows: rows_per_sec(budget_s, stream.len(), wide.clone(), no_setup, |lstm| {
            for [producer, consumer] in &stream {
                black_box(lstm.infer_nonzeros(&[producer.nonzeros(), consumer.nonzeros()]));
            }
        }),
    };

    NnThroughputReport {
        input: hidden,
        hidden,
        layers,
        rows,
        feature_len,
        observation_nnz: nnz as f64 / (2 * observations.len()) as f64,
        observation_lstm,
        greedy_stream,
    }
}

/// Rows/sec of one 16-row LSTM training step (forward, then the parameter
/// backward against a fixed random gradient) on the observations `lists`
/// hold, cycled: `[fed as lists, fed as packed dense rows]`. Both compute
/// the same bits; the rows are packed once, untimed, so the packed side
/// pays only for listing them.
fn train_step_rows(
    budget_s: f64,
    lstm: &Lstm,
    lists: &[[Features; 2]],
    rng: &mut ChaCha8Rng,
) -> [f64; 2] {
    const BATCH: usize = 16;
    let rows: Vec<&[Features; 2]> = lists.iter().cycle().take(BATCH).collect();
    let grad = Tensor2::from_flat(
        BATCH,
        lstm.hidden_size(),
        (0..BATCH * lstm.hidden_size())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    );
    let steps: [Vec<(&[u32], &[f64])>; 2] =
        std::array::from_fn(|t| rows.iter().map(|row| row[t].nonzeros()).collect());
    let listed = rows_per_sec(budget_s, BATCH, lstm.clone(), no_setup, |lstm| {
        black_box(lstm.forward_batch_nonzeros(&[&steps[0], &steps[1]]));
        lstm.backward_params_batch(&grad);
    });
    let packed: Vec<Tensor2> = (0..2)
        .map(|t| {
            let vectors: Vec<Vec<f64>> = rows.iter().map(|row| row[t].to_vec()).collect();
            Tensor2::from_rows(lstm.input_size(), vectors.iter().map(Vec::as_slice))
        })
        .collect();
    let packed = rows_per_sec(budget_s, BATCH, lstm.clone(), no_setup, |lstm| {
        black_box(lstm.forward_batch(&packed));
        lstm.backward_params_batch(&grad);
    });
    [listed, packed]
}

/// The `(producer, consumer)` lists of every batch-1 policy call greedy
/// decoding makes, in order: a fixed-seed 128-unit, three-layer policy on
/// `env`'s configuration decodes every `dl_ops::evaluation_benchmark()`
/// operator, then `sequences` random operator sequences.
fn greedy_stream(env: &mut OptimizationEnv, sequences: usize) -> Vec<[Features; 2]> {
    let hyper = PolicyHyperparams {
        hidden_size: 128,
        backbone_layers: 3,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2027);
    let mut policy = PolicyNetwork::new(env.config().clone(), hyper, &mut rng);
    let modules = dl_ops::evaluation_benchmark()
        .into_iter()
        .map(|(_, module)| module)
        .chain(sequence_dataset(sequences, 2028));
    let mut stream = Vec::new();
    for module in modules {
        let mut obs = env.reset(module);
        while let Some(current) = obs {
            let record = policy.select_action(&current, true, &mut rng);
            env.step(&record.action);
            obs = env.current_observation();
            stream.push([current.producer, current.consumer]);
        }
    }
    assert!(!stream.is_empty(), "greedy decoding made no policy call");
    stream
}

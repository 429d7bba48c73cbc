//! Where a PPO iteration's time goes: collection with the critic beside the
//! actor and inline, the advantages, and each update chain's forward,
//! backward and clip-and-step — early in training and again past 8 000
//! Adam steps, where idle first moments have decayed into the subnormal
//! range.
//!
//! The trainer has no timing hook. Each phase is rebuilt from the public
//! calls `PpoTrainer::train_iteration` makes, on clones of a trainer's
//! networks after one real iteration, with optimizers of its own — the
//! same arithmetic in the same order, timed between the calls.

use std::time::Instant;

use mlir_rl_agent::{
    collect_episode, collect_rollouts, compute_gae, episode_seed, PolicyHyperparams, PolicyNetwork,
    PpoConfig, PpoTrainer, Trajectory, ValueNetwork,
};
use mlir_rl_costmodel::{median, CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, ObservationBatch, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_nn::Adam;
use mlir_rl_workloads::full_training_dataset;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{ensure_all, report, Report};
use crate::ExperimentScale;

/// The module slice every configuration trains on: the modules at an even
/// stride through the mixed training set (DL operators, operator
/// sequences, LQCD kernels), the benchmark's `train-ppo` mix.
const SLICE: &str = "full_training_dataset(0.02, seed 71), evenly strided";

/// Adam steps the late rows are taken past (standard and full scale): an
/// idle first moment turns subnormal after ~6 600.
const LATE_ADAM_STEPS: u64 = 8_200;

/// The late rows' step count at smoke scale, where the numbers mean
/// nothing and only the rows' shape is exercised.
const SMOKE_LATE_ADAM_STEPS: u64 = 24;

/// Timed repetitions of each collection.
const REPEATS: usize = 5;

report! {
    /// One configuration's split, in microseconds per transition: each
    /// collection the median of five batches, the other rows one rebuilt
    /// iteration (the update rows summed over all its epochs).
    #[derive(Debug, Clone, PartialEq)]
    pub struct TrainSplitRow {
        /// `small()/32` or `paper()/32`: the environment configuration and
        /// the networks' hidden units.
        config: String = "config",
        /// Transitions collected in the timed iteration.
        transitions: usize = "transitions",
        /// `collect_rollouts` at one worker: the caller acts, the critic
        /// thread estimates.
        collect_beside_us: f64 = "collect, critic beside",
        /// The same episodes through `collect_episode`, one after another:
        /// act, then estimate, on one thread.
        collect_inline_us: f64 = "collect, critic inline",
        /// Whether both collections gave the same trajectories, bit for bit.
        same_trajectories: bool = "same",
        /// `compute_gae` per trajectory, then the batch's advantage
        /// normalisation.
        gae_us: f64 = "gae + norm",
        /// Policy chain: `evaluate_batch`.
        policy_forward_us: f64 = "policy fwd",
        /// Policy chain: `backward_batch`.
        policy_backward_us: f64 = "policy bwd",
        /// Policy chain: `Adam::clip_and_step`.
        policy_step_us: f64 = "policy step",
        /// Value chain: `forward_batch`.
        value_forward_us: f64 = "value fwd",
        /// Value chain: `backward_batch`.
        value_backward_us: f64 = "value bwd",
        /// Value chain: `Adam::clip_and_step`.
        value_step_us: f64 = "value step",
        /// Adam steps each optimizer had taken before the late iteration.
        late_adam_steps: u64 = "late after steps",
        /// Policy chain's `clip_and_step` in the late iteration.
        late_policy_step_us: f64 = "late policy step",
        /// Value chain's `clip_and_step` in the late iteration.
        late_value_step_us: f64 = "late value step",
    }
}

report! {
    /// The `exp train_split` report: one PPO iteration split into its
    /// phases at two configurations.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TrainSplit {
        /// The module slice trained on.
        modules: String = "modules",
        /// Modules (episodes) per iteration.
        episodes: usize = "episodes per iteration",
        /// One row per configuration.
        rows: Vec<TrainSplitRow> = "microseconds per transition",
    }
}

impl Report for TrainSplit {
    fn check(&self) -> Result<(), String> {
        let timed = |row: &TrainSplitRow| {
            [
                row.collect_beside_us,
                row.collect_inline_us,
                row.gae_us,
                row.policy_forward_us,
                row.policy_backward_us,
                row.policy_step_us,
                row.value_forward_us,
                row.value_backward_us,
                row.value_step_us,
                row.late_policy_step_us,
                row.late_value_step_us,
            ]
            .iter()
            .all(|t| t.is_finite() && *t > 0.0)
        };
        ensure_all!(
            self.rows.len() == 2,
            self.rows
                .iter()
                .all(|row| row.transitions > 0 && timed(row)),
            // Moving the critic to another thread may not change a bit.
            self.rows.iter().all(|row| row.same_trajectories),
            self.rows
                .iter()
                .all(|row| row.late_adam_steps >= SMOKE_LATE_ADAM_STEPS),
        )
    }
}

/// Splits one PPO iteration at `small()/32` and `paper()/32` on
/// `scale.trajectories_per_iteration` modules of the slice, with the
/// benchmark's `train-ppo` update shape (minibatch 16, two epochs).
pub fn train_split(scale: &ExperimentScale) -> TrainSplit {
    let episodes = scale.trajectories_per_iteration;
    let all = full_training_dataset(0.02, 71);
    let stride = (all.len() / episodes.max(1)).max(1);
    let dataset: Vec<Module> = all.into_iter().step_by(stride).take(episodes).collect();
    let late_steps = if *scale == ExperimentScale::smoke() {
        SMOKE_LATE_ADAM_STEPS
    } else {
        LATE_ADAM_STEPS
    };
    let rows = [
        ("small()/32", EnvConfig::small()),
        ("paper()/32", EnvConfig::paper()),
    ]
    .into_iter()
    .map(|(name, config)| split_row(name, config, &dataset, late_steps))
    .collect();
    TrainSplit {
        modules: SLICE.to_string(),
        episodes,
        rows,
    }
}

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn split_row(name: &str, config: EnvConfig, dataset: &[Module], late_steps: u64) -> TrainSplitRow {
    let hyper = PolicyHyperparams {
        hidden_size: 32,
        backbone_layers: 2,
    };
    let ppo = PpoConfig {
        trajectories_per_iteration: dataset.len(),
        minibatch_size: 16,
        update_epochs: 2,
        ..PpoConfig::paper()
    };
    let model = CostModel::new(MachineModel::xeon_e5_2680_v4());
    let mut env = OptimizationEnv::new(config.clone(), model);
    let mut trainer = PpoTrainer::new(&config, hyper, ppo, 17);
    trainer.train_iteration(&mut env, dataset);
    let mut learner = Learner {
        env,
        policy: trainer.policy.clone(),
        value: trainer.value.clone(),
        policy_adam: Adam::new(ppo.learning_rate),
        value_adam: Adam::new(ppo.learning_rate),
        rng: ChaCha8Rng::seed_from_u64(23),
        config: ppo,
    };
    let modules: Vec<&Module> = dataset.iter().collect();

    // Both collections, alternating, on clones of the same networks and
    // the same seed; the environment's table is warm for both.
    let (mut beside, mut inline) = (Vec::new(), Vec::new());
    let mut same_trajectories = true;
    for _ in 0..REPEATS {
        let (batch, seconds) = timed(|| {
            collect_rollouts(
                &mut learner.env,
                &modules,
                &mut learner.policy.clone(),
                &mut learner.value.clone(),
                false,
                7,
                1,
            )
        });
        let steps = batch.total_steps().max(1) as f64;
        beside.push(seconds * 1e6 / steps);
        let (alone, seconds) = timed(|| {
            let (mut policy, mut value) = (learner.policy.clone(), learner.value.clone());
            let env = &mut learner.env;
            modules
                .iter()
                .enumerate()
                .map(|(episode, module)| {
                    let episode = episode as u64;
                    if let Some(noise_seed) = env.config().noise_seed {
                        env.reseed_noise(episode_seed(noise_seed.wrapping_add(7), episode));
                    }
                    let mut rng = ChaCha8Rng::seed_from_u64(episode_seed(7, episode));
                    collect_episode(env, module, &mut policy, &mut value, false, &mut rng)
                })
                .collect::<Vec<_>>()
        });
        inline.push(seconds * 1e6 / steps);
        same_trajectories &= same(&batch.trajectories, &alone);
    }

    let early = learner.iterate(&modules);
    let per = |seconds: f64| seconds * 1e6 / early.transitions.max(1) as f64;
    while learner.policy_adam.steps() < late_steps {
        learner.iterate(&modules);
    }
    let late_adam_steps = learner.policy_adam.steps();
    let late = learner.iterate(&modules);
    let late_per = |seconds: f64| seconds * 1e6 / late.transitions.max(1) as f64;
    TrainSplitRow {
        config: name.to_string(),
        transitions: early.transitions,
        collect_beside_us: median(&beside).expect("repeats"),
        collect_inline_us: median(&inline).expect("repeats"),
        same_trajectories,
        gae_us: per(early.gae),
        policy_forward_us: per(early.policy[0]),
        policy_backward_us: per(early.policy[1]),
        policy_step_us: per(early.policy[2]),
        value_forward_us: per(early.value[0]),
        value_backward_us: per(early.value[1]),
        value_step_us: per(early.value[2]),
        late_adam_steps,
        late_policy_step_us: late_per(late.policy[2]),
        late_value_step_us: late_per(late.value[2]),
    }
}

/// Whether two trajectory lists match bit for bit: observations, actions,
/// rewards, values and ends.
fn same(a: &[Trajectory], b: &[Trajectory]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.transitions.len() == y.transitions.len()
                && x.transitions.iter().zip(&y.transitions).all(|(s, t)| {
                    s.observation == t.observation
                        && s.record == t.record
                        && s.reward.to_bits() == t.reward.to_bits()
                        && s.value.to_bits() == t.value.to_bits()
                        && s.done == t.done
                })
        })
}

/// What one rebuilt iteration took, in seconds per phase.
struct Phases {
    transitions: usize,
    gae: f64,
    /// Forward, backward, clip-and-step.
    policy: [f64; 3],
    /// Forward, backward, clip-and-step.
    value: [f64; 3],
}

/// The trainer's networks on their own optimizers and RNG, trained by
/// the public calls `train_iteration` makes.
struct Learner {
    env: OptimizationEnv,
    policy: PolicyNetwork,
    value: ValueNetwork,
    policy_adam: Adam,
    value_adam: Adam,
    rng: ChaCha8Rng,
    config: PpoConfig,
}

impl Learner {
    /// One iteration: collect at one worker, advantages, then each chain
    /// over every epoch's minibatches, timed call by call. The policy
    /// chain's coefficients are the unclipped surrogate's at ratio 1 (exact
    /// for the iteration's first minibatch); the time of the calls does not
    /// depend on them.
    fn iterate(&mut self, modules: &[&Module]) -> Phases {
        let config = self.config;
        let seed = self.rng.gen::<u64>();
        let batch = collect_rollouts(
            &mut self.env,
            modules,
            &mut self.policy,
            &mut self.value,
            false,
            seed,
            1,
        );
        let (samples, gae) = timed(|| {
            let mut samples = Vec::new();
            for trajectory in &batch.trajectories {
                let (advantages, returns) =
                    compute_gae(trajectory, config.gamma, config.gae_lambda);
                for ((t, advantage), ret) in
                    trajectory.transitions.iter().zip(advantages).zip(returns)
                {
                    samples.push((&t.observation, &t.record, advantage, ret));
                }
            }
            let count = samples.len().max(1) as f64;
            let mean = samples.iter().map(|s| s.2).sum::<f64>() / count;
            let var = samples.iter().map(|s| (s.2 - mean).powi(2)).sum::<f64>() / count;
            let std = var.sqrt().max(1e-8);
            for sample in &mut samples {
                sample.2 = (sample.2 - mean) / std;
            }
            samples
        });
        let orders: Vec<Vec<usize>> = (0..config.update_epochs)
            .map(|_| {
                let mut order: Vec<usize> = (0..samples.len()).collect();
                order.shuffle(&mut self.rng);
                order
            })
            .collect();
        let mut phases = Phases {
            transitions: samples.len(),
            gae,
            policy: [0.0; 3],
            value: [0.0; 3],
        };
        for chunk in orders
            .iter()
            .flat_map(|order| order.chunks(config.minibatch_size))
        {
            let scale = 1.0 / chunk.len() as f64;
            let rows = ObservationBatch::from_observations(chunk.iter().map(|&i| samples[i].0));
            let items: Vec<_> = chunk
                .iter()
                .map(|&i| (samples[i].0, samples[i].1))
                .collect();
            let coeffs: Vec<(f64, f64)> = chunk
                .iter()
                .map(|&i| (-samples[i].2 * scale, -config.entropy_coef * scale))
                .collect();
            let (_, forward) = timed(|| self.policy.evaluate_batch(&rows, &items));
            let (_, backward) = timed(|| self.policy.backward_batch(&items, &coeffs));
            let (_, step) = timed(|| {
                let mut params = self.policy.parameters_mut();
                self.policy_adam
                    .clip_and_step(&mut params, config.max_grad_norm)
            });
            for (total, t) in phases.policy.iter_mut().zip([forward, backward, step]) {
                *total += t;
            }

            let (values, forward) = timed(|| self.value.forward_batch(&rows));
            let grads: Vec<f64> = chunk
                .iter()
                .zip(&values)
                .map(|(&i, v)| config.value_coef * (v - samples[i].3) * scale)
                .collect();
            let (_, backward) = timed(|| self.value.backward_batch(&grads));
            let (_, step) = timed(|| {
                let mut params = self.value.parameters_mut();
                self.value_adam
                    .clip_and_step(&mut params, config.max_grad_norm)
            });
            for (total, t) in phases.value.iter_mut().zip([forward, backward, step]) {
                *total += t;
            }
        }
        phases
    }
}

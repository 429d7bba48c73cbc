//! The action grammar of Sec. IV-A, stated once for drawing an action and
//! for re-scoring it.
//!
//! An action is a sequence of masked sub-decisions: the transformation
//! kind, then the chosen kind's parameters — one tile-size index per loop
//! level, or the interchange as an enumerated candidate or as level
//! pointers (the Plackett–Luce sub-steps of Appendix B). A [`Walk`] goes
//! through them in that order; the flat policy's action is a walk of one
//! decision. A [`Chooser`] picks each index: a [`Draw`] takes the argmax or
//! samples from its RNG (action selection), and a kept [`ActionRecord`]
//! replays its own picks (the PPO update's re-scoring). The walk sums the
//! log-probabilities and entropies and, when it re-scores, keeps each
//! distribution's logit gradients in [`LogitFactors`] for the backward pass
//! to weigh; when it selects it builds no gradient.
//!
//! Because both paths run the same walk, re-scoring a drawn record
//! reproduces its `log_prob` and `entropy` bit for bit.

use std::slice;

use rand::Rng;

use mlir_rl_env::{
    num_enumerated_candidates, Action, EnvConfig, InterchangeMode, InterchangeSpec, Observation,
};
use mlir_rl_nn::{MaskedCategorical, Tensor2};
use mlir_rl_transforms::TransformationKind;

use crate::policy::ActionRecord;

/// The multi-discrete policy's heads, in construction, parameter,
/// gradient-summation and RNG-draw order: transformation selection, one
/// tile-size head per tiled transformation, and the interchange head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Head {
    Transformation,
    Tiling,
    Parallelization,
    Fusion,
    Interchange,
}

impl Head {
    /// The tile-size head of a tiled transformation kind.
    pub(crate) fn tiles_of(kind: TransformationKind) -> Self {
        match kind {
            TransformationKind::TiledParallelization => Self::Parallelization,
            TransformationKind::TiledFusion => Self::Fusion,
            _ => Self::Tiling,
        }
    }
}

/// Where a walk reads the logits of each head it visits.
pub(crate) trait HeadLogits {
    /// `head`'s logits.
    fn of(&mut self, head: Head) -> &[f64];
}

/// One item's rows of a batched forward pass, in [`Head`] order.
impl HeadLogits for [&[f64]; 5] {
    fn of(&mut self, head: Head) -> &[f64] {
        self[head as usize]
    }
}

/// One sub-decision of a walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// The transformation kind (the flat policy's whole action).
    Kind,
    /// The tile-size index of one loop level.
    Tile(usize),
    /// The enumerated interchange candidate.
    Candidate,
    /// The loop placed at one position of a level-pointer permutation.
    Pointer(usize),
}

/// What picks the index of each sub-decision.
pub(crate) trait Chooser {
    /// The index `dist` takes at `step`.
    fn choose(&mut self, step: Step, dist: &MaskedCategorical) -> usize;
}

/// Action selection: the argmax of each distribution with `greedy` (the RNG
/// is not touched), one sample each otherwise; the picks are kept for
/// [`Draw::record`].
pub(crate) struct Draw<'r, R> {
    greedy: bool,
    rng: &'r mut R,
    pub(crate) kind_index: usize,
    tile_indices: Vec<usize>,
    candidate: usize,
    pointers: Vec<usize>,
}

impl<'r, R: Rng> Draw<'r, R> {
    pub(crate) fn new(greedy: bool, rng: &'r mut R) -> Self {
        Self {
            greedy,
            rng,
            kind_index: 0,
            tile_indices: Vec::new(),
            candidate: 0,
            pointers: Vec::new(),
        }
    }

    /// The multi-discrete record of the picks, with the walk's `(log_prob,
    /// entropy)`.
    pub(crate) fn record(
        self,
        obs: &Observation,
        mode: InterchangeMode,
        (log_prob, entropy): (f64, f64),
    ) -> ActionRecord {
        let action = match TransformationKind::from_index(self.kind_index) {
            TransformationKind::Tiling => Action::Tiling {
                tile_indices: self.tile_indices.clone(),
            },
            TransformationKind::TiledParallelization => Action::TiledParallelization {
                tile_indices: self.tile_indices.clone(),
            },
            TransformationKind::TiledFusion => Action::TiledFusion {
                tile_indices: self.tile_indices.clone(),
            },
            TransformationKind::Interchange => Action::Interchange(match mode {
                InterchangeMode::EnumeratedCandidates => InterchangeSpec::Candidate(self.candidate),
                InterchangeMode::LevelPointers => {
                    // Loops beyond the head width keep their positions.
                    let mut permutation = self.pointers;
                    permutation.extend(permutation.len()..obs.num_loops);
                    InterchangeSpec::Permutation(permutation)
                }
            }),
            TransformationKind::Vectorization => Action::Vectorization,
            TransformationKind::NoTransformation => Action::NoTransformation,
        };
        let (interchange_candidate, interchange_permutation) = match &action {
            Action::Interchange(InterchangeSpec::Candidate(c)) => (Some(*c), None),
            Action::Interchange(InterchangeSpec::Permutation(p)) => (None, Some(p.clone())),
            _ => (None, None),
        };
        ActionRecord {
            action,
            kind_index: self.kind_index,
            tile_indices: self.tile_indices,
            interchange_candidate,
            interchange_permutation,
            log_prob,
            entropy,
        }
    }
}

impl<R: Rng> Chooser for &mut Draw<'_, R> {
    fn choose(&mut self, step: Step, dist: &MaskedCategorical) -> usize {
        let choice = if self.greedy {
            dist.argmax()
        } else {
            dist.sample(self.rng)
        };
        match step {
            Step::Kind => self.kind_index = choice,
            Step::Tile(_) => self.tile_indices.push(choice),
            Step::Candidate => self.candidate = choice,
            Step::Pointer(_) => self.pointers.push(choice),
        }
        choice
    }
}

/// Re-scoring: a kept record replays its own picks.
///
/// # Panics
///
/// Panics, naming the step, when the record does not fit the observation's
/// walk: a tile level, the candidate or a pointer it lacks, a pick outside
/// its distribution, or a loop placed twice.
impl Chooser for &ActionRecord {
    fn choose(&mut self, step: Step, dist: &MaskedCategorical) -> usize {
        let (picks, at) = match step {
            Step::Kind => (Some(slice::from_ref(&self.kind_index)), 0),
            Step::Tile(level) => (Some(self.tile_indices.as_slice()), level),
            Step::Candidate => (self.interchange_candidate.as_ref().map(slice::from_ref), 0),
            Step::Pointer(position) => (self.interchange_permutation.as_deref(), position),
        };
        let picks = picks.unwrap_or_default();
        let pick = *picks
            .get(at)
            .unwrap_or_else(|| panic!("replayed record has no {step:?} pick"));
        let repeated = matches!(step, Step::Pointer(_)) && picks[..at].contains(&pick);
        assert!(
            pick < dist.len() && !repeated,
            "replayed {step:?} pick {pick} is outside its {} choices or places a loop twice",
            dist.len()
        );
        pick
    }
}

/// One stretch of an item's head row that one distribution covers: its
/// logit gradients are written there, or added there when several tile
/// levels share a head row.
#[derive(Debug, Clone, Copy)]
struct Segment {
    item: usize,
    head: usize,
    start: usize,
    len: usize,
    accumulate: bool,
}

/// The logit gradients an evaluation keeps for the matching backward pass:
/// per segment, in walk order, its distribution's `d log_prob / d logits`
/// and `d entropy / d logits`, back to back in `dlogp` / `dh`. The backward
/// pass only weighs them ([`LogitFactors::weigh`]), so no distribution is
/// built twice.
#[derive(Debug, Clone, Default)]
pub(crate) struct LogitFactors {
    /// Items walked; the current walk's item is `rows - 1`.
    rows: usize,
    segments: Vec<Segment>,
    dlogp: Vec<f64>,
    dh: Vec<f64>,
}

impl LogitFactors {
    /// Starts the current item's next segment.
    fn open(&mut self, head: usize, start: usize, len: usize, accumulate: bool) {
        let item = self.rows - 1;
        self.segments.push(Segment {
            item,
            head,
            start,
            len,
            accumulate,
        });
    }

    /// The factors of the latest un-consumed evaluation on `pending`, for a
    /// backward call over `items` items with `coeffs` coefficient pairs;
    /// `None` for an empty batch, whose evaluation kept nothing.
    ///
    /// # Panics
    ///
    /// Panics if no evaluation is pending or the counts differ from it.
    pub(crate) fn pop(pending: &mut Vec<Self>, items: usize, coeffs: usize) -> Option<Self> {
        if items == 0 {
            assert_eq!(coeffs, 0, "coefficient count mismatch");
            return None;
        }
        let factors = pending
            .pop()
            .expect("backward_batch called without a matching evaluate_batch");
        assert_eq!(items, factors.rows, "batch mismatch");
        assert_eq!(items, coeffs, "coefficient count mismatch");
        Some(factors)
    }

    /// Writes each segment's `coeff_logprob * dlogp + coeff_entropy * dh`
    /// into its item's row of `grads[head]` — added for a tile level —
    /// in walk order, with `coeffs[item] = (coeff_logprob, coeff_entropy)`.
    pub(crate) fn weigh(&self, coeffs: &[(f64, f64)], grads: &mut [Tensor2]) {
        let mut at = 0;
        for segment in &self.segments {
            let (coeff_logprob, coeff_entropy) = coeffs[segment.item];
            let row = grads[segment.head].row_mut(segment.item);
            let weighed = self.dlogp[at..].iter().zip(&self.dh[at..]);
            for (slot, (lp, eg)) in row[segment.start..segment.start + segment.len]
                .iter_mut()
                .zip(weighed)
            {
                let g = coeff_logprob * lp + coeff_entropy * eg;
                if segment.accumulate {
                    *slot += g;
                } else {
                    *slot = g;
                }
            }
            at += segment.len;
        }
    }
}

/// One pass over an observation's sub-decisions.
pub(crate) struct Walk<'k, C> {
    chooser: C,
    /// Where a re-scoring walk keeps its factors, as their next item;
    /// `None` when selecting.
    kept: Option<&'k mut LogitFactors>,
    log_prob: f64,
    entropy: f64,
}

impl<'k, C: Chooser> Walk<'k, C> {
    pub(crate) fn new(chooser: C, mut kept: Option<&'k mut LogitFactors>) -> Self {
        if let Some(kept) = &mut kept {
            kept.rows += 1;
        }
        // `-0.0` is the additive identity: the first term keeps its bits.
        Self {
            chooser,
            kept,
            log_prob: -0.0,
            entropy: -0.0,
        }
    }

    /// The flat policy's action, one decision over its whole action list
    /// (`logits` under `mask`): `(log_prob, entropy)`.
    pub(crate) fn flat(mut self, logits: &[f64], mask: &[bool]) -> (f64, f64) {
        let dist = MaskedCategorical::new(logits, mask);
        self.categorical(Step::Kind, &dist, 0, 0, false);
        (self.log_prob, self.entropy)
    }

    /// The multi-discrete action over `logits`' heads: the kind, then its
    /// tile levels or its interchange. Returns `(log_prob, entropy)`.
    pub(crate) fn action(
        mut self,
        config: &EnvConfig,
        obs: &Observation,
        logits: &mut impl HeadLogits,
    ) -> (f64, f64) {
        let (n, mask) = (obs.num_loops, &obs.mask);
        let kinds = MaskedCategorical::new(logits.of(Head::Transformation), &mask.transformation);
        let kind = self.categorical(Step::Kind, &kinds, Head::Transformation as usize, 0, false);
        let kind = TransformationKind::from_index(kind);
        if kind.is_tiled() {
            let head = Head::tiles_of(kind);
            let rows = logits.of(head);
            let m = config.num_tile_candidates();
            for level in 0..n {
                // Operations deeper than `max_loops` share the last head row
                // (the representation is truncated to `max_loops` anyway);
                // their gradients add up there.
                let start = level.min(config.max_loops - 1) * m;
                let dist = MaskedCategorical::new(&rows[start..start + m], mask.tile_row(level));
                self.categorical(Step::Tile(level), &dist, head as usize, start, true);
            }
        } else if kind == TransformationKind::Interchange {
            let scores = logits.of(Head::Interchange);
            match config.interchange_mode {
                InterchangeMode::EnumeratedCandidates => {
                    // Every candidate is legal once interchange is.
                    let len = num_enumerated_candidates(n).max(1).min(scores.len());
                    let dist = MaskedCategorical::from_logits(&scores[..len]);
                    let head = Head::Interchange as usize;
                    self.categorical(Step::Candidate, &dist, head, 0, false);
                }
                InterchangeMode::LevelPointers => self.pointers(&scores[..n.min(scores.len())]),
            }
        }
        (self.log_prob, self.entropy)
    }

    /// One categorical sub-decision whose logits sit in `head`'s row from
    /// `start`: its factors are written there, or added with `accumulate`.
    fn categorical(
        &mut self,
        step: Step,
        dist: &MaskedCategorical,
        head: usize,
        start: usize,
        accumulate: bool,
    ) -> usize {
        let choice = self.chooser.choose(step, dist);
        let entropy = dist.entropy();
        self.log_prob += dist.log_prob(choice);
        self.entropy += entropy;
        if let Some(kept) = &mut self.kept {
            kept.open(head, start, dist.len(), accumulate);
            dist.log_prob_grad(choice, &mut kept.dlogp);
            dist.entropy_grad(entropy, &mut kept.dh);
        }
        choice
    }

    /// The level-pointer interchange: position by position, one loop from
    /// the masked softmax of `scores` over the loops not yet placed (a
    /// Plackett–Luce distribution over permutations, covering all `N!`
    /// orders with `N` outputs). Its log-probability, entropy and
    /// log-probability gradient are each summed over the sub-steps from
    /// `+0.0` before joining the action's; the gradient is kept as one
    /// segment whose entropy factor is `0.0`.
    fn pointers(&mut self, scores: &[f64]) {
        let len = scores.len();
        let mut remaining = vec![true; len];
        let (mut log_prob, mut entropy) = (0.0, 0.0);
        if let Some(kept) = &mut self.kept {
            kept.open(Head::Interchange as usize, 0, len, false);
            kept.dlogp.resize(kept.dlogp.len() + len, 0.0);
            kept.dh.resize(kept.dh.len() + len, 0.0);
        }
        for position in 0..len {
            let dist = MaskedCategorical::new(scores, &remaining);
            let choice = self.chooser.choose(Step::Pointer(position), &dist);
            log_prob += dist.log_prob(choice);
            entropy += dist.entropy();
            if let Some(kept) = &mut self.kept {
                let end = kept.dlogp.len();
                dist.log_prob_grad(choice, &mut kept.dlogp);
                let (sums, step) = kept.dlogp.split_at_mut(end);
                for (sum, g) in sums[end - len..].iter_mut().zip(step) {
                    *sum += *g;
                }
                kept.dlogp.truncate(end);
            }
            remaining[choice] = false;
        }
        self.log_prob += log_prob;
        self.entropy += entropy;
    }
}

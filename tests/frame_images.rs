//! One corruption battery over both framed images (`mlir_rl_ir::frame`):
//! the cost-model cache's `MLRC` snapshot and the networks' `MLRW` weight
//! snapshot. Whatever happens to an image — cut at any length, any byte
//! flipped, or a *validly sealed* frame with the wrong magic, the wrong
//! version, a payload one byte short or long, or a count field claiming far
//! more than the image holds — the decoder answers `Err`, never panics, and
//! leaves its target exactly as it was. A property test then feeds both
//! decoders random payloads and field-level edits of valid ones, resealed
//! under the right magic and version so that they pass `frame::open`: each
//! may be accepted or refused, but never panics, and a refusal writes
//! nothing.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::WeightSnapshot;
use mlir_rl_costmodel::{schedule_key, CostModel, MachineModel, SharedEvalCache};
use mlir_rl_ir::{frame, ModuleBuilder};
use mlir_rl_nn::Param;
use mlir_rl_transforms::ScheduledModule;

/// Every damaged variant of `good`. `counts` lists the `(offset, width)` of
/// the image's declared-count fields.
fn corruptions(good: &[u8], counts: &[(usize, usize)]) -> Vec<(String, Vec<u8>)> {
    let body = &good[..good.len() - 8];
    let resealed = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut body = body.to_vec();
        edit(&mut body);
        frame::seal(body)
    };
    let mut out = Vec::new();
    for len in 0..good.len() {
        out.push((format!("cut at {len}"), good[..len].to_vec()));
    }
    for at in 0..good.len() {
        let mut flipped = good.to_vec();
        flipped[at] ^= 0xFF;
        out.push((format!("flip at {at}"), flipped));
    }
    out.push(("wrong magic".into(), resealed(&|b| b[0] ^= 0x20)));
    out.push(("wrong version".into(), resealed(&|b| b[4] += 1)));
    out.push(("payload one byte long".into(), resealed(&|b| b.push(0))));
    out.push((
        "payload one byte short".into(),
        resealed(&|b| {
            b.pop();
        }),
    ));
    for &(offset, width) in counts {
        out.push((
            format!("count at {offset} over-long"),
            resealed(&|b| b[offset..offset + width].fill(0xFF)),
        ));
    }
    out
}

/// A table holding the estimates of three matmuls.
fn three_entry_table() -> SharedEvalCache {
    let cm = CostModel::new(MachineModel::default());
    let table = SharedEvalCache::new(64);
    for size in [16, 32, 48] {
        let mut b = ModuleBuilder::new("frame_test");
        let a = b.argument("A", vec![size, size]);
        let w = b.argument("B", vec![size, size]);
        b.matmul(a, w);
        let sm = ScheduledModule::new(b.finish());
        table.total_s_keyed(schedule_key(&sm), &cm, &sm);
    }
    table
}

#[test]
fn a_damaged_cache_image_is_refused_and_the_table_untouched() {
    let good = three_entry_table().to_snapshot_bytes();
    // Entry count after the header; the first entry's per-op count after
    // its key (16), hits (8), segment (1) and total (8).
    let damaged = corruptions(&good, &[(8, 8), (16 + 33, 8)]);
    assert!(damaged.len() > 2 * good.len());

    let target = SharedEvalCache::new(64);
    for (what, bytes) in damaged {
        assert!(target.restore_from_bytes(&bytes).is_err(), "{what}");
        assert!(target.is_empty(), "{what}: a refused restore wrote entries");
    }
    assert_eq!(target.restore_from_bytes(&good).expect("the good image"), 3);
}

/// Two bare tensors: the smallest thing that has a weight image.
struct Pair([Param; 2]);

impl WeightSnapshot for Pair {
    fn snapshot_params(&mut self) -> Vec<&mut Param> {
        self.0.iter_mut().collect()
    }
}

/// A pair with distinct, sign- and subnormal-carrying weights.
fn weighted_pair() -> Pair {
    let mut pair = Pair([Param::zeros(1, 2), Param::zeros(2, 1)]);
    pair.0[0].set_value(vec![1.5, -0.0]);
    pair.0[1].set_value(vec![-2.25, f64::MIN_POSITIVE]);
    pair
}

#[test]
fn a_damaged_weight_image_is_refused_and_the_network_untouched() {
    let mut source = weighted_pair();
    let good = source.weights_to_bytes();
    // Tensor count after the header, then the first tensor's rows and cols.
    let damaged = corruptions(&good, &[(8, 4), (12, 4), (16, 4)]);

    let mut target = Pair([Param::zeros(1, 2), Param::zeros(2, 1)]);
    let before = target.weights_fingerprint();
    for (what, bytes) in damaged {
        assert!(target.restore_weights(&bytes).is_err(), "{what}");
        assert_eq!(target.weights_fingerprint(), before, "{what}");
    }
    target.restore_weights(&good).expect("the good image");
    assert_eq!(target.weights_fingerprint(), source.weights_fingerprint());
}

/// The `(offset, width)` of every field of a cache payload: the entry
/// count, then per entry its key halves, hit count, segment tag, total and
/// per-op count (and the 40-byte per-op records that count announces).
fn cache_fields(payload: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = vec![(0, 8)];
    let mut at = 8;
    while at + 41 <= payload.len() {
        for width in [8, 8, 8, 1, 8, 8] {
            fields.push((at, width));
            at += width;
        }
        let per_op = u64::from_le_bytes(payload[at - 8..at].try_into().unwrap());
        for _ in 0..per_op {
            fields.push((at, 40));
            at += 40;
        }
    }
    fields
}

/// The `(offset, width)` of every field of a weight payload: the tensor
/// count, then per tensor its rows, its cols and each value.
fn weight_fields(payload: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = vec![(0, 4)];
    let mut at = 4;
    while at + 8 <= payload.len() {
        let dim = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let values = dim(at) * dim(at + 4);
        fields.push((at, 4));
        fields.push((at + 4, 4));
        at += 8;
        for _ in 0..values {
            fields.push((at, 8));
            at += 8;
        }
    }
    fields
}

/// A payload derived from `good`'s and resealed under `good`'s magic and
/// version: one case in eight is random bytes; the others apply one to four
/// edits to the fields `fields` finds — a field overwritten with a random
/// value, zero, all ones or its value plus or minus one, dropped,
/// duplicated, or followed by random bytes, or the payload cut at a field
/// boundary. Edits after the first may land off the original boundaries,
/// which only widens what is tried.
fn resealed_variant(
    good: &[u8],
    fields: fn(&[u8]) -> Vec<(usize, usize)>,
    rng: &mut ChaCha8Rng,
) -> Vec<u8> {
    let (header, rest) = good.split_at(8);
    let mut payload = rest[..rest.len() - 8].to_vec();
    if rng.gen_range(0..8) == 0 {
        let len = rng.gen_range(0..96);
        payload = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
    } else {
        let fields = fields(&payload);
        for _ in 0..rng.gen_range(1..5) {
            let (at, width) = fields[rng.gen_range(0..fields.len())];
            if at + width > payload.len() {
                continue;
            }
            let field = &mut payload[at..at + width];
            match rng.gen_range(0..8) {
                0 => field.iter_mut().for_each(|b| *b = rng.gen::<u32>() as u8),
                1 => field.fill(0),
                2 => field.fill(0xFF),
                3 | 4 => {
                    // Little-endian plus or minus one, wrapping.
                    let (carry, step) = if rng.gen_bool(0.5) {
                        (0xFF, 1u8)
                    } else {
                        (0x00, 0xFF)
                    };
                    for b in field.iter_mut() {
                        let before = *b;
                        *b = b.wrapping_add(step);
                        if before != carry {
                            break;
                        }
                    }
                }
                5 => {
                    payload.drain(at..at + width);
                }
                6 => {
                    let copy = payload[at..at + width].to_vec();
                    payload.splice(at..at, copy);
                }
                _ => {
                    if rng.gen_bool(0.5) {
                        payload.truncate(at);
                    } else {
                        let extra: Vec<u8> = (0..rng.gen_range(1..48))
                            .map(|_| rng.gen::<u32>() as u8)
                            .collect();
                        payload.splice(at + width..at + width, extra);
                    }
                }
            }
        }
    }
    let mut body = header.to_vec();
    body.extend_from_slice(&payload);
    frame::seal(body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A cache image that passes the frame check restores or is refused;
    /// a refused one leaves the table's entries exactly as they were.
    #[test]
    fn a_resealed_cache_payload_restores_or_leaves_the_table(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let good = three_entry_table().to_snapshot_bytes();
        let image = resealed_variant(&good, cache_fields, &mut rng);
        let magic: [u8; 4] = good[..4].try_into().unwrap();
        let version = u32::from_le_bytes(good[4..8].try_into().unwrap());
        prop_assert!(frame::open(&image, magic, version).is_ok());

        let target = three_entry_table();
        let before = target.to_snapshot_bytes();
        if target.restore_from_bytes(&image).is_err() {
            prop_assert_eq!(target.to_snapshot_bytes(), before);
        }
    }

    /// A weight image that passes the frame check restores or is refused;
    /// a refused one leaves every weight as it was, and an accepted one
    /// is what the network then writes back.
    #[test]
    fn a_resealed_weight_payload_restores_or_leaves_the_network(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let good = weighted_pair().weights_to_bytes();
        let image = resealed_variant(&good, weight_fields, &mut rng);
        let magic: [u8; 4] = good[..4].try_into().unwrap();
        let version = u32::from_le_bytes(good[4..8].try_into().unwrap());
        prop_assert!(frame::open(&image, magic, version).is_ok());

        let mut target = weighted_pair();
        let before = target.weights_fingerprint();
        match target.restore_weights(&image) {
            Ok(()) => prop_assert_eq!(target.weights_to_bytes(), image),
            Err(_) => prop_assert_eq!(target.weights_fingerprint(), before),
        }
    }
}

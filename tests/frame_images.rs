//! One corruption battery over both framed images (`mlir_rl_ir::frame`):
//! the cost-model cache's `MLRC` snapshot and the networks' `MLRW` weight
//! snapshot. Whatever happens to an image — cut at any length, any byte
//! flipped, or a *validly sealed* frame with the wrong magic, the wrong
//! version, a payload one byte short or long, or a count field claiming far
//! more than the image holds — the decoder answers `Err`, never panics, and
//! leaves its target exactly as it was.

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

#[test]
fn a_damaged_cache_image_is_refused_and_the_table_untouched() {
    let cm = CostModel::new(MachineModel::default());
    let source = SharedEvalCache::new(64);
    for size in [16, 32, 48] {
        let mut b = ModuleBuilder::new("frame_test");
        let a = b.argument("A", vec![size, size]);
        let w = b.argument("B", vec![size, size]);
        b.matmul(a, w);
        let sm = ScheduledModule::new(b.finish());
        source.total_s_keyed(schedule_key(&sm), &cm, &sm);
    }
    let good = source.to_snapshot_bytes();
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

#[test]
fn a_damaged_weight_image_is_refused_and_the_network_untouched() {
    let mut source = Pair([Param::zeros(1, 2), Param::zeros(2, 1)]);
    source.0[0].set_value(vec![1.5, -0.0]);
    source.0[1].set_value(vec![-2.25, f64::MIN_POSITIVE]);
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

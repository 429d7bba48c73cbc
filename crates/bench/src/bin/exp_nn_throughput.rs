//! Prints the batched-inference experiment: rows/sec for batched
//! (blocked-matmul) vs per-vector forward, scratch inference and backward
//! on the MLP backbone and the embedding LSTM, at PPO/beam-realistic layer
//! shapes and batch sizes. Both sides of every comparison compute
//! bit-identical results, so the ratios are pure engine throughput. Also
//! runs the LSTM at its deployed input shape (3252 features) on real reset
//! observations next to dense random vectors of that shape.
//!
//! Scale with `MLIR_RL_SCALE` (`smoke` / `standard` / `full`) or pass
//! `--smoke`. `--json` prints the machine-readable report instead.

use mlir_rl_bench::{cli, nn_throughput};

fn main() {
    let args = cli::parse(
        "exp_nn_throughput",
        cli::Accepts {
            json: true,
            trace: false,
        },
    );
    let report = nn_throughput(&args.scale());
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
}

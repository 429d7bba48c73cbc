//! # mlir-rl-ir
//!
//! A miniature, self-contained re-implementation of the MLIR **Linalg**
//! dialect structures that the MLIR RL paper's environment operates on:
//! affine indexing maps, ranked tensor types, structured operations with
//! iteration domains and iterator types, and modules (sequences of
//! operations connected by SSA values), plus a textual printer/parser.
//!
//! This crate is the substrate on which the rest of the reproduction is
//! built: the `mlir-rl-transforms` crate applies loop transformations to
//! these operations, `mlir-rl-costmodel` estimates their execution time, and
//! `mlir-rl-env` exposes them to a reinforcement-learning agent.
//!
//! ## Example
//!
//! ```
//! use mlir_rl_ir::builder::ModuleBuilder;
//! use mlir_rl_ir::printer::print_module;
//!
//! // Build the paper's running example: a 256x1024 by 1024x512 matmul.
//! let mut b = ModuleBuilder::new("main");
//! let a = b.argument("A", vec![256, 1024]);
//! let w = b.argument("B", vec![1024, 512]);
//! let _c = b.matmul(a, w);
//! let module = b.finish();
//!
//! module.validate()?;
//! assert!(print_module(&module).contains("linalg.matmul"));
//! # Ok::<(), mlir_rl_ir::IrError>(())
//! ```

#![warn(missing_docs)]

pub mod affine;
pub mod builder;
pub mod error;
pub mod fnv;
pub mod frame;
pub mod module;
pub mod op;
pub mod parser;
pub mod printer;
pub mod types;

pub use affine::{AccessMatrix, AffineExpr, AffineMap};
pub use builder::ModuleBuilder;
pub use error::IrError;
pub use fnv::Fnv1a;
pub use module::{Module, Value, ValueDef};
pub use op::{ArithCounts, IteratorType, LinalgOp, OpCategory, OpId, OpKind, ValueId};
pub use types::{ElementType, TensorType};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_reexports_are_usable() {
        let mut b = ModuleBuilder::new("smoke");
        let x = b.argument("x", vec![8, 8]);
        let y = b.argument("y", vec![8, 8]);
        b.add(x, y);
        let m = b.finish();
        assert!(m.validate().is_ok());
        assert_eq!(m.ops()[0].kind, OpKind::Add);
    }
}

//! Textual printer for modules, in an MLIR-flavoured syntax.
//!
//! The format round-trips through [`crate::parser::parse_module`] and is the
//! on-disk representation used by the dataset generators.

use std::fmt::Write as _;

use crate::module::Module;
use crate::op::LinalgOp;

/// Prints a whole module.
///
/// # Examples
///
/// ```
/// use mlir_rl_ir::builder::ModuleBuilder;
/// use mlir_rl_ir::printer::print_module;
///
/// let mut b = ModuleBuilder::new("f");
/// let a = b.argument("A", vec![4, 8]);
/// let w = b.argument("B", vec![8, 2]);
/// b.matmul(a, w);
/// let text = print_module(&b.finish());
/// assert!(text.contains("linalg.matmul"));
/// ```
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    write!(out, "func @{}(", module.name()).expect("write to string");
    let args = module.arguments();
    for (i, arg) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "%{}: {}", arg.name, arg.ty).expect("write to string");
    }
    out.push_str(") {\n");
    for op in module.ops() {
        print_op(module, op, &mut out);
    }
    out.push_str("}\n");
    out
}

fn value_name(module: &Module, id: crate::op::ValueId) -> String {
    match module.value(id) {
        Ok(v) => format!("%{}", v.name),
        Err(_) => format!("%<unknown:{}>", id.0),
    }
}

fn print_op(module: &Module, op: &LinalgOp, out: &mut String) {
    let result_name = value_name(module, op.result);
    writeln!(out, "  {} = {}", result_name, op.kind).expect("write to string");

    // Iterator types.
    out.push_str("    iterators = [");
    for (i, it) in op.iterator_types.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{it}\"").expect("write to string");
    }
    out.push_str("]\n");

    // Loop bounds.
    out.push_str("    bounds = [");
    for (i, bnd) in op.loop_bounds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{bnd}").expect("write to string");
    }
    out.push_str("]\n");

    // Indexing maps.
    out.push_str("    maps = [");
    for (i, map) in op.indexing_maps.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{map}").expect("write to string");
    }
    out.push_str("]\n");

    // Arithmetic counts (only the non-zero ones).
    out.push_str("    arith = {");
    let mut first = true;
    let field = |name: &str, value: u32, out: &mut String, first: &mut bool| {
        if value > 0 {
            if !*first {
                out.push_str(", ");
            }
            write!(out, "{name} = {value}").expect("write to string");
            *first = false;
        }
    };
    field("add", op.arith.add, out, &mut first);
    field("sub", op.arith.sub, out, &mut first);
    field("mul", op.arith.mul, out, &mut first);
    field("div", op.arith.div, out, &mut first);
    field("exp", op.arith.exp, out, &mut first);
    field("max", op.arith.max, out, &mut first);
    out.push_str("}\n");

    // Operands.
    out.push_str("    ins(");
    for (i, (input, ty)) in op.inputs.iter().zip(&op.input_types).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{} : {}", value_name(module, *input), ty).expect("write to string");
    }
    out.push_str(")\n");
    writeln!(out, "    outs({})", op.result_type).expect("write to string");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn sample() -> Module {
        let mut b = ModuleBuilder::new("sample");
        let a = b.argument("A", vec![256, 1024]);
        let w = b.argument("B", vec![1024, 512]);
        let c = b.matmul(a, w);
        b.relu(c);
        b.finish()
    }

    #[test]
    fn printed_module_contains_all_sections() {
        let text = print_module(&sample());
        assert!(text.starts_with("func @sample(%A: tensor<256x1024xf32>"));
        assert!(text.contains("linalg.matmul"));
        assert!(text.contains("linalg.relu"));
        assert!(text.contains("iterators = [\"parallel\", \"parallel\", \"reduction\"]"));
        assert!(text.contains("bounds = [256, 512, 1024]"));
        assert!(text.contains("affine_map<(d0, d1, d2) -> (d0, d2)>"));
        assert!(text.contains("arith = {add = 1, mul = 1}"));
        assert!(text.contains("ins(%A : tensor<256x1024xf32>, %B : tensor<1024x512xf32>)"));
        assert!(text.contains("outs(tensor<256x512xf32>)"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn print_single_op() {
        let m = sample();
        let mut text = String::new();
        print_op(&m, &m.ops()[0], &mut text);
        assert!(text.starts_with("  %t0 = linalg.matmul\n"));
        assert!(print_module(&m).contains(&text));
    }
}

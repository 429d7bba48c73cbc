//! Parser for the textual module format produced by [`crate::printer`].
//!
//! The grammar is a small, line-oriented subset of MLIR syntax sufficient to
//! round-trip the modules this project generates. Parsing is intentionally
//! strict: malformed input produces an [`IrError::Parse`] with the offending
//! line number.

use crate::affine::{AffineExpr, AffineMap};
use crate::error::IrError;
use crate::module::{Module, ValueDef};
use crate::op::{ArithCounts, IteratorType, LinalgOp, OpId, OpKind, ValueId};
use crate::types::TensorType;

/// Parses a module printed by [`crate::printer::print_module`].
///
/// # Errors
///
/// Returns [`IrError::Parse`] (with a line number) on malformed input, or
/// other [`IrError`] variants if the parsed module fails validation.
///
/// # Examples
///
/// ```
/// use mlir_rl_ir::builder::ModuleBuilder;
/// use mlir_rl_ir::{parser::parse_module, printer::print_module};
///
/// let mut b = ModuleBuilder::new("f");
/// let a = b.argument("A", vec![4, 8]);
/// let w = b.argument("B", vec![8, 2]);
/// b.matmul(a, w);
/// let original = b.finish();
/// let reparsed = parse_module(&print_module(&original)).unwrap();
/// assert_eq!(reparsed.ops().len(), 1);
/// ```
pub fn parse_module(text: &str) -> Result<Module, IrError> {
    let mut parser = Parser::new(text);
    let module = parser.parse_module()?;
    module.validate()?;
    Ok(module)
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with("//"))
            .collect();
        Self { lines, pos: 0 }
    }

    fn err(&self, line: usize, message: impl Into<String>) -> IrError {
        IrError::Parse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn expect_line_starting(&mut self, prefix: &str) -> Result<(usize, &'a str), IrError> {
        match self.next_line() {
            Some((n, l)) if l.starts_with(prefix) => Ok((n, l)),
            Some((n, l)) => Err(self.err(n, format!("expected `{prefix}...`, got `{l}`"))),
            None => Err(self.err(0, format!("unexpected end of input, expected `{prefix}`"))),
        }
    }

    fn parse_module(&mut self) -> Result<Module, IrError> {
        let (line_no, header) = self.expect_line_starting("func @")?;
        let rest = &header["func @".len()..];
        let open = rest
            .find('(')
            .ok_or_else(|| self.err(line_no, "expected `(` after function name"))?;
        let name = &rest[..open];
        let close = rest
            .rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| self.err(line_no, "expected `)` closing the argument list"))?;
        let args_text = &rest[open + 1..close];
        if !rest[close..].contains('{') {
            return Err(self.err(line_no, "expected `{` opening the function body"));
        }

        let mut module = Module::new(name);
        // name -> ValueId environment for operand references.
        let mut env: Vec<(String, ValueId)> = Vec::new();

        for arg in split_top_level(args_text, ',') {
            let arg = arg.trim();
            if arg.is_empty() {
                continue;
            }
            let (argname, ty) = arg
                .split_once(':')
                .ok_or_else(|| self.err(line_no, format!("malformed argument `{arg}`")))?;
            let argname = argname
                .trim()
                .strip_prefix('%')
                .ok_or_else(|| self.err(line_no, format!("argument `{arg}` must start with %")))?;
            let ty = TensorType::parse(ty.trim())?;
            let id = module.add_value(ty, ValueDef::Argument, argname);
            env.push((argname.to_string(), id));
        }

        loop {
            match self.peek() {
                None => return Err(self.err(0, "unexpected end of input, expected `}`")),
                Some((_, "}")) => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let (result_name, op) = self.parse_op(&module, &env)?;
                    let id = module.add_op(op, result_name.clone());
                    let result = module.op(id).expect("op just added").result;
                    env.push((result_name, result));
                }
            }
        }
        Ok(module)
    }

    fn lookup(
        &self,
        env: &[(String, ValueId)],
        line: usize,
        name: &str,
    ) -> Result<ValueId, IrError> {
        env.iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, id)| *id)
            .ok_or_else(|| self.err(line, format!("use of undefined value %{name}")))
    }

    fn parse_op(
        &mut self,
        module: &Module,
        env: &[(String, ValueId)],
    ) -> Result<(String, LinalgOp), IrError> {
        // Header: `%t0 = linalg.matmul`
        let (line_no, header) = self
            .next_line()
            .ok_or_else(|| self.err(0, "unexpected end of input, expected operation"))?;
        let (result, kind_text) = header.split_once('=').ok_or_else(|| {
            self.err(
                line_no,
                format!("expected `%result = linalg...`, got `{header}`"),
            )
        })?;
        let result_name = result
            .trim()
            .strip_prefix('%')
            .ok_or_else(|| self.err(line_no, "operation result must start with %"))?
            .to_string();
        let kind = OpKind::parse(kind_text.trim()).map_err(|e| match e {
            IrError::Parse { message, .. } => self.err(line_no, message),
            other => other,
        })?;

        // iterators = [...]
        let (itl, iter_line) = self.expect_line_starting("iterators = [")?;
        let iterators = bracket_contents(iter_line)
            .ok_or_else(|| self.err(itl, "malformed iterator list"))?
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(IteratorType::parse)
            .collect::<Result<Vec<_>, _>>()?;

        // bounds = [...]
        let (bl, bounds_line) = self.expect_line_starting("bounds = [")?;
        let loop_bounds = bracket_contents(bounds_line)
            .ok_or_else(|| self.err(bl, "malformed bounds list"))?
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| self.err(bl, format!("invalid loop bound `{s}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        // maps = [...]
        let (ml, maps_line) = self.expect_line_starting("maps = [")?;
        let maps_inner =
            bracket_contents(maps_line).ok_or_else(|| self.err(ml, "malformed maps list"))?;
        let mut indexing_maps = Vec::new();
        for map_text in split_top_level(maps_inner, ',') {
            let map_text = map_text.trim();
            if map_text.is_empty() {
                continue;
            }
            indexing_maps.push(parse_affine_map(map_text).map_err(|e| match e {
                IrError::Parse { message, .. } => self.err(ml, message),
                other => other,
            })?);
        }

        // arith = {...}
        let (al, arith_line) = self.expect_line_starting("arith = {")?;
        let arith_inner = arith_line
            .strip_prefix("arith = {")
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| self.err(al, "malformed arith block"))?;
        let mut arith = ArithCounts::default();
        for entry in arith_inner.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (k, v) = entry
                .split_once('=')
                .ok_or_else(|| self.err(al, format!("malformed arith entry `{entry}`")))?;
            let v: u32 = v
                .trim()
                .parse()
                .map_err(|_| self.err(al, format!("invalid arith count `{entry}`")))?;
            match k.trim() {
                "add" => arith.add = v,
                "sub" => arith.sub = v,
                "mul" => arith.mul = v,
                "div" => arith.div = v,
                "exp" => arith.exp = v,
                "max" => arith.max = v,
                other => return Err(self.err(al, format!("unknown arith op `{other}`"))),
            }
        }

        // ins(...)
        let (il, ins_line) = self.expect_line_starting("ins(")?;
        let ins_inner = ins_line
            .strip_prefix("ins(")
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| self.err(il, "malformed ins(...) clause"))?;
        let mut inputs = Vec::new();
        let mut input_types = Vec::new();
        for operand in split_top_level(ins_inner, ',') {
            let operand = operand.trim();
            if operand.is_empty() {
                continue;
            }
            let (name, ty) = operand
                .split_once(':')
                .ok_or_else(|| self.err(il, format!("malformed operand `{operand}`")))?;
            let name = name
                .trim()
                .strip_prefix('%')
                .ok_or_else(|| self.err(il, format!("operand `{operand}` must start with %")))?;
            inputs.push(self.lookup(env, il, name)?);
            input_types.push(TensorType::parse(ty.trim())?);
        }

        // outs(...)
        let (ol, outs_line) = self.expect_line_starting("outs(")?;
        let outs_inner = outs_line
            .strip_prefix("outs(")
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| self.err(ol, "malformed outs(...) clause"))?;
        let result_type = TensorType::parse(outs_inner.trim())?;

        let _ = module; // reserved for future cross-checking against the module
        let op = LinalgOp {
            id: OpId(0),
            kind,
            iterator_types: iterators,
            loop_bounds,
            inputs,
            input_types,
            result: ValueId(0),
            result_type,
            indexing_maps,
            arith,
        };
        Ok((result_name, op))
    }
}

/// Extracts the contents between the first `[` and the last `]`.
fn bracket_contents(line: &str) -> Option<&str> {
    let start = line.find('[')?;
    let end = line.rfind(']')?;
    if end < start {
        return None;
    }
    Some(&line[start + 1..end])
}

/// Splits on `sep` but ignores separators nested inside `(`, `<` or `[`.
/// The arrow token `->` is not treated as a closing bracket.
fn split_top_level(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut prev = '\0';
    for (i, c) in text.char_indices() {
        match c {
            '(' | '<' | '[' | '{' => depth += 1,
            '>' if prev == '-' => {} // the `->` arrow, not a bracket
            ')' | '>' | ']' | '}' => depth -= 1,
            c if c == sep && depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev = c;
    }
    parts.push(&text[start..]);
    parts
}

/// Parses `affine_map<(d0, d1) -> (d0 + 1, 3 * d1)>`.
///
/// # Errors
///
/// Returns [`IrError::Parse`] on malformed maps.
pub fn parse_affine_map(text: &str) -> Result<AffineMap, IrError> {
    let inner = text
        .trim()
        .strip_prefix("affine_map<")
        .and_then(|s| s.strip_suffix('>'))
        .ok_or_else(|| IrError::Parse {
            line: 0,
            message: format!("expected `affine_map<...>`, got `{text}`"),
        })?;
    let (dims_part, results_part) = inner.split_once("->").ok_or_else(|| IrError::Parse {
        line: 0,
        message: format!("expected `->` in affine map `{text}`"),
    })?;
    let dims_part = dims_part.trim();
    let dims_inner = dims_part
        .strip_prefix('(')
        .and_then(|s| s.trim_end().strip_suffix(')'))
        .ok_or_else(|| IrError::Parse {
            line: 0,
            message: format!("malformed dimension list in `{text}`"),
        })?;
    let num_dims = dims_inner
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .count();
    let results_part = results_part.trim();
    let results_inner = results_part
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| IrError::Parse {
            line: 0,
            message: format!("malformed result list in `{text}`"),
        })?;
    let mut results = Vec::new();
    for expr_text in split_top_level(results_inner, ',') {
        let expr_text = expr_text.trim();
        if expr_text.is_empty() {
            continue;
        }
        results.push(parse_affine_expr(expr_text)?);
    }
    AffineMap::new(num_dims, results)
}

/// Parses a single affine expression: a sum/difference of terms, each either
/// a constant, `dN`, or `C * dN`.
///
/// # Errors
///
/// Returns [`IrError::Parse`] on malformed expressions.
pub fn parse_affine_expr(text: &str) -> Result<AffineExpr, IrError> {
    // Tokenize into signed terms.
    let text = text.trim();
    if text.is_empty() {
        return Err(IrError::Parse {
            line: 0,
            message: "empty affine expression".into(),
        });
    }
    let mut terms: Vec<(i64, &str)> = Vec::new(); // (sign, term text)
    let mut current_start = 0usize;
    let mut sign = 1i64;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let mut pending_sign = 1i64;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if (c == '+' || c == '-') && i > current_start {
            let term = text[current_start..i].trim();
            if !term.is_empty() {
                terms.push((sign * pending_sign, term));
            }
            sign = if c == '-' { -1 } else { 1 };
            pending_sign = 1;
            current_start = i + 1;
        } else if (c == '-') && i == current_start {
            // Leading minus of the very first term.
            pending_sign = -1;
            current_start = i + 1;
        }
        i += 1;
    }
    let last = text[current_start..].trim();
    if !last.is_empty() {
        terms.push((sign * pending_sign, last));
    }

    let mut expr: Option<AffineExpr> = None;
    for (term_sign, term) in terms {
        let parsed = parse_affine_term(term)?;
        let signed = if term_sign < 0 {
            AffineExpr::Mul(Box::new(parsed), -1)
        } else {
            parsed
        };
        expr = Some(match expr {
            None => signed,
            Some(e) => AffineExpr::Add(Box::new(e), Box::new(signed)),
        });
    }
    expr.ok_or_else(|| IrError::Parse {
        line: 0,
        message: format!("could not parse affine expression `{text}`"),
    })
}

fn parse_affine_term(term: &str) -> Result<AffineExpr, IrError> {
    let term = term.trim();
    if let Some((lhs, rhs)) = term.split_once('*') {
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        // Either `C * dN` or `dN * C`.
        if let Some(d) = parse_dim(lhs) {
            let c: i64 = rhs.parse().map_err(|_| IrError::Parse {
                line: 0,
                message: format!("invalid multiplier `{rhs}`"),
            })?;
            return Ok(AffineExpr::Mul(Box::new(AffineExpr::Dim(d)), c));
        }
        if let Some(d) = parse_dim(rhs) {
            let c: i64 = lhs.parse().map_err(|_| IrError::Parse {
                line: 0,
                message: format!("invalid multiplier `{lhs}`"),
            })?;
            return Ok(AffineExpr::Mul(Box::new(AffineExpr::Dim(d)), c));
        }
        return Err(IrError::Parse {
            line: 0,
            message: format!("malformed affine term `{term}`"),
        });
    }
    if let Some(d) = parse_dim(term) {
        return Ok(AffineExpr::Dim(d));
    }
    term.parse::<i64>()
        .map(AffineExpr::Constant)
        .map_err(|_| IrError::Parse {
            line: 0,
            message: format!("malformed affine term `{term}`"),
        })
}

fn parse_dim(s: &str) -> Option<usize> {
    s.strip_prefix('d').and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::printer::print_module;

    #[test]
    fn parse_simple_affine_exprs() {
        assert_eq!(parse_affine_expr("d0").unwrap(), AffineExpr::Dim(0));
        assert_eq!(parse_affine_expr("7").unwrap(), AffineExpr::Constant(7));
        let e = parse_affine_expr("d0 + 1").unwrap();
        assert_eq!(e.coefficients(1).unwrap(), (vec![1], 1));
        let e = parse_affine_expr("2 * d1 - 3").unwrap();
        assert_eq!(e.coefficients(2).unwrap(), (vec![0, 2], -3));
        let e = parse_affine_expr("d0 - d1").unwrap();
        assert_eq!(e.coefficients(2).unwrap(), (vec![1, -1], 0));
    }

    #[test]
    fn parse_affine_expr_errors() {
        assert!(parse_affine_expr("").is_err());
        assert!(parse_affine_expr("x0").is_err());
        assert!(parse_affine_expr("d0 * d1").is_err());
    }

    #[test]
    fn parse_affine_map_roundtrip() {
        let map = AffineMap::new(
            3,
            vec![
                AffineExpr::dim(0) + AffineExpr::constant(1),
                AffineExpr::dim(2) * 3,
            ],
        )
        .unwrap();
        let printed = map.to_string();
        let reparsed = parse_affine_map(&printed).unwrap();
        assert_eq!(reparsed.num_dims(), 3);
        assert_eq!(
            reparsed.access_matrix().unwrap(),
            map.access_matrix().unwrap()
        );
    }

    #[test]
    fn module_roundtrip_matmul_chain() {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 32]);
        let mm = b.matmul(a, w);
        let r = b.relu(mm);
        let bias = b.argument("bias", vec![64, 32]);
        b.add(r, bias);
        let original = b.finish();

        let text = print_module(&original);
        let reparsed = parse_module(&text).unwrap();
        assert_eq!(reparsed.name(), "chain");
        assert_eq!(reparsed.ops().len(), original.ops().len());
        for (o, r) in original.ops().iter().zip(reparsed.ops()) {
            assert_eq!(o.kind, r.kind);
            assert_eq!(o.loop_bounds, r.loop_bounds);
            assert_eq!(o.iterator_types, r.iterator_types);
            assert_eq!(o.arith, r.arith);
            assert_eq!(o.indexing_maps.len(), r.indexing_maps.len());
        }
        // Dataflow must be preserved: the relu consumes the matmul.
        let order = reparsed.op_order();
        assert_eq!(reparsed.producers(order[1]), vec![order[0]]);
    }

    #[test]
    fn module_roundtrip_conv() {
        let mut b = ModuleBuilder::new("convnet");
        let x = b.argument("x", vec![1, 3, 32, 32]);
        let w = b.argument("w", vec![16, 3, 3, 3]);
        let y = b.conv2d(x, w, 2);
        b.max_pool(y, 2, 2);
        let original = b.finish();
        let reparsed = parse_module(&print_module(&original)).unwrap();
        assert_eq!(reparsed.ops()[0].loop_bounds, original.ops()[0].loop_bounds);
        // The strided access expression must survive the roundtrip.
        assert_eq!(
            reparsed.ops()[0].indexing_maps[0].access_matrix().unwrap(),
            original.ops()[0].indexing_maps[0].access_matrix().unwrap()
        );
    }

    #[test]
    fn parse_rejects_undefined_value() {
        let text = "func @f(%A: tensor<4x4xf32>) {\n  %t0 = linalg.relu\n    iterators = [\"parallel\", \"parallel\"]\n    bounds = [4, 4]\n    maps = [affine_map<(d0, d1) -> (d0, d1)>, affine_map<(d0, d1) -> (d0, d1)>]\n    arith = {max = 1}\n    ins(%missing : tensor<4x4xf32>)\n    outs(tensor<4x4xf32>)\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.to_string().contains("undefined value"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_module("not a module").is_err());
        assert!(parse_module("func @f() {").is_err());
        assert!(parse_module("").is_err());
    }

    #[test]
    fn parse_rejects_a_header_closing_before_it_opens() {
        let err = parse_module("func @a)(\n}\n").unwrap_err();
        assert_eq!(
            err,
            IrError::Parse {
                line: 1,
                message: "expected `)` closing the argument list".into()
            }
        );
    }

    #[test]
    fn parse_rejects_bounds_whose_iteration_count_overflows() {
        let mut b = ModuleBuilder::new("huge");
        let a = b.argument("A", vec![4, 8]);
        let w = b.argument("B", vec![8, 2]);
        b.matmul(a, w);
        let text = print_module(&b.finish()).replace(
            "bounds = [4, 2, 8]",
            "bounds = [18446744073709551615, 18446744073709551615, 18446744073709551615]",
        );
        let err = parse_module(&text).unwrap_err();
        assert_eq!(
            err,
            IrError::IterationCountOverflow {
                bounds: vec![u64::MAX; 3]
            }
        );
        // One bound of u64::MAX alone still counts, on shapes that agree
        // with it.
        let mut b = ModuleBuilder::new("long");
        let a = b.argument("A", vec![u64::MAX, 1]);
        let w = b.argument("B", vec![1, 1]);
        b.matmul(a, w);
        let text = print_module(&b.finish());
        assert!(text.contains("bounds = [18446744073709551615, 1, 1]"));
        assert_eq!(
            parse_module(&text).unwrap().total_flops(),
            u64::MAX as f64 * 2.0
        );
    }

    #[test]
    fn parse_rejects_bounds_that_disagree_with_the_shapes() {
        let mut b = ModuleBuilder::new("small");
        let a = b.argument("A", vec![4, 8]);
        let w = b.argument("B", vec![8, 2]);
        b.matmul(a, w);
        let text = print_module(&b.finish());
        assert!(parse_module(&text).is_ok());
        // The loop nest of a 4x8 * 8x2 matmul under bounds of one: the
        // lone-iterator results no longer span their extents.
        let err = parse_module(&text.replace("bounds = [4, 2, 8]", "bounds = [1, 1, 1]"));
        assert_eq!(
            err.unwrap_err(),
            IrError::AccessOutOfBounds {
                operand: 0,
                result: 0,
                extent: 4
            }
        );
        // A compound result is checked over the whole box: `d0 + d2` reads
        // rows 0..=10 of a 4-row tensor.
        let text = text.replacen("(d0, d2)>", "(d0 + d2, d2)>", 1);
        assert!(text.contains("(d0 + d2, d2)>"));
        assert_eq!(
            parse_module(&text).unwrap_err(),
            IrError::AccessOutOfBounds {
                operand: 0,
                result: 0,
                extent: 4
            }
        );
        // Coefficients that overflow an i64 are a rejection, not a panic.
        let text = text.replacen("(d0 + d2, d2)>", "(d0 * 9223372036854775807 + d2, d2)>", 1);
        assert!(matches!(
            parse_module(&text).unwrap_err(),
            IrError::AccessOutOfBounds { operand: 0, .. }
        ));
    }

    #[test]
    fn arith_counts_at_u32_max_count_their_flops() {
        let mut b = ModuleBuilder::new("wide_arith");
        let a = b.argument("A", vec![4, 8]);
        let w = b.argument("B", vec![8, 2]);
        b.matmul(a, w);
        let text = print_module(&b.finish()).replace(
            "arith = {add = 1, mul = 1}",
            "arith = {add = 4294967295, mul = 1}",
        );
        let flops = parse_module(&text).unwrap().total_flops();
        assert!(flops.is_finite());
        assert_eq!(flops, 64.0 * 4_294_967_296.0);
    }

    #[test]
    fn split_top_level_respects_nesting() {
        let parts = split_top_level("a<b,c>, d(e,f), g", ',');
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].trim(), "a<b,c>");
        assert_eq!(parts[1].trim(), "d(e,f)");
        assert_eq!(parts[2].trim(), "g");
    }
}

//! Modules: ordered sequences of Linalg operations connected by SSA values.
//!
//! A [`Module`] corresponds to one MLIR function body: an ordered list of
//! Linalg operations whose operands are either function arguments or results
//! of earlier operations. The RL environment walks the module *in reverse
//! order* (consumers before producers, Sec. III of the paper), so the module
//! exposes producer/consumer queries.

use std::collections::HashMap;

use crate::error::IrError;
use crate::op::{LinalgOp, OpId, ValueId};
use crate::types::TensorType;

/// Where an SSA value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueDef {
    /// A function argument (an input tensor of the whole module).
    Argument,
    /// The result of an operation in the module.
    OpResult(OpId),
}

/// An SSA value: a tensor flowing between operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Identifier of the value.
    pub id: ValueId,
    /// Tensor type of the value.
    pub ty: TensorType,
    /// Definition site.
    pub def: ValueDef,
    /// Human-readable name used by the printer (e.g. `arg0`, `t3`).
    pub name: String,
}

/// A function body: arguments, values, and Linalg operations in program
/// order.
///
/// # Examples
///
/// ```
/// use mlir_rl_ir::builder::ModuleBuilder;
///
/// let mut b = ModuleBuilder::new("matmul_relu");
/// let a = b.argument("A", vec![64, 128]);
/// let w = b.argument("B", vec![128, 32]);
/// let mm = b.matmul(a, w);
/// let _r = b.relu(mm);
/// let module = b.finish();
/// assert_eq!(module.ops().len(), 2);
/// assert_eq!(module.consumers(module.op_order()[0]).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    name: String,
    values: Vec<Value>,
    ops: Vec<LinalgOp>,
}

impl Module {
    /// Creates an empty module. Prefer [`crate::builder::ModuleBuilder`].
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            values: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All SSA values, including arguments.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// All operations in program order.
    pub fn ops(&self) -> &[LinalgOp] {
        &self.ops
    }

    /// The module's function arguments.
    pub fn arguments(&self) -> Vec<&Value> {
        self.values
            .iter()
            .filter(|v| v.def == ValueDef::Argument)
            .collect()
    }

    /// Operation identifiers in program order.
    pub fn op_order(&self) -> Vec<OpId> {
        self.ops.iter().map(|o| o.id).collect()
    }

    /// Looks up an operation by id. An op's id is its position:
    /// [`Module::add_op`] is the only way in and numbers ops in order.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownOperation`] if the id is not present.
    pub fn op(&self, id: OpId) -> Result<&LinalgOp, IrError> {
        self.ops
            .get(id.0)
            .ok_or(IrError::UnknownOperation { op: id.0 })
    }

    /// Looks up a value by id. A value's id is its position:
    /// [`Module::add_value`] is the only way in and numbers values in order.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownValue`] if the id is not present.
    pub fn value(&self, id: ValueId) -> Result<&Value, IrError> {
        self.values
            .get(id.0)
            .ok_or(IrError::UnknownValue { value: id.0 })
    }

    /// Adds a value to the module, returning its id. Used by the builder and
    /// the parser.
    pub fn add_value(&mut self, ty: TensorType, def: ValueDef, name: impl Into<String>) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(Value {
            id,
            ty,
            def,
            name: name.into(),
        });
        id
    }

    /// Appends an operation, assigning it the next [`OpId`]. The operation's
    /// `id` and `result` fields are overwritten with fresh identifiers.
    pub fn add_op(&mut self, mut op: LinalgOp, result_name: impl Into<String>) -> OpId {
        let id = OpId(self.ops.len());
        op.id = id;
        let result = self.add_value(op.result_type.clone(), ValueDef::OpResult(id), result_name);
        op.result = result;
        self.ops.push(op);
        id
    }

    /// Producers of the given operation: operations whose result is read by
    /// `op`, in program order.
    pub fn producers(&self, op: OpId) -> Vec<OpId> {
        let Ok(op) = self.op(op) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for input in &op.inputs {
            if let Ok(v) = self.value(*input) {
                if let ValueDef::OpResult(producer) = v.def {
                    if !out.contains(&producer) {
                        out.push(producer);
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// The producer the environment fuses next: the one textually closest
    /// before the consumer (Sec. III — "we select the last producer").
    pub fn last_producer(&self, op: OpId) -> Option<OpId> {
        self.op(op)
            .ok()?
            .inputs
            .iter()
            .filter_map(|input| match self.value(*input).ok()?.def {
                ValueDef::OpResult(producer) => Some(producer),
                ValueDef::Argument => None,
            })
            .max()
    }

    /// Consumers of the given operation: operations that read its result.
    pub fn consumers(&self, op: OpId) -> Vec<OpId> {
        let Ok(o) = self.op(op) else {
            return Vec::new();
        };
        let result = o.result;
        self.ops
            .iter()
            .filter(|other| other.inputs.contains(&result))
            .map(|other| other.id)
            .collect()
    }

    /// The traversal order used by the environment: operations visited from
    /// the last consumer backwards (reverse program order).
    pub fn reverse_order(&self) -> Vec<OpId> {
        let mut order = self.op_order();
        order.reverse();
        order
    }

    /// Total scalar arithmetic operations of one module execution.
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(LinalgOp::total_flops).sum()
    }

    /// Validates every operation and the def-use structure of the module.
    ///
    /// # Errors
    ///
    /// Returns the first structural error found.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut defined: HashMap<ValueId, ValueDef> = HashMap::new();
        for v in &self.values {
            defined.insert(v.id, v.def);
        }
        for (pos, op) in self.ops.iter().enumerate() {
            op.validate()?;
            if op.id.0 != pos {
                return Err(IrError::UnknownOperation { op: op.id.0 });
            }
            for input in &op.inputs {
                match defined.get(input) {
                    None => return Err(IrError::UnknownValue { value: input.0 }),
                    Some(ValueDef::OpResult(producer)) if producer.0 >= pos => {
                        // Uses must be dominated by definitions.
                        return Err(IrError::UnknownValue { value: input.0 });
                    }
                    _ => {}
                }
            }
            match defined.get(&op.result) {
                Some(ValueDef::OpResult(o)) if *o == op.id => {}
                _ => return Err(IrError::UnknownValue { value: op.result.0 }),
            }
            // Input value types must agree with the declared operand types.
            for (input, ty) in op.inputs.iter().zip(&op.input_types) {
                let v = self.value(*input)?;
                if &v.ty != ty {
                    return Err(IrError::InvalidTensorType {
                        message: format!(
                            "operand {} of {} has type {} but value {} has type {}",
                            input, op.kind, ty, v.name, v.ty
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn chain_module() -> Module {
        let mut b = ModuleBuilder::new("chain");
        let a = b.argument("A", vec![64, 128]);
        let w = b.argument("B", vec![128, 32]);
        let mm = b.matmul(a, w);
        let r = b.relu(mm);
        let bias = b.argument("bias", vec![64, 32]);
        let _out = b.add(r, bias);
        b.finish()
    }

    #[test]
    fn module_construction_and_validation() {
        let m = chain_module();
        m.validate().unwrap();
        assert_eq!(m.ops().len(), 3);
        assert_eq!(m.arguments().len(), 3);
        assert_eq!(m.name(), "chain");
        assert!(m.total_flops() > 0.0);
    }

    #[test]
    fn producer_consumer_relations() {
        let m = chain_module();
        let order = m.op_order();
        let (mm, relu, add) = (order[0], order[1], order[2]);
        assert_eq!(m.producers(mm), vec![]);
        assert_eq!(m.producers(relu), vec![mm]);
        assert_eq!(m.producers(add), vec![relu]);
        assert_eq!(m.consumers(mm), vec![relu]);
        assert_eq!(m.consumers(add), vec![]);
        assert_eq!(m.last_producer(add), Some(relu));
        assert_eq!(m.last_producer(mm), None);
    }

    #[test]
    fn last_producer_is_the_latest_of_the_producers() {
        // A diamond: the add reads the relu and the matmul (in that order),
        // and the matmul twice through a second add.
        let mut b = ModuleBuilder::new("diamond");
        let a = b.argument("A", vec![32, 32]);
        let w = b.argument("B", vec![32, 32]);
        let mm = b.matmul(a, w);
        let r = b.relu(mm);
        let s = b.add(r, mm);
        let t = b.add(mm, mm);
        b.add(t, s);
        let m = b.finish();
        for op in m.op_order() {
            assert_eq!(m.last_producer(op), m.producers(op).into_iter().max());
        }
        assert_eq!(m.last_producer(OpId(2)), Some(OpId(1)));
        assert_eq!(m.last_producer(OpId(99)), None);
    }

    #[test]
    fn reverse_order_visits_consumers_first() {
        let m = chain_module();
        let rev = m.reverse_order();
        assert_eq!(rev.len(), 3);
        assert_eq!(rev[0], *m.op_order().last().unwrap());
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let m = chain_module();
        assert!(m.op(OpId(99)).is_err());
        assert!(m.value(ValueId(99)).is_err());
    }

    #[test]
    fn every_value_id_resolves_to_its_own_value() {
        let built = chain_module();
        let parsed = crate::parser::parse_module(&crate::printer::print_module(&built)).unwrap();
        for m in [&built, &parsed] {
            assert_eq!(m.values().len(), 6);
            for (position, value) in m.values().iter().enumerate() {
                assert_eq!(value.id, ValueId(position));
                assert_eq!(m.value(value.id).unwrap(), value);
            }
            let unknown = ValueId(m.values().len());
            assert!(matches!(
                m.value(unknown),
                Err(IrError::UnknownValue { value }) if value == unknown.0
            ));
        }
    }

    #[test]
    fn validation_rejects_forward_references() {
        let mut m = chain_module();
        // Make the first op read the result of the last op (a forward use).
        let last_result = m.ops()[2].result;
        let first_input_ty = m.ops()[2].result_type.clone();
        {
            let op0 = &mut m.ops[0];
            op0.inputs[0] = last_result;
            op0.input_types[0] = first_input_ty;
        }
        assert!(m.validate().is_err());
    }

    #[test]
    fn max_loop_depth() {
        let m = chain_module();
        let depth = m.ops().iter().map(LinalgOp::num_loops).max();
        assert_eq!(depth, Some(3)); // matmul has 3 loops
    }

    #[test]
    fn printed_lines_nonzero() {
        let m = chain_module();
        assert!(crate::printer::print_module(&m).lines().count() > 5);
    }
}

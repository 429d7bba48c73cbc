//! Element and tensor types.

use std::fmt;

use crate::error::IrError;

/// Scalar element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElementType {
    /// 32-bit IEEE-754 floating point.
    #[default]
    F32,
    /// 64-bit IEEE-754 floating point.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 8-bit signed integer (quantized workloads).
    I8,
}

impl ElementType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            ElementType::F32 | ElementType::I32 => 4,
            ElementType::F64 | ElementType::I64 => 8,
            ElementType::I8 => 1,
        }
    }

    /// MLIR-style spelling of the type.
    pub fn name(self) -> &'static str {
        match self {
            ElementType::F32 => "f32",
            ElementType::F64 => "f64",
            ElementType::I32 => "i32",
            ElementType::I64 => "i64",
            ElementType::I8 => "i8",
        }
    }

    /// Parses an MLIR-style element-type spelling.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Parse`] for unknown spellings.
    pub fn parse(s: &str) -> Result<Self, IrError> {
        match s {
            "f32" => Ok(ElementType::F32),
            "f64" => Ok(ElementType::F64),
            "i32" => Ok(ElementType::I32),
            "i64" => Ok(ElementType::I64),
            "i8" => Ok(ElementType::I8),
            other => Err(IrError::Parse {
                line: 0,
                message: format!("unknown element type `{other}`"),
            }),
        }
    }
}

impl fmt::Display for ElementType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A ranked tensor type, e.g. `tensor<256x1024xf32>`.
///
/// # Examples
///
/// ```
/// use mlir_rl_ir::types::{ElementType, TensorType};
///
/// let t = TensorType::new(vec![256, 1024], ElementType::F32).unwrap();
/// assert_eq!(t.num_elements(), 256 * 1024);
/// assert_eq!(t.size_bytes(), 256 * 1024 * 4);
/// assert_eq!(t.to_string(), "tensor<256x1024xf32>");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorType {
    shape: Vec<u64>,
    element: ElementType,
}

impl TensorType {
    /// Creates a tensor type from a shape and element type.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidTensorType`] if any dimension is zero.
    pub fn new(shape: Vec<u64>, element: ElementType) -> Result<Self, IrError> {
        if shape.contains(&0) {
            return Err(IrError::InvalidTensorType {
                message: format!("zero-sized dimension in shape {shape:?}"),
            });
        }
        Ok(Self { shape, element })
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(element: ElementType) -> Self {
        Self {
            shape: Vec::new(),
            element,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[u64] {
        &self.shape
    }

    /// The element type.
    pub fn element(&self) -> ElementType {
        self.element
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> u64 {
        self.shape.iter().product()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_elements() * self.element.size_bytes() as u64
    }

    /// Parses a type of the form `tensor<256x1024xf32>`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Parse`] if the string is not a valid tensor type.
    pub fn parse(s: &str) -> Result<Self, IrError> {
        let inner = s
            .trim()
            .strip_prefix("tensor<")
            .and_then(|r| r.strip_suffix('>'))
            .ok_or_else(|| IrError::Parse {
                line: 0,
                message: format!("expected `tensor<...>`, got `{s}`"),
            })?;
        let parts: Vec<&str> = inner.split('x').collect();
        if parts.is_empty() {
            return Err(IrError::Parse {
                line: 0,
                message: "empty tensor type".into(),
            });
        }
        let element = ElementType::parse(parts[parts.len() - 1])?;
        let mut shape = Vec::new();
        for p in &parts[..parts.len() - 1] {
            let d: u64 = p.parse().map_err(|_| IrError::Parse {
                line: 0,
                message: format!("invalid dimension `{p}` in tensor type"),
            })?;
            shape.push(d);
        }
        TensorType::new(shape, element)
    }
}

impl fmt::Display for TensorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor<")?;
        for d in &self.shape {
            write!(f, "{d}x")?;
        }
        write!(f, "{}>", self.element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_sizes() {
        assert_eq!(ElementType::F32.size_bytes(), 4);
        assert_eq!(ElementType::F64.size_bytes(), 8);
        assert_eq!(ElementType::I8.size_bytes(), 1);
        assert_eq!(ElementType::I64.size_bytes(), 8);
        assert_eq!(ElementType::I32.size_bytes(), 4);
    }

    #[test]
    fn element_parse_roundtrip() {
        for t in [
            ElementType::F32,
            ElementType::F64,
            ElementType::I32,
            ElementType::I64,
            ElementType::I8,
        ] {
            assert_eq!(ElementType::parse(t.name()).unwrap(), t);
        }
        assert!(ElementType::parse("f16").is_err());
    }

    #[test]
    fn tensor_type_basics() {
        let t = TensorType::new(vec![256, 1024], ElementType::F32).unwrap();
        assert_eq!(t.rank(), 2);
        assert_eq!(t.num_elements(), 256 * 1024);
        assert_eq!(t.size_bytes(), 256 * 1024 * 4);
        assert_eq!(t.shape(), &[256, 1024]);
    }

    #[test]
    fn tensor_type_rejects_zero_dim() {
        assert!(TensorType::new(vec![4, 0], ElementType::F32).is_err());
    }

    #[test]
    fn tensor_type_display_and_parse_roundtrip() {
        let t = TensorType::new(vec![8, 512, 7], ElementType::F64).unwrap();
        let printed = t.to_string();
        assert_eq!(printed, "tensor<8x512x7xf64>");
        assert_eq!(TensorType::parse(&printed).unwrap(), t);
    }

    #[test]
    fn scalar_tensor() {
        let t = TensorType::scalar(ElementType::F32);
        assert_eq!(t.rank(), 0);
        assert_eq!(t.num_elements(), 1);
        assert_eq!(t.to_string(), "tensor<f32>");
        assert_eq!(TensorType::parse("tensor<f32>").unwrap(), t);
    }

    #[test]
    fn tensor_parse_errors() {
        assert!(TensorType::parse("memref<4xf32>").is_err());
        assert!(TensorType::parse("tensor<axf32>").is_err());
        assert!(TensorType::parse("tensor<4x5>").is_err());
    }
}

//! The value *contribution* of a parsing-expression evaluation.
//!
//! Shared between the interpreter (`modpeg-interp`) and the parsers
//! emitted by `modpeg-codegen`: an expression contributes nothing, one
//! value, or several values (a sequence's components) to its parent.

use crate::value::Value;

/// What an expression evaluation contributed, value-wise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Out {
    /// No value (terminals, predicates, void).
    #[default]
    None,
    /// Exactly one value.
    One(Value),
    /// Several values (sequence components).
    Many(Vec<Value>),
}

impl Out {
    /// Appends the contribution to `sink`.
    pub fn push_into(self, sink: &mut Vec<Value>) {
        match self {
            Out::None => {}
            Out::One(v) => sink.push(v),
            Out::Many(vs) => sink.extend(vs),
        }
    }

    /// Converts the contribution to a plain value list.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Out::None => Vec::new(),
            Out::One(v) => vec![v],
            Out::Many(vs) => vs,
        }
    }

    /// Packs a collected value list as a sequence contribution.
    pub fn from_values(mut values: Vec<Value>) -> Out {
        match values.len() {
            0 => Out::None,
            1 => Out::One(values.pop().expect("len checked")),
            _ => Out::Many(values),
        }
    }

    /// Number of values contributed.
    pub fn len(&self) -> usize {
        match self {
            Out::None => 0,
            Out::One(_) => 1,
            Out::Many(vs) => vs.len(),
        }
    }

    /// Whether nothing was contributed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first value contributed, if any.
    pub fn first(&self) -> Option<&Value> {
        match self {
            Out::None => None,
            Out::One(v) => Some(v),
            Out::Many(vs) => vs.first(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_roundtrip() {
        assert_eq!(Out::from_values(vec![]), Out::None);
        assert_eq!(Out::from_values(vec![Value::Unit]), Out::One(Value::Unit));
        let many = Out::from_values(vec![Value::Unit, Value::Absent]);
        assert_eq!(many.len(), 2);
        assert_eq!(many.into_values(), vec![Value::Unit, Value::Absent]);
    }

    #[test]
    fn push_into_flattens() {
        let mut sink = Vec::new();
        Out::None.push_into(&mut sink);
        Out::One(Value::Unit).push_into(&mut sink);
        Out::Many(vec![Value::Absent, Value::Unit]).push_into(&mut sink);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn emptiness() {
        assert!(Out::None.is_empty());
        assert!(!Out::One(Value::Unit).is_empty());
    }
}

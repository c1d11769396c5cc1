//! Instruction classification: operation classes and control-transfer
//! kinds.

use std::fmt;

/// The functional-unit class of an instruction.
///
/// Classes mirror the paper's simulated machine (Table 1): four integer
/// ALUs, one integer multiply/divide unit, two FP ALUs, one FP
/// multiply/divide unit and two memory ports. Control-transfer
/// instructions execute on the integer ALUs.
///
/// # Examples
///
/// ```
/// use bw_types::OpClass;
///
/// assert!(OpClass::Load.is_mem());
/// assert!(!OpClass::IntAlu.is_mem());
/// assert!(OpClass::FpMul.is_fp());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum OpClass {
    /// Simple integer operation (1-cycle latency).
    IntAlu,
    /// Integer multiply or divide.
    IntMul,
    /// Simple floating-point operation.
    FpAlu,
    /// Floating-point multiply or divide.
    FpMul,
    /// Memory load (uses a memory port and the D-cache).
    Load,
    /// Memory store (uses a memory port and the D-cache).
    Store,
    /// Control-transfer instruction (executes on an integer ALU).
    Cti,
}

impl OpClass {
    /// `true` for loads and stores.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// `true` for floating-point operation classes.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMul)
    }

    /// All operation classes, in a fixed order (useful for iteration in
    /// statistics code).
    pub const ALL: [OpClass; 7] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::Load,
        OpClass::Store,
        OpClass::Cti,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int-alu",
            OpClass::IntMul => "int-mul",
            OpClass::FpAlu => "fp-alu",
            OpClass::FpMul => "fp-mul",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Cti => "cti",
        };
        f.write_str(s)
    }
}

/// The kind of a control-transfer instruction (CTI).
///
/// The distinction matters to the front end: conditional branches consult
/// the direction predictor, every CTI kind consults the BTB, and
/// calls/returns exercise the return-address stack. The prediction probe
/// detector's two pre-decode bits are exactly "line contains a
/// conditional branch" and "line contains any CTI".
///
/// # Examples
///
/// ```
/// use bw_types::CtiKind;
///
/// assert!(CtiKind::CondBranch.is_conditional());
/// assert!(CtiKind::Return.uses_ras());
/// assert!(CtiKind::Call.uses_ras());
/// assert!(!CtiKind::Jump.uses_ras());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CtiKind {
    /// Conditional direct branch: consults the direction predictor.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Direct call: pushes the return address on the RAS.
    Call,
    /// Return: pops the RAS.
    Return,
    /// Indirect jump (target known only at execute; predicted by BTB).
    IndirectJump,
}

impl CtiKind {
    /// `true` only for conditional branches (the direction-predictor
    /// clients).
    #[must_use]
    pub fn is_conditional(self) -> bool {
        matches!(self, CtiKind::CondBranch)
    }

    /// `true` if this CTI pushes or pops the return-address stack.
    #[must_use]
    pub fn uses_ras(self) -> bool {
        matches!(self, CtiKind::Call | CtiKind::Return)
    }

    /// `true` if the CTI always transfers control (everything but a
    /// conditional branch).
    #[must_use]
    pub fn is_unconditional(self) -> bool {
        !self.is_conditional()
    }
}

impl fmt::Display for CtiKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CtiKind::CondBranch => "cond",
            CtiKind::Jump => "jump",
            CtiKind::Call => "call",
            CtiKind::Return => "return",
            CtiKind::IndirectJump => "ijump",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        for c in [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAlu,
            OpClass::FpMul,
            OpClass::Cti,
        ] {
            assert!(!c.is_mem(), "{c} must not be mem");
        }
    }

    #[test]
    fn fp_classification() {
        assert!(OpClass::FpAlu.is_fp());
        assert!(OpClass::FpMul.is_fp());
        assert!(!OpClass::IntAlu.is_fp());
        assert!(!OpClass::Load.is_fp());
    }

    #[test]
    fn all_contains_each_class_once() {
        for c in OpClass::ALL {
            assert_eq!(OpClass::ALL.iter().filter(|&&x| x == c).count(), 1);
        }
        assert_eq!(OpClass::ALL.len(), 7);
    }

    #[test]
    fn cti_conditionality() {
        assert!(CtiKind::CondBranch.is_conditional());
        assert!(!CtiKind::CondBranch.is_unconditional());
        for k in [
            CtiKind::Jump,
            CtiKind::Call,
            CtiKind::Return,
            CtiKind::IndirectJump,
        ] {
            assert!(k.is_unconditional(), "{k} is unconditional");
        }
    }

    #[test]
    fn ras_users() {
        assert!(CtiKind::Call.uses_ras());
        assert!(CtiKind::Return.uses_ras());
        assert!(!CtiKind::Jump.uses_ras());
        assert!(!CtiKind::CondBranch.uses_ras());
        assert!(!CtiKind::IndirectJump.uses_ras());
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(OpClass::IntAlu.to_string(), "int-alu");
        assert_eq!(CtiKind::Return.to_string(), "return");
    }
}

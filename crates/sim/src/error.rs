//! Simulator errors.

use pc_isa::IsaError;
use pc_memsys::MemError;
use std::fmt;

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The program failed validation or an operation misbehaved at runtime
    /// (type mismatch, divide by zero, …).
    Isa(IsaError),
    /// A memory reference went out of bounds.
    Mem(MemError),
    /// No thread can make progress but not all threads have halted
    /// (e.g. a consume with no matching produce).
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Threads still alive.
        alive: usize,
        /// Memory references parked on synchronization.
        parked: usize,
    },
    /// The cycle limit passed to [`crate::Machine::run`] elapsed.
    CycleLimit {
        /// The limit that elapsed.
        limit: u64,
    },
    /// A `fork` would exceed the configured thread budget.
    ThreadLimit {
        /// The configured maximum.
        max: usize,
    },
    /// The memory system reported a completion for a token the machine
    /// never issued (or already retired) — an engine invariant violation.
    UnknownToken {
        /// The unrecognized completion token.
        token: u64,
    },
    /// A load completed without a value — an engine invariant violation.
    MissingLoadValue {
        /// The completion token of the offending load.
        token: u64,
    },
    /// A machine was asked to run a decoded image under a configuration
    /// whose [compile target](pc_isa::MachineConfig::compile_target)
    /// differs from the one the image was decoded for.
    TargetMismatch,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Isa(e) => write!(f, "isa error: {e}"),
            SimError::Mem(e) => write!(f, "memory error: {e}"),
            SimError::Deadlock {
                cycle,
                alive,
                parked,
            } => write!(
                f,
                "deadlock at cycle {cycle}: {alive} threads alive, {parked} references parked"
            ),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::ThreadLimit { max } => {
                write!(f, "fork exceeds thread budget of {max}")
            }
            SimError::UnknownToken { token } => {
                write!(f, "memory completion for unknown token {token}")
            }
            SimError::MissingLoadValue { token } => {
                write!(f, "load completion for token {token} carried no value")
            }
            SimError::TargetMismatch => write!(
                f,
                "configuration's compile target differs from the decoded image's"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Isa(e) => Some(e),
            SimError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::Isa(e)
    }
}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SimError::from(IsaError::DivideByZero);
        assert!(e.to_string().contains("divide"));
        assert!(e.source().is_some());
        let d = SimError::Deadlock {
            cycle: 5,
            alive: 2,
            parked: 1,
        };
        assert!(d.to_string().contains("deadlock at cycle 5"));
        assert!(d.source().is_none());
        assert!(SimError::CycleLimit { limit: 9 }.to_string().contains("9"));
        assert!(SimError::ThreadLimit { max: 3 }.to_string().contains("3"));
        assert!(SimError::UnknownToken { token: 4 }
            .to_string()
            .contains("unknown token 4"));
        assert!(SimError::MissingLoadValue { token: 6 }
            .to_string()
            .contains("token 6"));
        assert!(SimError::TargetMismatch
            .to_string()
            .contains("compile target"));
    }
}

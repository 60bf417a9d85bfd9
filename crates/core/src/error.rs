//! Error types shared across the OSDP workspace.

use std::fmt;

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, OsdpError>;

/// How a persistence fault should be treated by retry and health logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The operation may succeed if repeated (interrupted syscall, would-
    /// block, timeout). Bounded-backoff retry is appropriate.
    Transient,
    /// Retrying the same handle cannot help (disk full, bad descriptor,
    /// failed fsync — the page-cache state is unknown). The handle must be
    /// reopened, and recovery replayed, before another attempt.
    Permanent,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::Transient => write!(f, "transient"),
            FaultClass::Permanent => write!(f, "permanent"),
        }
    }
}

/// The file-system operation a persistence fault occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistOp {
    /// Creating a directory.
    CreateDir,
    /// Opening (or creating) a file.
    Open,
    /// Acquiring or inspecting the shard's single-writer lock.
    Lock,
    /// Reading file contents.
    Read,
    /// Writing (including truncating back to a known-good boundary).
    Write,
    /// `fdatasync` of a file or directory.
    Fsync,
    /// Renaming a file into place.
    Rename,
    /// Removing a file.
    Remove,
    /// A ledger-level failure that is no single file operation: a crashed
    /// writer, or a ledger closed because a thread panicked holding its lock.
    Commit,
}

impl fmt::Display for PersistOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PersistOp::CreateDir => "create-dir",
            PersistOp::Open => "open",
            PersistOp::Lock => "lock",
            PersistOp::Read => "read",
            PersistOp::Write => "write",
            PersistOp::Fsync => "fsync",
            PersistOp::Rename => "rename",
            PersistOp::Remove => "remove",
            PersistOp::Commit => "commit",
        };
        write!(f, "{name}")
    }
}

/// A typed failure of the durable budget plane: which operation failed, on
/// which path, whether retrying can help, and the underlying detail. This
/// is what the engine's tenant health machine branches on — `Transient`
/// faults degrade a tenant, `Permanent` faults quarantine it.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistError {
    /// The operation that failed.
    pub op: PersistOp,
    /// The file or directory involved (may be empty for handle-level
    /// failures such as a crashed writer or a poisoned ledger lock).
    pub path: String,
    /// Whether retrying the same handle can help.
    pub class: FaultClass,
    /// The underlying error text.
    pub detail: String,
}

impl PersistError {
    /// A new typed persistence error.
    pub fn new(
        op: PersistOp,
        path: impl Into<String>,
        class: FaultClass,
        detail: impl Into<String>,
    ) -> Self {
        Self { op, path: path.into(), class, detail: detail.into() }
    }

    /// Whether a bounded retry of the same handle is worthwhile.
    pub fn is_transient(&self) -> bool {
        self.class == FaultClass::Transient
    }

    /// The `(operation, class)` pair incident correlation groups on: many
    /// tenants failing with the same *permanent write-side* signature within
    /// a short window is one dying device, not N independent shard faults.
    pub fn signature(&self) -> (PersistOp, FaultClass) {
        (self.op, self.class)
    }

    /// Whether this fault has the shape of a device-level storm worth
    /// correlating across tenants: a **permanent** failure of the write
    /// side (`Write`/`Fsync` — `ENOSPC`, a dying disk's EIO). Read faults
    /// and transient hiccups stay per-tenant.
    pub fn is_device_signature(&self) -> bool {
        self.class == FaultClass::Permanent
            && matches!(self.op, PersistOp::Write | PersistOp::Fsync)
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{} {} failed: {}", self.class, self.op, self.detail)
        } else {
            write!(f, "{} {} failed on {}: {}", self.class, self.op, self.path, self.detail)
        }
    }
}

impl std::error::Error for PersistError {}

impl From<PersistError> for OsdpError {
    fn from(err: PersistError) -> Self {
        OsdpError::Persist(err)
    }
}

/// Errors raised by OSDP core data structures and mechanisms.
#[derive(Debug, Clone, PartialEq)]
pub enum OsdpError {
    /// The privacy parameter epsilon must be strictly positive and finite.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// A budget split (e.g. the `rho` fraction of `DAWAz`) must lie in `(0, 1)`.
    InvalidFraction {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The requested privacy budget exceeds what remains in the accountant.
    BudgetExhausted {
        /// Budget requested by the caller.
        requested: f64,
        /// Budget still available.
        remaining: f64,
    },
    /// Two histograms (or a histogram and a domain) have mismatched sizes.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A record is missing a field required by a policy or a query.
    MissingField {
        /// Name of the missing field.
        field: String,
    },
    /// A field held a value of an unexpected type.
    TypeMismatch {
        /// Name of the field.
        field: String,
        /// Expected type name.
        expected: &'static str,
    },
    /// The database violates a precondition of an algorithm (e.g. empty input).
    InvalidInput(String),
    /// A policy was found to be trivial (all sensitive or all non-sensitive)
    /// where a non-trivial policy is required.
    TrivialPolicy,
    /// A session-pool insert collided with a live session for the tenant.
    TenantExists {
        /// The tenant whose slot is already occupied.
        tenant: String,
    },
    /// The durable budget plane failed: a ledger file could not be read,
    /// written, locked, or decoded (logical failures with no single IO
    /// operation to blame; IO faults carry the typed
    /// [`OsdpError::Persist`] variant instead).
    Persistence(String),
    /// A typed IO fault of the durable budget plane, carrying the failing
    /// operation, path, and fault class.
    Persist(PersistError),
    /// The tenant's circuit breaker is open: its durable shard failed
    /// repeatedly and releases are refused fast until a heal probe
    /// succeeds (see the engine pool's `try_heal`).
    TenantQuarantined {
        /// The quarantined tenant.
        tenant: String,
    },
}

impl fmt::Display for OsdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsdpError::InvalidEpsilon { epsilon } => {
                write!(f, "invalid privacy parameter epsilon = {epsilon}; must be finite and > 0")
            }
            OsdpError::InvalidFraction { name, value } => {
                write!(f, "invalid fraction {name} = {value}; must lie strictly between 0 and 1")
            }
            OsdpError::BudgetExhausted { requested, remaining } => {
                write!(f, "privacy budget exhausted: requested {requested}, remaining {remaining}")
            }
            OsdpError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            OsdpError::MissingField { field } => write!(f, "record is missing field `{field}`"),
            OsdpError::TypeMismatch { field, expected } => {
                write!(f, "field `{field}` does not hold a value of type {expected}")
            }
            OsdpError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            OsdpError::TenantExists { tenant } => {
                write!(f, "tenant '{tenant}' already has a live session; remove it first")
            }
            OsdpError::Persistence(msg) => write!(f, "persistence failure: {msg}"),
            OsdpError::Persist(err) => write!(f, "persistence failure: {err}"),
            OsdpError::TenantQuarantined { tenant } => {
                write!(
                    f,
                    "tenant '{tenant}' is quarantined: its durable shard failed repeatedly; \
                     releases are refused fast until try_heal succeeds"
                )
            }
            OsdpError::TrivialPolicy => write!(
                f,
                "policy is trivial (classifies every record identically); OSDP requires at least \
                 one sensitive and one non-sensitive record"
            ),
        }
    }
}

impl std::error::Error for OsdpError {}

/// Validates a privacy parameter.
///
/// Epsilon must be finite and strictly positive; this is used by every
/// mechanism constructor in the workspace.
pub fn validate_epsilon(epsilon: f64) -> Result<f64> {
    if epsilon.is_finite() && epsilon > 0.0 {
        Ok(epsilon)
    } else {
        Err(OsdpError::InvalidEpsilon { epsilon })
    }
}

/// Validates that a value lies strictly inside `(0, 1)`.
pub fn validate_fraction(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(OsdpError::InvalidFraction { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_must_be_positive() {
        assert!(validate_epsilon(1.0).is_ok());
        assert!(validate_epsilon(0.01).is_ok());
        assert!(validate_epsilon(0.0).is_err());
        assert!(validate_epsilon(-1.0).is_err());
        assert!(validate_epsilon(f64::NAN).is_err());
        assert!(validate_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn fraction_must_be_open_interval() {
        assert!(validate_fraction("rho", 0.1).is_ok());
        assert!(validate_fraction("rho", 0.0).is_err());
        assert!(validate_fraction("rho", 1.0).is_err());
        assert!(validate_fraction("rho", f64::NAN).is_err());
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = OsdpError::BudgetExhausted { requested: 1.0, remaining: 0.5 };
        assert!(e.to_string().contains("exhausted"));
        let e = OsdpError::MissingField { field: "age".into() };
        assert!(e.to_string().contains("age"));
        let e = OsdpError::TypeMismatch { field: "age".into(), expected: "Int" };
        assert!(e.to_string().contains("Int"));
        assert!(OsdpError::TrivialPolicy.to_string().contains("trivial"));
        assert!(OsdpError::InvalidEpsilon { epsilon: -1.0 }.to_string().contains("-1"));
        assert!(OsdpError::DimensionMismatch { expected: 3, actual: 4 }.to_string().contains("3"));
        assert!(OsdpError::InvalidInput("x".into()).to_string().contains('x'));
        assert!(OsdpError::InvalidFraction { name: "rho", value: 2.0 }.to_string().contains("rho"));
        assert!(OsdpError::TenantExists { tenant: "acme".into() }.to_string().contains("acme"));
        assert!(OsdpError::Persistence("wal.log: torn".into()).to_string().contains("wal.log"));
        let e = OsdpError::TenantQuarantined { tenant: "acme".into() };
        assert!(e.to_string().contains("acme") && e.to_string().contains("quarantined"));
    }

    #[test]
    fn persist_errors_carry_op_path_and_class() {
        let e = PersistError::new(PersistOp::Fsync, "/x/wal.log", FaultClass::Permanent, "EIO");
        assert!(!e.is_transient());
        let text = e.to_string();
        assert!(text.contains("fsync") && text.contains("/x/wal.log") && text.contains("EIO"));
        assert!(text.contains("permanent"));
        assert_eq!(e.signature(), (PersistOp::Fsync, FaultClass::Permanent));
        assert!(e.is_device_signature(), "permanent fsync is a device-storm shape");
        let e = PersistError::new(PersistOp::Commit, "", FaultClass::Transient, "deadline");
        assert!(e.is_transient());
        assert!(!e.is_device_signature(), "transient commit is not a device-storm shape");
        let read = PersistError::new(PersistOp::Read, "w", FaultClass::Permanent, "rot");
        assert!(!read.is_device_signature(), "read-side rot stays per-tenant");
        assert!(!e.to_string().contains(" on "), "empty path is elided: {e}");
        // The typed variant wraps transparently.
        let wrapped: OsdpError = e.clone().into();
        assert_eq!(wrapped, OsdpError::Persist(e));
        assert!(wrapped.to_string().contains("persistence failure"));
    }
}

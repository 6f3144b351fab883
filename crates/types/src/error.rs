//! The workspace-wide error type.
//!
//! Every fallible public operation across the Switchboard crates returns
//! [`Result<T>`](Result) with this [`Error`]. Variants are grouped by the
//! subsystem that raises them so callers can match on classes of failure
//! (e.g. "any infeasibility" vs. "any unknown-entity lookup").

use crate::ids::{SiteId, VnfId};
use std::fmt;

/// A specialized `Result` for Switchboard operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by Switchboard components.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A referenced entity (node, site, VNF, chain, instance…) is not known
    /// to the component.
    UnknownEntity {
        /// The kind of entity, e.g. `"site"`.
        kind: &'static str,
        /// The identifier that failed to resolve, pre-rendered.
        id: String,
    },
    /// An entity was registered twice.
    DuplicateEntity {
        /// The kind of entity, e.g. `"chain"`.
        kind: &'static str,
        /// The identifier that collided, pre-rendered.
        id: String,
    },
    /// A traffic-engineering problem has no feasible solution (e.g. demands
    /// exceed every combination of compute and network capacity).
    Infeasible {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// An optimization problem is unbounded; indicates a malformed model.
    Unbounded,
    /// A chain specification is invalid (empty VNF list where one is
    /// required, unknown ingress/egress, a VNF with no deployment sites…).
    InvalidChain {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// The two-phase commit for a route installation was rejected by a
    /// participant (Section 3, phase 2: a VNF controller may reject a
    /// proposed route due to resource shortage).
    CommitRejected {
        /// The VNF whose reservation was refused; the coordinator
        /// recomputes the route without this VNF at `site`.
        vnf: VnfId,
        /// The site of the refused reservation.
        site: SiteId,
        /// The participant's stated reason.
        reason: String,
    },
    /// A resource limit was exceeded (label space exhausted, flow table
    /// full, NAT port pool empty…).
    ResourceExhausted {
        /// The resource that ran out.
        resource: &'static str,
    },
    /// A packet could not be processed by the data plane (missing labels,
    /// no matching load-balancing rule…).
    Forwarding {
        /// Human-readable description of the drop cause.
        reason: String,
    },
    /// A message-bus operation failed (malformed topic, closed proxy…).
    Bus {
        /// Human-readable description.
        reason: String,
    },
    /// An argument failed validation.
    InvalidArgument {
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
}

impl Error {
    /// Convenience constructor for [`Error::UnknownEntity`].
    #[must_use]
    pub fn unknown(kind: &'static str, id: impl fmt::Display) -> Self {
        Error::UnknownEntity {
            kind,
            id: id.to_string(),
        }
    }

    /// Convenience constructor for [`Error::DuplicateEntity`].
    #[must_use]
    pub fn duplicate(kind: &'static str, id: impl fmt::Display) -> Self {
        Error::DuplicateEntity {
            kind,
            id: id.to_string(),
        }
    }

    /// Convenience constructor for [`Error::Infeasible`].
    #[must_use]
    pub fn infeasible(reason: impl Into<String>) -> Self {
        Error::Infeasible {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`Error::InvalidChain`].
    #[must_use]
    pub fn invalid_chain(reason: impl Into<String>) -> Self {
        Error::InvalidChain {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`Error::InvalidArgument`].
    #[must_use]
    pub fn invalid_argument(reason: impl Into<String>) -> Self {
        Error::InvalidArgument {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`Error::Forwarding`].
    #[must_use]
    pub fn forwarding(reason: impl Into<String>) -> Self {
        Error::Forwarding {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`Error::Bus`].
    #[must_use]
    pub fn bus(reason: impl Into<String>) -> Self {
        Error::Bus {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownEntity { kind, id } => write!(f, "unknown {kind}: {id}"),
            Error::DuplicateEntity { kind, id } => write!(f, "duplicate {kind}: {id}"),
            Error::Infeasible { reason } => write!(f, "infeasible: {reason}"),
            Error::Unbounded => write!(f, "optimization problem is unbounded"),
            Error::InvalidChain { reason } => write!(f, "invalid chain: {reason}"),
            Error::CommitRejected { vnf, site, reason } => {
                write!(f, "commit rejected by {vnf}@{site}: {reason}")
            }
            Error::ResourceExhausted { resource } => write!(f, "resource exhausted: {resource}"),
            Error::Forwarding { reason } => write!(f, "forwarding failed: {reason}"),
            Error::Bus { reason } => write!(f, "message bus error: {reason}"),
            Error::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn error_is_send_sync_and_static() {
        assert_send_sync::<Error>();
        let boxed: Box<dyn std::error::Error + Send + Sync + 'static> =
            Box::new(Error::Unbounded);
        assert_eq!(boxed.to_string(), "optimization problem is unbounded");
    }

    #[test]
    fn display_messages_are_lowercase_without_trailing_punctuation() {
        let cases: Vec<Error> = vec![
            Error::unknown("site", SiteId::new(9)),
            Error::duplicate("chain", "chain-1"),
            Error::infeasible("demand exceeds capacity"),
            Error::invalid_chain("empty vnf list"),
            Error::CommitRejected {
                vnf: VnfId::new(3),
                site: SiteId::new(7),
                reason: "out of capacity".into(),
            },
            Error::ResourceExhausted { resource: "labels" },
            Error::forwarding("no rule for c1/e2"),
            Error::bus("topic missing site segment"),
            Error::invalid_argument("weights must be non-negative"),
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.ends_with('.'), "trailing punctuation: {msg}");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "should start lowercase: {msg}"
            );
        }
    }

    #[test]
    fn unknown_entity_includes_rendered_id() {
        let e = Error::unknown("site", SiteId::new(4));
        assert_eq!(e.to_string(), "unknown site: site-4");
    }

    #[test]
    fn commit_rejected_names_the_vnf_at_its_site() {
        let e = Error::CommitRejected {
            vnf: VnfId::new(3),
            site: SiteId::new(7),
            reason: "vetoed".into(),
        };
        assert_eq!(e.to_string(), "commit rejected by vnf-3@site-7: vetoed");
    }

    #[test]
    fn errors_compare_equal_structurally() {
        assert_eq!(Error::infeasible("x"), Error::infeasible("x"));
        assert_ne!(Error::infeasible("x"), Error::infeasible("y"));
    }
}

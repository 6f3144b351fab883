//! Strongly-typed identifiers for the entities of the Switchboard model.
//!
//! Each identifier is a newtype over an integer ([`C-NEWTYPE`]) so that, for
//! example, a [`SiteId`] can never be passed where a [`NodeId`] is expected
//! even though both are small integers in the underlying model.
//!
//! [`C-NEWTYPE`]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name($repr);

        impl $name {
            /// Creates an identifier from its raw integer value.
            ///
            /// # Examples
            ///
            /// ```
            #[doc = concat!("let id = sb_types::", stringify!($name), "::new(5);")]
            /// assert_eq!(id.value(), 5);
            /// ```
            #[must_use]
            pub const fn new(value: $repr) -> Self {
                Self(value)
            }

            /// Returns the raw integer value of this identifier.
            #[must_use]
            pub const fn value(self) -> $repr {
                self.0
            }

            /// Returns the identifier as a `usize`, for indexing into
            /// dense per-entity vectors.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(value: $repr) -> Self {
                Self(value)
            }
        }

        impl From<$name> for $repr {
            fn from(id: $name) -> $repr {
                id.0
            }
        }
    };
}

define_id!(
    /// A node in the wide-area network topology (set `N` in Table 1).
    NodeId,
    u32,
    "node"
);

define_id!(
    /// A cloud site co-located with a network node (set `S ⊆ N` in Table 1).
    SiteId,
    u32,
    "site"
);

define_id!(
    /// A directed link in the wide-area network topology (set `E` in Table 1).
    LinkId,
    u32,
    "link"
);

define_id!(
    /// A virtual network function in the catalog (set `F` in Table 1).
    VnfId,
    u32,
    "vnf"
);

define_id!(
    /// A customer-defined service chain (set `C` in Table 1).
    ChainId,
    u64,
    "chain"
);

define_id!(
    /// One wide-area route computed for a chain. A chain may have several
    /// routes when its traffic is split across site sequences (Section 4.4:
    /// the DP algorithm emits additional routes until all traffic is carried).
    RouteId,
    u64,
    "route"
);

define_id!(
    /// A running instance (VM / container) of a VNF at some site.
    InstanceId,
    u64,
    "inst"
);

define_id!(
    /// A Switchboard forwarder: the proxy data-plane element deployed at
    /// every site (Section 5).
    ForwarderId,
    u64,
    "fwd"
);

define_id!(
    /// An edge instance: the ingress/egress element of an edge service that
    /// affixes and removes labels (Section 3).
    EdgeInstanceId,
    u64,
    "edge"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "node-3");
        assert_eq!(SiteId::new(0).to_string(), "site-0");
        assert_eq!(ChainId::new(12).to_string(), "chain-12");
        assert_eq!(ForwarderId::new(9).to_string(), "fwd-9");
    }

    #[test]
    fn round_trips_through_raw_value() {
        let id = VnfId::new(77);
        assert_eq!(VnfId::from(u32::from(id)), id);
        assert_eq!(id.index(), 77);
    }

    #[test]
    fn ids_are_usable_as_map_keys() {
        let mut set = HashSet::new();
        assert!(set.insert(RouteId::new(1)));
        assert!(set.insert(RouteId::new(2)));
        assert!(!set.insert(RouteId::new(1)));
    }

    #[test]
    fn ordering_follows_raw_values() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(ChainId::new(10) > ChainId::new(9));
    }
}

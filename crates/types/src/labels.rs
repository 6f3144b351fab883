//! Packet labels used by Switchboard's label-switched data plane.
//!
//! Section 3 of the paper: the ingress edge instance affixes two labels to
//! the first packet of a connection — the first identifies the customer and
//! its service chain, the second identifies the egress edge site. Forwarders
//! index their load-balancing rules and flow tables by this label pair.
//!
//! In the prototype these were MPLS labels; we model them as 20-bit values
//! (the MPLS label field width) wrapped in newtypes.

use std::fmt;

/// Maximum value representable in an MPLS-style 20-bit label field.
pub const MAX_LABEL: u32 = (1 << 20) - 1;

/// The label identifying a customer's service chain (and one wide-area route
/// of it). Applied by the ingress edge instance.
///
/// # Examples
///
/// ```
/// use sb_types::ChainLabel;
/// let l = ChainLabel::new(1042);
/// assert_eq!(l.value(), 1042);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChainLabel(u32);

/// The label identifying the egress edge site of a connection. Applied by the
/// ingress edge instance from its per-customer routing table.
///
/// # Examples
///
/// ```
/// use sb_types::EgressLabel;
/// let l = EgressLabel::new(3);
/// assert_eq!(l.value(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EgressLabel(u32);

macro_rules! label_impl {
    ($name:ident) => {
        impl $name {
            /// Creates a label from a raw value.
            ///
            /// # Panics
            ///
            /// Panics if `value` exceeds the 20-bit label space
            /// ([`MAX_LABEL`](crate::MAX_LABEL)). Use
            /// [`Self::try_new`] for a fallible constructor.
            #[must_use]
            pub fn new(value: u32) -> Self {
                Self::try_new(value).expect("label exceeds 20-bit MPLS label space")
            }

            /// Creates a label from a raw value, returning `None` when the
            /// value exceeds the 20-bit label space.
            #[must_use]
            pub fn try_new(value: u32) -> Option<Self> {
                (value <= MAX_LABEL).then_some(Self(value))
            }

            /// Returns the raw label value.
            #[must_use]
            pub const fn value(self) -> u32 {
                self.0
            }
        }
    };
}

label_impl!(ChainLabel);
label_impl!(EgressLabel);

impl fmt::Display for ChainLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for EgressLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The pair of labels carried by every packet inside a service chain:
/// `(chain label, egress-site label)`.
///
/// This pair is the index into forwarder load-balancing rules and the prefix
/// of every flow-table key (Section 3, "Connection setup time").
///
/// # Examples
///
/// ```
/// use sb_types::{ChainLabel, EgressLabel, LabelPair};
/// let p = LabelPair::new(ChainLabel::new(1), EgressLabel::new(2));
/// assert_eq!(p.to_string(), "c1/e2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelPair {
    chain: ChainLabel,
    egress: EgressLabel,
}

impl LabelPair {
    /// Creates a label pair.
    #[must_use]
    pub const fn new(chain: ChainLabel, egress: EgressLabel) -> Self {
        Self { chain, egress }
    }

    /// The chain label.
    #[must_use]
    pub const fn chain(self) -> ChainLabel {
        self.chain
    }

    /// The egress-site label.
    #[must_use]
    pub const fn egress(self) -> EgressLabel {
        self.egress
    }
}

impl fmt::Display for LabelPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.chain, self.egress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn labels_accept_full_20_bit_space() {
        assert!(ChainLabel::try_new(MAX_LABEL).is_some());
        assert!(ChainLabel::try_new(MAX_LABEL + 1).is_none());
        assert!(EgressLabel::try_new(0).is_some());
    }

    #[test]
    #[should_panic(expected = "20-bit")]
    fn new_panics_on_overflow() {
        let _ = ChainLabel::new(MAX_LABEL + 1);
    }

    #[test]
    fn pair_accessors() {
        let p = LabelPair::new(ChainLabel::new(10), EgressLabel::new(20));
        assert_eq!(p.chain().value(), 10);
        assert_eq!(p.egress().value(), 20);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ChainLabel::new(5).to_string(), "c5");
        assert_eq!(EgressLabel::new(6).to_string(), "e6");
        let p = LabelPair::new(ChainLabel::new(5), EgressLabel::new(6));
        assert_eq!(p.to_string(), "c5/e6");
    }

    proptest! {
        #[test]
        fn try_new_matches_range_check(v in 0u32..=u32::MAX) {
            prop_assert_eq!(ChainLabel::try_new(v).is_some(), v <= MAX_LABEL);
        }

        #[test]
        fn pair_round_trips_through_its_labels(c in 0u32..=MAX_LABEL, e in 0u32..=MAX_LABEL) {
            let p = LabelPair::new(ChainLabel::new(c), EgressLabel::new(e));
            prop_assert_eq!(LabelPair::new(p.chain(), p.egress()), p);
            prop_assert_eq!((p.chain().value(), p.egress().value()), (c, e));
        }
    }
}

//! Topics and the owner-site inference rule.
//!
//! Topics follow the paper's path convention (Section 5.2 / 6), e.g.
//! `/c1/e3/vnf_G/site_A_instances`: chain label, egress site, VNF, and a
//! final segment naming the site whose proxy owns the subscription filters
//! ("The publisher's site is inferred from the topic itself"). We encode
//! sites numerically: `/c1/e3/vnf_G/site_4_instances` is owned by site 4.

use sb_types::{Error, Result, SiteId};
use std::fmt;
use std::sync::Arc;

/// A hierarchical topic with an owner site. The path is shared, so a
/// delivered copy or a subscription filter costs no allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topic {
    path: Arc<str>,
    owner: SiteId,
}

impl Topic {
    /// Parses a path of the form `/../site_<id>_<kind>` and infers the
    /// owner site from the last segment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bus`] when the path is empty, not `/`-prefixed, or
    /// no segment carries a `site_<id>_` marker.
    pub fn parse(path: impl Into<String>) -> Result<Self> {
        let path = path.into();
        if !path.starts_with('/') || path.len() < 2 {
            return Err(Error::bus(format!("malformed topic path: {path:?}")));
        }
        let owner = path
            .split('/')
            .filter_map(|seg| seg.strip_prefix("site_"))
            .filter_map(|rest| {
                let id_part: String = rest.chars().take_while(char::is_ascii_digit).collect();
                id_part.parse::<u32>().ok()
            })
            .next_back()
            .ok_or_else(|| Error::bus(format!("topic has no site_<id> segment: {path}")))?;
        Ok(Self {
            path: path.into(),
            owner: SiteId::new(owner),
        })
    }

    /// Builds a topic with an explicit owner site, for payloads that do not
    /// follow the `site_<id>` naming convention.
    #[must_use]
    pub fn with_owner(path: impl Into<Arc<str>>, owner: SiteId) -> Self {
        Self {
            path: path.into(),
            owner,
        }
    }

    /// The topic publishing the VNF instance list (addresses and weights)
    /// of `vnf` for chain label `chain` egressing at label `egress`, at
    /// `site` — the first topic of the Figure 6 walkthrough.
    #[must_use]
    pub fn vnf_instances(chain: u32, egress: u32, vnf: u32, site: SiteId) -> Self {
        Self::with_owner(
            format!("/c{chain}/e{egress}/vnf_{vnf}/site_{}_instances", site.value()),
            site,
        )
    }

    /// The topic publishing the forwarders adjoining `vnf`'s instances at
    /// `site` — the second topic of the Figure 6 walkthrough.
    #[must_use]
    pub fn vnf_forwarders(chain: u32, egress: u32, vnf: u32, site: SiteId) -> Self {
        Self::with_owner(
            format!(
                "/c{chain}/e{egress}/vnf_{vnf}/site_{}_forwarders",
                site.value()
            ),
            site,
        )
    }

    /// The per-site topic carrying epoch-tagged route *deltas* for `chain`
    /// (DESIGN.md §10). Unlike the chain-wide `/routes/site_<gsb>_gsb`
    /// replication topic — owned by the Global Switchboard and fanned out
    /// to every site — this topic is owned by the affected site itself, so
    /// publishing an update delta costs one WAN copy per affected site and
    /// the WAN message count scales with the delta, not the chain.
    #[must_use]
    pub fn route_delta(chain: u32, site: SiteId) -> Self {
        Self::with_owner(
            format!("/c{chain}/routes/site_{}_delta", site.value()),
            site,
        )
    }

    /// The site whose proxy stores this topic's subscription filters.
    #[must_use]
    pub fn owner(&self) -> SiteId {
        self.owner
    }

    /// The raw path.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_infers_owner_from_site_segment() {
        let t = Topic::parse("/c1/e3/vnf_7/site_4_instances").unwrap();
        assert_eq!(t.owner(), SiteId::new(4));
        assert_eq!(t.path(), "/c1/e3/vnf_7/site_4_instances");
    }

    #[test]
    fn parse_takes_last_site_segment() {
        // If several segments name sites, the last one wins (the element
        // whose state is being published).
        let t = Topic::parse("/site_1_routes/site_9_forwarders").unwrap();
        assert_eq!(t.owner(), SiteId::new(9));
    }

    #[test]
    fn parse_rejects_malformed_paths() {
        assert!(Topic::parse("").is_err());
        assert!(Topic::parse("no-slash").is_err());
        assert!(Topic::parse("/").is_err());
        assert!(Topic::parse("/c1/e3/vnf_7/instances").is_err()); // no site
    }

    #[test]
    fn helper_constructors_match_figure6_names() {
        let t = Topic::vnf_instances(1, 3, 7, SiteId::new(0));
        assert_eq!(t.path(), "/c1/e3/vnf_7/site_0_instances");
        assert_eq!(t.owner(), SiteId::new(0));
        let t = Topic::vnf_forwarders(1, 3, 8, SiteId::new(2));
        assert_eq!(t.path(), "/c1/e3/vnf_8/site_2_forwarders");
        assert_eq!(t.owner(), SiteId::new(2));
        // Round trip through parse agrees on the owner.
        assert_eq!(Topic::parse(t.path()).unwrap().owner(), SiteId::new(2));
    }

    #[test]
    fn route_delta_topic_is_owned_by_the_affected_site() {
        let t = Topic::route_delta(4, SiteId::new(3));
        assert_eq!(t.path(), "/c4/routes/site_3_delta");
        assert_eq!(t.owner(), SiteId::new(3));
        assert_eq!(Topic::parse(t.path()).unwrap().owner(), SiteId::new(3));
    }

    #[test]
    fn explicit_owner_bypasses_inference() {
        let t = Topic::with_owner("/free/form", SiteId::new(11));
        assert_eq!(t.owner(), SiteId::new(11));
    }

    #[test]
    fn topics_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Topic::parse("/a/site_1_x").unwrap());
        assert!(set.contains(&Topic::parse("/a/site_1_x").unwrap()));
        assert!(!set.contains(&Topic::parse("/a/site_2_x").unwrap()));
    }
}

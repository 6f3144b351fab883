//! Connection identification: the 5-tuple flow key.
//!
//! Section 3 of the paper: a forwarder's flow-table entry is keyed by the
//! connection's labels *and* its header 5-tuple (source IP, destination IP,
//! protocol, source port, destination port). The reverse direction of a
//! connection is matched by the reversed key.

use std::fmt;
use std::net::Ipv4Addr;

/// The transport protocol field of a flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IpProtocol {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
    /// ICMP (IP protocol 1); ports are zero by convention.
    Icmp,
    /// Any other protocol number.
    Other(u8),
}

impl IpProtocol {
    /// Returns the IANA protocol number.
    #[must_use]
    pub const fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(n) => n,
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// The connection 5-tuple used to key forwarder flow tables.
///
/// # Examples
///
/// ```
/// use sb_types::FlowKey;
/// let k = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 0, 0, 2], 80);
/// let r = k.reversed();
/// assert_eq!(r.src_ip(), k.dst_ip());
/// assert_eq!(r.dst_port(), k.src_port());
/// assert_eq!(r.reversed(), k);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    protocol: IpProtocol,
    src_port: u16,
    dst_port: u16,
}

impl FlowKey {
    /// Creates a flow key from its five components.
    #[must_use]
    pub fn new(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
        protocol: IpProtocol,
    ) -> Self {
        Self {
            src_ip: src_ip.into(),
            dst_ip: dst_ip.into(),
            protocol,
            src_port,
            dst_port,
        }
    }

    /// Convenience constructor for a TCP flow.
    #[must_use]
    pub fn tcp(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
    ) -> Self {
        Self::new(src_ip, src_port, dst_ip, dst_port, IpProtocol::Tcp)
    }

    /// Convenience constructor for a UDP flow.
    #[must_use]
    pub fn udp(
        src_ip: impl Into<Ipv4Addr>,
        src_port: u16,
        dst_ip: impl Into<Ipv4Addr>,
        dst_port: u16,
    ) -> Self {
        Self::new(src_ip, src_port, dst_ip, dst_port, IpProtocol::Udp)
    }

    /// Returns the key for the reverse direction of this connection: source
    /// and destination addresses and ports swapped, same protocol.
    #[must_use]
    pub const fn reversed(self) -> Self {
        Self {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            protocol: self.protocol,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Source IP address.
    #[must_use]
    pub const fn src_ip(self) -> Ipv4Addr {
        self.src_ip
    }

    /// Destination IP address.
    #[must_use]
    pub const fn dst_ip(self) -> Ipv4Addr {
        self.dst_ip
    }

    /// Transport protocol.
    #[must_use]
    pub const fn protocol(self) -> IpProtocol {
        self.protocol
    }

    /// Source transport port.
    #[must_use]
    pub const fn src_port(self) -> u16 {
        self.src_port
    }

    /// Destination transport port.
    #[must_use]
    pub const fn dst_port(self) -> u16 {
        self.dst_port
    }

    /// Returns a copy of this key with a different source address and port
    /// (used by NAT-style rewrites).
    #[must_use]
    pub fn with_source(self, ip: impl Into<Ipv4Addr>, port: u16) -> Self {
        Self {
            src_ip: ip.into(),
            src_port: port,
            ..self
        }
    }

    /// Returns a copy of this key with a different destination address and
    /// port (used by NAT-style rewrites on the reverse path).
    #[must_use]
    pub fn with_destination(self, ip: impl Into<Ipv4Addr>, port: u16) -> Self {
        Self {
            dst_ip: ip.into(),
            dst_port: port,
            ..self
        }
    }

    /// A stable 64-bit hash of this key, direction-sensitive. Used by
    /// forwarders for deterministic weighted load-balancer selection so that
    /// experiments are reproducible.
    ///
    /// Forwarders compute this once per packet at parse time and thread the
    /// value through flow-table lookup, load balancing, and synthetic header
    /// work, so it is `#[inline]` and operates on one flat byte array.
    #[inline]
    #[must_use]
    pub fn stable_hash(self) -> u64 {
        // FNV-1a over the canonical byte encoding; stable across platforms
        // and runs (unlike `DefaultHasher`, which is randomly seeded).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let s = self.src_ip.octets();
        let d = self.dst_ip.octets();
        let sp = self.src_port.to_be_bytes();
        let dp = self.dst_port.to_be_bytes();
        let bytes: [u8; 13] = [
            s[0],
            s[1],
            s[2],
            s[3],
            d[0],
            d[1],
            d[2],
            d[3],
            self.protocol.number(),
            sp[0],
            sp[1],
            dp[0],
            dp[1],
        ];
        let mut h = OFFSET;
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}/{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = FlowKey> {
        let protocol = prop_oneof![
            Just(IpProtocol::Tcp),
            Just(IpProtocol::Udp),
            Just(IpProtocol::Icmp),
            any::<u8>().prop_map(IpProtocol::Other),
        ];
        (
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
            protocol,
        )
            .prop_map(|(s, sp, d, dp, p)| {
                FlowKey::new(Ipv4Addr::from(s), sp, Ipv4Addr::from(d), dp, p)
            })
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let k = FlowKey::udp([1, 2, 3, 4], 10, [5, 6, 7, 8], 20);
        let r = k.reversed();
        assert_eq!(r.src_ip(), Ipv4Addr::new(5, 6, 7, 8));
        assert_eq!(r.dst_ip(), Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(r.src_port(), 20);
        assert_eq!(r.dst_port(), 10);
        assert_eq!(r.protocol(), IpProtocol::Udp);
    }

    #[test]
    fn nat_rewrites_replace_one_endpoint() {
        let k = FlowKey::tcp([10, 0, 0, 1], 5555, [8, 8, 8, 8], 443);
        let n = k.with_source([99, 0, 0, 1], 61000);
        assert_eq!(n.src_ip(), Ipv4Addr::new(99, 0, 0, 1));
        assert_eq!(n.src_port(), 61000);
        assert_eq!(n.dst_ip(), k.dst_ip());
        let m = k.with_destination([1, 1, 1, 1], 53);
        assert_eq!(m.dst_ip(), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(m.src_ip(), k.src_ip());
    }

    #[test]
    fn stable_hash_is_deterministic_and_direction_sensitive() {
        let k = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 0, 0, 2], 80);
        assert_eq!(k.stable_hash(), k.stable_hash());
        assert_ne!(k.stable_hash(), k.reversed().stable_hash());
    }

    #[test]
    fn display_is_readable() {
        let k = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 0, 0, 2], 80);
        assert_eq!(k.to_string(), "10.0.0.1:5000->10.0.0.2:80/tcp");
    }

    proptest! {
        #[test]
        fn reversal_is_involution(k in arb_key()) {
            prop_assert_eq!(k.reversed().reversed(), k);
        }

        #[test]
        fn hash_distinguishes_most_distinct_keys(a in arb_key(), b in arb_key()) {
            // Not a collision-freedom proof, just a sanity check that equal
            // hashes imply equal keys on the overwhelming majority of pairs
            // proptest will generate.
            if a != b {
                prop_assert_ne!(a.stable_hash(), b.stable_hash());
            }
        }

        #[test]
        fn round_trips_through_its_fields(k in arb_key()) {
            let back = FlowKey::new(k.src_ip(), k.src_port(), k.dst_ip(), k.dst_port(), k.protocol());
            prop_assert_eq!(back, k);
        }
    }
}

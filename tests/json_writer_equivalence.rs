//! The JSON writer streams: `serde_json::to_string(x)` writes `x`'s text
//! directly (`Serialize::write_json`) instead of building a `serde::Value`
//! tree first. It must produce exactly the text of that tree — which a
//! `Value` renders itself — for every bus payload type, for enums with and
//! without payloads, for strings that need escapes and for every finite
//! float, and it must still refuse a non-finite float.

use proptest::prelude::*;
use serde::Serialize;
use switchboard::controller::{ForwarderRecord, InstanceRecord, RouteAnnouncement};
use switchboard::dataplane::{Addr, Packet, TunnelHeader};
use switchboard::msgbus::{Message, Topic};
use switchboard::types::{
    ChainId, ChainLabel, EdgeInstanceId, EgressLabel, FlowKey, ForwarderId, InstanceId, IpProtocol,
    LabelPair, RouteId, SiteId, VnfId,
};

/// `x` rendered through the `Value` tree.
fn via_tree<T: Serialize + ?Sized>(x: &T) -> Result<String, serde_json::Error> {
    serde_json::to_string(&x.to_value())
}

/// Streamed and tree renderings agree, and both succeed.
fn assert_same<T: Serialize + ?Sized>(x: &T) -> Result<(), TestCaseError> {
    let streamed = serde_json::to_string(x);
    prop_assert!(streamed.is_ok(), "{streamed:?}");
    prop_assert_eq!(streamed, via_tree(x));
    Ok(())
}

/// Floats the shortest round-trip form treats specially: signed zeros,
/// subnormals, the normal range's ends, and integral values.
const EDGE_FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    f64::MAX,
    f64::MIN,
    1.0,
    -3.0,
    1e21,
];

/// Any finite `f64`: arbitrary bit patterns (subnormals included) and the
/// edge cases above.
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |f| f.is_finite()),
        1 => (0..EDGE_FLOATS.len()).prop_map(|i| EDGE_FLOATS[i]),
        1 => -1e6..1e6f64,
    ]
}

/// Strings mixing ASCII, every control character, the characters JSON
/// escapes, and arbitrary Unicode scalars.
fn any_string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        2 => 0x20u32..0x7F,
        1 => 0u32..0x20,
        1 => (0..4usize).prop_map(|i| u32::from(b"\"\\/\x7f"[i])),
        1 => 0x80u32..0x11_0000,
    ];
    prop::collection::vec(ch, 0..24)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// A chain or egress label: 20 bits, as in an MPLS label.
fn label() -> impl Strategy<Value = u32> {
    0u32..1 << 20
}

fn announcement() -> impl Strategy<Value = RouteAnnouncement> {
    (
        (any::<u64>(), any::<u64>(), label(), label()),
        (any::<u32>(), any::<u32>()),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..6),
        finite_f64(),
        any::<u64>(),
    )
        .prop_map(
            |((chain, route, cl, el), (ingress, egress), stages, fraction, epoch)| {
                RouteAnnouncement {
                    chain: ChainId::new(chain),
                    route: RouteId::new(route),
                    labels: LabelPair::new(ChainLabel::new(cl), EgressLabel::new(el)),
                    ingress_site: SiteId::new(ingress),
                    egress_site: SiteId::new(egress),
                    vnfs: stages.iter().map(|&(v, _)| VnfId::new(v)).collect(),
                    sites: stages.iter().map(|&(_, s)| SiteId::new(s)).collect(),
                    fraction,
                    epoch,
                }
            },
        )
}

fn instance_record() -> impl Strategy<Value = InstanceRecord> {
    (any::<u64>(), finite_f64(), any::<bool>()).prop_map(|(i, weight, supports_labels)| {
        InstanceRecord {
            instance: InstanceId::new(i),
            weight,
            supports_labels,
        }
    })
}

fn forwarder_record() -> impl Strategy<Value = ForwarderRecord> {
    (any::<u64>(), finite_f64()).prop_map(|(f, weight)| ForwarderRecord {
        forwarder: ForwarderId::new(f),
        weight,
    })
}

/// Packets: `Option`s either way, an enum with unit and payload variants
/// (`IpProtocol`), and `Ipv4Addr`s, which keep the tree-building default.
fn packet() -> impl Strategy<Value = Packet> {
    (
        prop::option::of((label(), label())),
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
        (0u8..4, any::<u8>()),
        prop::option::of((any::<u32>(), any::<u32>(), any::<u32>())),
        (any::<u16>(), any::<u64>()),
    )
        .prop_map(
            |(labels, (src, dst, sp, dp), (kind, other), tunnel, (size, meta))| {
                let protocol = match kind {
                    0 => IpProtocol::Tcp,
                    1 => IpProtocol::Udp,
                    2 => IpProtocol::Icmp,
                    _ => IpProtocol::Other(other),
                };
                Packet {
                    labels: labels
                        .map(|(c, e)| LabelPair::new(ChainLabel::new(c), EgressLabel::new(e))),
                    key: FlowKey::new(src, sp, dst, dp, protocol),
                    tunnel: tunnel.map(|(vni, s, d)| TunnelHeader {
                        vni,
                        src_site: SiteId::new(s),
                        dst_site: SiteId::new(d),
                    }),
                    size,
                    meta,
                }
            },
        )
}

fn addr() -> impl Strategy<Value = Addr> {
    (0u8..3, any::<u64>()).prop_map(|(kind, id)| match kind {
        0 => Addr::Vnf(InstanceId::new(id)),
        1 => Addr::Forwarder(ForwarderId::new(id)),
        _ => Addr::Edge(EdgeInstanceId::new(id)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_announcements_render_as_their_tree(
        anns in prop::collection::vec(announcement(), 0..5),
    ) {
        for ann in &anns {
            assert_same(ann)?;
        }
        // A route delta's payload: a slice of references.
        let delta: Vec<&RouteAnnouncement> = anns.iter().collect();
        assert_same(delta.as_slice())?;
        assert_same(&delta.as_slice())?;
    }

    #[test]
    fn records_and_label_lists_render_as_their_tree(
        instances in prop::collection::vec(instance_record(), 0..6),
        forwarders in prop::collection::vec(forwarder_record(), 0..6),
        edges in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        assert_same(&instances)?;
        assert_same(&forwarders)?;
        assert_same(&edges)?;
    }

    #[test]
    fn enums_options_and_strings_render_as_their_tree(
        packets in prop::collection::vec(packet(), 0..4),
        addrs in prop::collection::vec(addr(), 0..4),
        path in any_string(),
        payload in any_string(),
        owner in any::<u32>(),
    ) {
        assert_same(&packets)?;
        assert_same(&addrs)?;
        assert_same(&path)?;
        assert_same(path.as_str())?;
        assert_same(&Message::new(Topic::with_owner(path, SiteId::new(owner)), payload))?;
    }

    #[test]
    fn finite_floats_render_as_their_tree(
        xs in prop::collection::vec(finite_f64(), 0..8),
        bits in any::<u32>(),
    ) {
        assert_same(&xs)?;
        let x = f32::from_bits(bits);
        if x.is_finite() {
            assert_same(&x)?;
        }
    }
}

#[test]
fn edge_floats_render_as_their_tree() {
    for f in EDGE_FLOATS {
        assert_same(&f).unwrap();
    }
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&5e-324f64).unwrap(), "5e-324");
}

#[test]
fn a_non_finite_float_is_refused_either_way() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(serde_json::to_string(&bad).is_err(), "{bad}");
        assert!(
            serde_json::to_string(&vec![1.0, bad]).is_err(),
            "{bad} in a list"
        );
        let rec = ForwarderRecord {
            forwarder: ForwarderId::new(1),
            weight: bad,
        };
        assert!(serde_json::to_string(&rec).is_err(), "{bad} in a record");
        assert!(via_tree(&rec).is_err(), "{bad} through the tree");
    }
    assert!(serde_json::to_string(&f32::NAN).is_err());
}

#[test]
fn a_bus_payload_renders_as_before() {
    let ann = RouteAnnouncement {
        chain: ChainId::new(1),
        route: RouteId::new(2),
        labels: LabelPair::new(ChainLabel::new(3), EgressLabel::new(4)),
        ingress_site: SiteId::new(0),
        egress_site: SiteId::new(1),
        vnfs: vec![VnfId::new(5)],
        sites: vec![SiteId::new(2)],
        fraction: 0.5,
        epoch: 3,
    };
    assert_eq!(
        serde_json::to_string(&[&ann][..]).unwrap(),
        "[{\"chain\":1,\"route\":2,\"labels\":{\"chain\":3,\"egress\":4},\
         \"ingress_site\":0,\"egress_site\":1,\"vnfs\":[5],\"sites\":[2],\
         \"fraction\":0.5,\"epoch\":3}]"
    );
    assert_eq!(
        serde_json::to_string(&vec![IpProtocol::Tcp, IpProtocol::Other(47)]).unwrap(),
        "[\"Tcp\",{\"Other\":47}]"
    );
    assert_eq!(
        serde_json::to_string("a\"b\\c\n\u{1}").unwrap(),
        "\"a\\\"b\\\\c\\n\\u0001\""
    );
}

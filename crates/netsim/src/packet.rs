//! Packets, 5-tuples, and TCP flags.

use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Protocol {
    /// TCP — flows terminate with FIN or RST when closed properly.
    Tcp,
    /// UDP — no close signal; only inactivity timeouts apply.
    Udp,
}

/// TCP header flags (subset relevant to Iustitia's CDB purging).
///
/// A thin bit-set newtype: build with [`TcpFlags::empty`] and the
/// constants, query with [`contains`](TcpFlags::contains).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// SYN: connection establishment.
    pub const SYN: TcpFlags = TcpFlags(0b0001);
    /// ACK: acknowledgment.
    pub const ACK: TcpFlags = TcpFlags(0b0010);
    /// FIN: orderly close — triggers CDB record removal.
    pub const FIN: TcpFlags = TcpFlags(0b0100);
    /// RST: abortive close — triggers CDB record removal.
    pub const RST: TcpFlags = TcpFlags(0b1000);

    /// No flags set (also what UDP packets carry).
    pub const fn empty() -> TcpFlags {
        TcpFlags(0)
    }

    /// The raw bit representation, for wire encodings.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds flags from raw bits, ignoring unknown bits.
    pub const fn from_bits_truncate(bits: u8) -> TcpFlags {
        TcpFlags(bits & 0b1111)
    }

    /// Whether every flag in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether this packet signals flow termination (FIN or RST).
    pub const fn closes_flow(self) -> bool {
        self.0 & (Self::FIN.0 | Self::RST.0) != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.contains(Self::SYN) {
            parts.push("SYN");
        }
        if self.contains(Self::ACK) {
            parts.push("ACK");
        }
        if self.contains(Self::FIN) {
            parts.push("FIN");
        }
        if self.contains(Self::RST) {
            parts.push("RST");
        }
        if parts.is_empty() {
            f.write_str("-")
        } else {
            f.write_str(&parts.join("|"))
        }
    }
}

/// The flow 5-tuple: addresses, ports, and protocol.
///
/// Iustitia identifies a flow by a hash of these header fields
/// ([`as_bytes`](FiveTuple::as_bytes) provides the canonical byte
/// encoding fed to SHA-1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FiveTuple {
    /// Creates a TCP 5-tuple.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple { src_ip, dst_ip, src_port, dst_port, protocol: Protocol::Tcp }
    }

    /// Creates a UDP 5-tuple.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple { src_ip, dst_ip, src_port, dst_port, protocol: Protocol::Udp }
    }

    /// Canonical 13-byte encoding (src ip, dst ip, src port, dst port,
    /// protocol) used as the flow-hash input.
    #[inline]
    pub fn as_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip.octets());
        b[4..8].copy_from_slice(&self.dst_ip.octets());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = match self.protocol {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        };
        b
    }

    /// The direction-insensitive form: endpoints ordered so both
    /// directions of a conversation map to the same tuple.
    pub fn canonical(&self) -> FiveTuple {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            FiveTuple {
                src_ip: self.dst_ip,
                dst_ip: self.src_ip,
                src_port: self.dst_port,
                dst_port: self.src_port,
                protocol: self.protocol,
            }
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}:{} -> {}:{}",
            self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// One captured packet: timestamp, header fields, and payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Packet {
    /// Capture time in seconds from trace start.
    pub timestamp: f64,
    /// Flow 5-tuple.
    pub tuple: FiveTuple,
    /// TCP flags (empty for UDP).
    pub flags: TcpFlags,
    /// Application payload (possibly empty for pure control packets).
    pub payload: Vec<u8>,
}

impl Packet {
    /// Whether this is a *data* packet (non-empty payload) — the 41.16%
    /// of the UMASS trace Iustitia actually buffers.
    pub fn is_data(&self) -> bool {
        !self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn flags_bit_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(!f.closes_flow());
        assert!((TcpFlags::FIN | TcpFlags::ACK).closes_flow());
        assert!(TcpFlags::RST.closes_flow());
        assert!(!TcpFlags::empty().closes_flow());
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::empty().to_string(), "-");
    }

    #[test]
    fn tuple_byte_encoding_is_injective_on_fields() {
        let a = FiveTuple::tcp(ip(10, 0, 0, 1), 1234, ip(10, 0, 0, 2), 80);
        let b = FiveTuple::tcp(ip(10, 0, 0, 1), 1235, ip(10, 0, 0, 2), 80);
        let c = FiveTuple::udp(ip(10, 0, 0, 1), 1234, ip(10, 0, 0, 2), 80);
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_ne!(a.as_bytes(), c.as_bytes());
        assert_eq!(a.as_bytes()[12], 6);
        assert_eq!(c.as_bytes()[12], 17);
    }

    #[test]
    fn canonical_is_direction_insensitive() {
        let fwd = FiveTuple::tcp(ip(10, 0, 0, 2), 80, ip(10, 0, 0, 1), 1234);
        let rev = FiveTuple::tcp(ip(10, 0, 0, 1), 1234, ip(10, 0, 0, 2), 80);
        assert_eq!(fwd.canonical(), rev.canonical());
        assert_eq!(fwd.canonical(), fwd.canonical().canonical());
    }

    #[test]
    fn data_packet_detection() {
        let tuple = FiveTuple::tcp(ip(1, 1, 1, 1), 1, ip(2, 2, 2, 2), 2);
        let data = Packet { timestamp: 0.0, tuple, flags: TcpFlags::ACK, payload: vec![1] };
        let ack = Packet { timestamp: 0.0, tuple, flags: TcpFlags::ACK, payload: vec![] };
        assert!(data.is_data());
        assert!(!ack.is_data());
    }

    #[test]
    fn canonical_orders_by_ip_then_port() {
        let a = FiveTuple::tcp(ip(10, 0, 0, 1), 9000, ip(10, 0, 0, 1), 80);
        // Same IPs: the lower port becomes the source.
        assert_eq!(a.canonical().src_port, 80);
        let b = FiveTuple::udp(ip(10, 0, 0, 2), 1, ip(10, 0, 0, 1), 65000);
        assert_eq!(b.canonical().src_ip, ip(10, 0, 0, 1));
    }

    #[test]
    fn flags_default_is_empty() {
        assert_eq!(TcpFlags::default(), TcpFlags::empty());
    }

    #[test]
    fn tuple_display_mentions_endpoints() {
        let t = FiveTuple::tcp(ip(10, 0, 0, 1), 1234, ip(10, 0, 0, 2), 80);
        let s = t.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(s.contains("10.0.0.2:80"));
    }
}

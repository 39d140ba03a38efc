//! Wire size of worker ⇄ server messages.
//!
//! ps-lite frames every request with a small header; P3 additionally carries
//! the slice priority in the header so the receiving server can order its
//! processing queue (§4.2). The simulator models the framing only by its
//! size: every simulated message is `HEADER_BYTES + 4·params` on the wire.

/// Fixed wire header size in bytes: magic(2) + type(1) + pad(1) + key(8) +
/// worker(4) + priority(4) + version(8) + payload-len(4).
pub const HEADER_BYTES: usize = 32;

/// Wire size in bytes of a gradient/parameter message carrying `params`
/// values — the quantity the cluster simulator charges to the network.
pub fn wire_bytes(params: u64) -> u64 {
    HEADER_BYTES as u64 + 4 * params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_32_bytes_and_each_value_4() {
        assert_eq!(HEADER_BYTES, 32);
        for n in [0, 1, 50_000] {
            assert_eq!(wire_bytes(n), 32 + 4 * n);
        }
    }
}

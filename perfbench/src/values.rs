//! Self-checking payloads: every value carries its key and a writer tag,
//! and the rest of its bytes are a pseudo-random stream derived from both,
//! so a reader can tell a correct value from a torn, truncated, misrouted
//! or corrupted one without a copy of what was written.

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Smallest payload: 8-byte key + 8-byte tag.
pub const MIN_LEN: usize = 16;

/// `len` bytes: key (LE), tag (LE), then the filler stream of `(key, tag)`.
pub fn make(key: u64, tag: u64, len: usize) -> Vec<u8> {
    assert!(len >= MIN_LEN, "payloads carry a 16-byte header");
    let mut v = Vec::with_capacity(len + 8);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&tag.to_le_bytes());
    let mut s = key ^ tag.rotate_left(32);
    while v.len() < len {
        v.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    v.truncate(len);
    v
}

/// True when `v` is exactly what [`make`] wrote for `key` at `len` bytes,
/// under whatever tag `v` carries.
pub fn check(key: u64, v: &[u8], len: usize) -> bool {
    if v.len() != len || len < MIN_LEN || v[..8] != key.to_le_bytes() {
        return false;
    }
    let tag = u64::from_le_bytes(v[8..16].try_into().expect("16-byte header"));
    let mut s = key ^ tag.rotate_left(32);
    v[16..]
        .chunks(8)
        .all(|c| c == &splitmix(&mut s).to_le_bytes()[..c.len()])
}

/// The key a payload claims to belong to (queue items name themselves).
pub fn key_of(v: &[u8]) -> u64 {
    v.get(..8).map_or(u64::MAX, |b| {
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    })
}

/// The writer tag a payload carries.
pub fn tag_of(v: &[u8]) -> u64 {
    v.get(8..).map_or(u64::MAX, key_of)
}

/// A copy of `v` with one filler byte flipped: a negative control.
pub fn corrupt(mut v: Vec<u8>) -> Vec<u8> {
    let last = v.len() - 1;
    v[last] ^= 0x5A;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_every_corruption_is_caught() {
        for len in [16, 17, 64, 256, 1024] {
            let v = make(42, 7, len);
            assert!(check(42, &v, len));
            assert!(!check(43, &v, len), "wrong key");
            assert!(!check(42, &v[..len - 1], len), "truncated");
            for i in 0..len {
                let mut w = v.clone();
                w[i] ^= 1;
                // Flipping a tag byte changes the expected filler, so only a
                // 16-byte payload (no filler) can survive a tag flip.
                assert!(
                    !check(42, &w, len) || (len == 16 && (8..16).contains(&i)),
                    "byte {i} of {len}"
                );
            }
            assert!(!check(42, &corrupt(v), len) || len == 16);
        }
    }
}

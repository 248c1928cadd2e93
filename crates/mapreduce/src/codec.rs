//! Self-describing binary serialization for keys and values.
//!
//! Hadoop's `Writable` interface makes every key/value type responsible
//! for its own wire format; [`Datum`] is the Rust analogue. The engine
//! uses it to serialize intermediate pairs into spill files, to
//! account for shuffle bytes and to partition keys.

use bdb_archsim::layout::{fnv1a_words, fnv1a_words_prefixed};

/// A value that can serialize itself into a byte buffer and back.
///
/// Implementations must round-trip: `decode(encode(x)) == x` and must
/// consume exactly the bytes they produced (so data can be streamed).
///
/// # Example
///
/// ```
/// use bdb_mapreduce::Datum;
/// let mut buf = Vec::new();
/// 42u64.encode(&mut buf);
/// "hi".to_owned().encode(&mut buf);
/// let mut slice = buf.as_slice();
/// assert_eq!(u64::decode(&mut slice), Some(42));
/// assert_eq!(String::decode(&mut slice), Some("hi".to_owned()));
/// assert!(slice.is_empty());
/// ```
pub trait Datum: Sized + Clone + Send + Sync {
    /// Appends the wire representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Reads one value from the front of `input`, advancing the slice.
    /// Returns `None` on malformed or truncated input.
    fn decode(input: &mut &[u8]) -> Option<Self>;

    /// Approximate in-memory size in bytes, used for spill accounting.
    fn size_hint(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// The [`fnv1a_words`] hash of this value's encoding — the engine's
    /// partitioning hash, as Hadoop partitions by the key's own
    /// `hashCode`. The default encodes into the reused `scratch`; a type
    /// whose encoding frames bytes it already holds hashes them in
    /// place, which skips the copy and hashing bytes just written.
    fn encoded_hash(&self, scratch: &mut Vec<u8>) -> u64 {
        scratch.clear();
        self.encode(scratch);
        fnv1a_words(scratch)
    }
}

/// The 4-byte length prefix of a variable-length encoding.
fn len_prefix(len: usize) -> [u8; 4] {
    (len as u32).to_le_bytes()
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! int_datum {
    ($($t:ty),*) => {$(
        impl Datum for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
            fn size_hint(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

int_datum!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Datum for f32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f32::from_le_bytes(take(input, 4)?.try_into().ok()?))
    }
    fn size_hint(&self) -> usize {
        4
    }
}

impl Datum for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f64::from_le_bytes(take(input, 8)?.try_into().ok()?))
    }
    fn size_hint(&self) -> usize {
        8
    }
}

impl Datum for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&len_prefix(self.len()));
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    fn size_hint(&self) -> usize {
        4 + self.len()
    }
    fn encoded_hash(&self, _scratch: &mut Vec<u8>) -> u64 {
        fnv1a_words_prefixed(len_prefix(self.len()), self.as_bytes())
    }
}

impl Datum for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&len_prefix(self.len()));
        buf.extend_from_slice(self);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        Some(take(input, len)?.to_vec())
    }
    fn size_hint(&self) -> usize {
        4 + self.len()
    }
    fn encoded_hash(&self, _scratch: &mut Vec<u8>) -> u64 {
        fnv1a_words_prefixed(len_prefix(self.len()), self)
    }
}

impl Datum for Vec<u32> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for x in self {
            x.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let mut v = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            v.push(u32::decode(input)?);
        }
        Some(v)
    }
    fn size_hint(&self) -> usize {
        4 + self.len() * 4
    }
}

impl Datum for Vec<f64> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for x in self {
            x.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let mut v = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            v.push(f64::decode(input)?);
        }
        Some(v)
    }
    fn size_hint(&self) -> usize {
        4 + self.len() * 8
    }
}

impl Datum for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
    fn size_hint(&self) -> usize {
        0
    }
}

impl<A: Datum, B: Datum> Datum for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint()
    }
}

impl<A: Datum, B: Datum, C: Datum> Datum for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint() + self.2.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Datum + PartialEq + std::fmt::Debug>(x: T) {
        let mut buf = Vec::new();
        x.encode(&mut buf);
        assert_eq!(buf.len(), x.size_hint());
        assert_eq!(x.encoded_hash(&mut Vec::new()), fnv1a_words(&buf), "hash of the encoding");
        let mut slice = buf.as_slice();
        assert_eq!(T::decode(&mut slice), Some(x));
        assert!(slice.is_empty(), "decode must consume exactly its bytes");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-5i32);
        roundtrip(i64::MIN);
        roundtrip(3.25f32);
        roundtrip(-0.125f64);
        roundtrip(());
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        roundtrip(String::new());
        roundtrip("héllo wörld".to_owned());
        roundtrip(vec![0u8, 1, 255]);
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(vec![1.5f64, -2.5]);
    }

    #[test]
    fn in_place_hashes_match_the_encoding_at_every_length() {
        let text = "héllo wörld, a big data benchmark from internet services";
        for end in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            roundtrip(text[..end].to_owned());
            roundtrip(text.as_bytes()[..end].to_vec());
        }
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((42u64, "k".to_owned()));
        roundtrip((1u32, 2.0f64, "x".to_owned()));
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut buf = Vec::new();
        "hello".to_owned().encode(&mut buf);
        let mut short = &buf[..buf.len() - 1];
        assert_eq!(String::decode(&mut short), None);
        let mut empty: &[u8] = &[];
        assert_eq!(u64::decode(&mut empty), None);
    }

    #[test]
    fn invalid_utf8_returns_none() {
        let mut buf = Vec::new();
        3u32.encode(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE, 0xFD]);
        let mut slice = buf.as_slice();
        assert_eq!(String::decode(&mut slice), None);
    }

    #[test]
    fn stream_of_mixed_values() {
        let mut buf = Vec::new();
        for i in 0..100u64 {
            i.encode(&mut buf);
            format!("v{i}").encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for i in 0..100u64 {
            assert_eq!(u64::decode(&mut slice), Some(i));
            assert_eq!(String::decode(&mut slice), Some(format!("v{i}")));
        }
        assert!(slice.is_empty());
    }
}

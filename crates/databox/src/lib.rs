//! # hcl-databox — the DataBox abstraction (paper §III-C)
//!
//! A *DataBox* is HCL's template for "defining, serializing, transmitting and
//! storing complex data structures". The key properties reproduced here:
//!
//! * **Byte-copyable fast path** — "DataBoxes do not use serialization for
//!   simple byte-copyable data types": types with
//!   [`DataBox::FIXED_SIZE`]`= Some(n)` are encoded as exactly `n` raw bytes
//!   with no framing.
//! * **Fixed vs variable length resolved at compile time** — the associated
//!   const plays the role of the paper's compile-time distinction.
//! * **Pluggable serialization backends** — the paper supports MSGPACK,
//!   Cereal and FlatBuffers; we provide three in-tree codecs with the same
//!   trade-off spectrum ([`codec::FixedCodec`], [`codec::PackCodec`],
//!   [`codec::SelfDescribingCodec`]) behind one [`codec::Codec`] trait.
//! * **Native STL-container support** — `String`, `Vec`, `Option`, tuples,
//!   arrays, `HashMap`/`BTreeMap`/`HashSet`/`BTreeSet`/`VecDeque` all
//!   implement [`DataBox`] out of the box.
//! * **User-defined types** — the [`databox_struct!`] macro implements
//!   [`DataBox`] for user structs (the paper's "users can define their own
//!   custom serialization function").

pub mod codec;
pub mod impls;
pub mod varint;

use bytes::Bytes;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A length/discriminant field held an invalid value.
    Invalid {
        /// What was being decoded.
        context: &'static str,
    },
    /// Self-describing codec: the embedded type tag did not match.
    TypeMismatch {
        /// Tag found in the input.
        found: u64,
        /// Tag expected for the requested type.
        expected: u64,
    },
    /// Trailing bytes remained after a full decode where none were expected.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { context } => write!(f, "truncated input decoding {context}"),
            CodecError::Invalid { context } => write!(f, "invalid encoding for {context}"),
            CodecError::TypeMismatch { found, expected } => {
                write!(f, "type tag mismatch: found {found:#x}, expected {expected:#x}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A byte cursor used by [`DataBox::unpack`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` bytes, advancing the cursor.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Decode a varint-encoded u64.
    pub fn take_varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let (v, n) = varint::decode(&self.buf[self.pos..])
            .ok_or(CodecError::Truncated { context })?;
        self.pos += n;
        Ok(v)
    }
}

/// The encode half of [`DataBox`], and all a request needs of its
/// arguments. It is implemented for every `DataBox` type and for references
/// to one, so a container can send `&key` without cloning the key.
pub trait Pack {
    /// Append the encoding to `out` (the bytes [`DataBox::pack`] writes).
    fn pack_into(&self, out: &mut Vec<u8>);

    /// Expected encoded length ([`DataBox::size_hint`]).
    fn pack_hint(&self) -> usize;
}

impl<T: Pack + ?Sized> Pack for &T {
    #[inline]
    fn pack_into(&self, out: &mut Vec<u8>) {
        (**self).pack_into(out)
    }

    #[inline]
    fn pack_hint(&self) -> usize {
        (**self).pack_hint()
    }
}

/// Implement [`Pack`] for a [`DataBox`] type by forwarding to its encoder:
/// `impl_pack!([generics] Type)`, with an optional trailing `where` clause.
#[doc(hidden)]
#[macro_export]
macro_rules! impl_pack {
    ([$($g:tt)*] $ty:ty $(where $($w:tt)+)?) => {
        impl<$($g)*> $crate::Pack for $ty $(where $($w)+)? {
            #[inline]
            fn pack_into(&self, out: &mut Vec<u8>) {
                $crate::DataBox::pack(self, out)
            }
            #[inline]
            fn pack_hint(&self) -> usize {
                $crate::DataBox::size_hint(self)
            }
        }
    };
}

/// The DataBox trait: every value that crosses the fabric, lives in a
/// distributed container, or is persisted implements this (and [`Pack`],
/// usually through `impl_pack!`).
pub trait DataBox: Pack + Sized {
    /// `Some(n)` when the encoding of every value of this type is exactly
    /// `n` bytes (the byte-copyable fast path); `None` for variable-length
    /// types. Containers use this to choose fixed-slot vs allocator-backed
    /// storage at compile time.
    const FIXED_SIZE: Option<usize>;

    /// Append this value's encoding to `out`.
    fn pack(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader, advancing it.
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Expected encoded length of *this* value, used by encode paths (batch
    /// arenas, request buffers) to pre-reserve capacity. Fixed-size types
    /// answer exactly; variable-length types fall back to a small default
    /// and may override with a tighter estimate.
    fn size_hint(&self) -> usize {
        Self::FIXED_SIZE.unwrap_or(16)
    }

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.size_hint());
        self.pack(&mut out);
        Bytes::from(out)
    }

    /// Append this value's encoding to a reusable builder (the zero-copy RPC
    /// encode path): no intermediate `Vec`/`Bytes` is created, and a cleared
    /// builder with sufficient capacity reaches zero steady-state
    /// allocations per encoded value.
    fn encode_into(&self, out: &mut bytes::BytesMut) {
        self.pack(out.vec_mut());
    }

    /// Convenience: decode a value that must consume the whole input.
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::unpack(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

/// Stable 64-bit type tag used by the self-describing codec. Derived from
/// `std::any::type_name`, FNV-1a hashed; stable within a build, which is the
/// scope a wire format shared by SPMD ranks of one binary needs.
pub fn type_tag<T: 'static>() -> u64 {
    let name = std::any::type_name::<T>();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Implement [`DataBox`] for a user struct field-by-field.
///
/// ```
/// use hcl_databox::{databox_struct, DataBox};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Particle { id: u64, pos: (f64, f64), tags: Vec<String> }
/// databox_struct!(Particle { id: u64, pos: (f64, f64), tags: Vec<String> });
///
/// let p = Particle { id: 7, pos: (1.0, -2.5), tags: vec!["a".into()] };
/// let b = p.to_bytes();
/// assert_eq!(Particle::from_bytes(&b).unwrap(), p);
/// ```
#[macro_export]
macro_rules! databox_struct {
    ($name:ident { $($field:ident : $ty:ty),+ $(,)? }) => {
        $crate::impl_pack!([] $name);

        impl $crate::DataBox for $name {
            const FIXED_SIZE: Option<usize> = {
                // Sum of field sizes when every field is fixed, else None.
                let mut total = 0usize;
                let mut all_fixed = true;
                $(
                    match <$ty as $crate::DataBox>::FIXED_SIZE {
                        Some(n) => total += n,
                        None => all_fixed = false,
                    }
                )+
                if all_fixed { Some(total) } else { None }
            };

            fn pack(&self, out: &mut Vec<u8>) {
                $( $crate::DataBox::pack(&self.$field, out); )+
            }

            fn unpack(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CodecError> {
                Ok($name {
                    $( $field: <$ty as $crate::DataBox>::unpack(r)?, )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_distinguish_types() {
        assert_ne!(type_tag::<u64>(), type_tag::<i64>());
        assert_ne!(type_tag::<String>(), type_tag::<Vec<u8>>());
        assert_eq!(type_tag::<u64>(), type_tag::<u64>());
    }

    #[test]
    fn reader_truncation_detected() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.take(2, "t").unwrap(), &[1, 2]);
        assert!(matches!(r.take(2, "t"), Err(CodecError::Truncated { .. })));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Fixed {
        a: u32,
        b: u64,
    }
    databox_struct!(Fixed { a: u32, b: u64 });

    #[derive(Debug, Clone, PartialEq)]
    struct Var {
        a: u32,
        s: String,
    }
    databox_struct!(Var { a: u32, s: String });

    #[test]
    fn struct_macro_fixed_size_propagation() {
        assert_eq!(Fixed::FIXED_SIZE, Some(12));
        assert_eq!(Var::FIXED_SIZE, None);
    }

    #[test]
    fn struct_macro_roundtrip() {
        let f = Fixed { a: 5, b: u64::MAX };
        assert_eq!(Fixed::from_bytes(&f.to_bytes()).unwrap(), f);
        let v = Var { a: 9, s: "hello".into() };
        assert_eq!(Var::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut b = 7u32.to_bytes().to_vec();
        b.push(0);
        assert!(matches!(u32::from_bytes(&b), Err(CodecError::TrailingBytes(1))));
    }
}

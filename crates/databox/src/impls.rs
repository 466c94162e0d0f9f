//! [`DataBox`] implementations for primitives and standard containers —
//! the paper's "native support for standard STL containers".

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

use bytes::Bytes;

use crate::varint;
use crate::{impl_pack, CodecError, DataBox, Reader};

macro_rules! fixed_int {
    ($($ty:ty => $n:expr),+ $(,)?) => {
        $(
            impl_pack!([] $ty);
            impl DataBox for $ty {
                const FIXED_SIZE: Option<usize> = Some($n);
                fn pack(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    let b = r.take($n, stringify!($ty))?;
                    let mut a = [0u8; $n];
                    a.copy_from_slice(b);
                    Ok(<$ty>::from_le_bytes(a))
                }
            }
        )+
    };
}

fixed_int! {
    u8 => 1, u16 => 2, u32 => 4, u64 => 8, u128 => 16,
    i8 => 1, i16 => 2, i32 => 4, i64 => 8, i128 => 16,
    f32 => 4, f64 => 8,
}

impl_pack!([] usize);
impl DataBox for usize {
    const FIXED_SIZE: Option<usize> = Some(8);
    fn pack(&self, out: &mut Vec<u8>) {
        (*self as u64).pack(out);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::unpack(r)? as usize)
    }
}

impl_pack!([] isize);
impl DataBox for isize {
    const FIXED_SIZE: Option<usize> = Some(8);
    fn pack(&self, out: &mut Vec<u8>) {
        (*self as i64).pack(out);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(i64::unpack(r)? as isize)
    }
}

impl_pack!([] bool);
impl DataBox for bool {
    const FIXED_SIZE: Option<usize> = Some(1);
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { context: "bool" }),
        }
    }
}

impl_pack!([] char);
impl DataBox for char {
    const FIXED_SIZE: Option<usize> = Some(4);
    fn pack(&self, out: &mut Vec<u8>) {
        (*self as u32).pack(out);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        char::from_u32(u32::unpack(r)?).ok_or(CodecError::Invalid { context: "char" })
    }
}

impl_pack!([] ());
impl DataBox for () {
    const FIXED_SIZE: Option<usize> = Some(0);
    fn pack(&self, _out: &mut Vec<u8>) {}
    fn unpack(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl_pack!([] String);
impl DataBox for String {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        out.extend_from_slice(self.as_bytes());
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("String.len")? as usize;
        let b = r.take(len, "String.bytes")?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::Invalid { context: "String.utf8" })
    }
}

impl_pack!([] Bytes);
impl DataBox for Bytes {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        out.extend_from_slice(self);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("Bytes.len")? as usize;
        Ok(Bytes::copy_from_slice(r.take(len, "Bytes.data")?))
    }
}

impl_pack!([T: DataBox] Vec<T>);
impl<T: DataBox> DataBox for Vec<T> {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        for item in self {
            item.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("Vec.len")? as usize;
        // Guard against hostile lengths: cap the pre-reservation.
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::unpack(r)?);
        }
        Ok(v)
    }
}

impl_pack!([T: DataBox] VecDeque<T>);
impl<T: DataBox> DataBox for VecDeque<T> {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        for item in self {
            item.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("VecDeque.len")? as usize;
        let mut v = VecDeque::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push_back(T::unpack(r)?);
        }
        Ok(v)
    }
}

impl_pack!([T: DataBox] Option<T>);
impl<T: DataBox> DataBox for Option<T> {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.pack(out);
            }
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8("Option.tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(r)?)),
            _ => Err(CodecError::Invalid { context: "Option.tag" }),
        }
    }
}

impl_pack!([T: DataBox, E: DataBox] Result<T, E>);
impl<T: DataBox, E: DataBox> DataBox for Result<T, E> {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.pack(out);
            }
            Err(e) => {
                out.push(1);
                e.pack(out);
            }
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8("Result.tag")? {
            0 => Ok(Ok(T::unpack(r)?)),
            1 => Ok(Err(E::unpack(r)?)),
            _ => Err(CodecError::Invalid { context: "Result.tag" }),
        }
    }
}

impl_pack!([T: DataBox, const N: usize] [T; N]);
impl<T: DataBox, const N: usize> DataBox for [T; N] {
    const FIXED_SIZE: Option<usize> = match T::FIXED_SIZE {
        Some(n) => Some(n * N),
        None => None,
    };
    fn pack(&self, out: &mut Vec<u8>) {
        for item in self {
            item.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::unpack(r)?);
        }
        v.try_into().map_err(|_| CodecError::Invalid { context: "array" })
    }
}

macro_rules! tuple_impl {
    ($($name:ident),+) => {
        impl_pack!([$($name: DataBox),+] ($($name,)+));
        impl<$($name: DataBox),+> DataBox for ($($name,)+) {
            const FIXED_SIZE: Option<usize> = {
                let mut total = 0usize;
                let mut all_fixed = true;
                $(
                    match $name::FIXED_SIZE {
                        Some(n) => total += n,
                        None => all_fixed = false,
                    }
                )+
                if all_fixed { Some(total) } else { None }
            };
            #[allow(non_snake_case)]
            fn pack(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $( $name.pack(out); )+
            }
            fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::unpack(r)?,)+))
            }
        }
    };
}

tuple_impl!(A);
tuple_impl!(A, B);
tuple_impl!(A, B, C);
tuple_impl!(A, B, C, D);
tuple_impl!(A, B, C, D, E);
tuple_impl!(A, B, C, D, E, F);

impl_pack!([K, V, S] HashMap<K, V, S>
    where K: DataBox + Eq + Hash, V: DataBox, S: BuildHasher + Default);
impl<K, V, S> DataBox for HashMap<K, V, S>
where
    K: DataBox + Eq + Hash,
    V: DataBox,
    S: BuildHasher + Default,
{
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        for (k, v) in self {
            k.pack(out);
            v.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("HashMap.len")? as usize;
        let mut m = HashMap::with_capacity_and_hasher(len.min(4096), S::default());
        for _ in 0..len {
            m.insert(K::unpack(r)?, V::unpack(r)?);
        }
        Ok(m)
    }
}

impl_pack!([K: DataBox + Ord, V: DataBox] BTreeMap<K, V>);
impl<K: DataBox + Ord, V: DataBox> DataBox for BTreeMap<K, V> {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        for (k, v) in self {
            k.pack(out);
            v.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("BTreeMap.len")? as usize;
        let mut m = BTreeMap::new();
        for _ in 0..len {
            let k = K::unpack(r)?;
            let v = V::unpack(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl_pack!([T, S] HashSet<T, S> where T: DataBox + Eq + Hash, S: BuildHasher + Default);
impl<T, S> DataBox for HashSet<T, S>
where
    T: DataBox + Eq + Hash,
    S: BuildHasher + Default,
{
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        for item in self {
            item.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("HashSet.len")? as usize;
        let mut s = HashSet::with_capacity_and_hasher(len.min(4096), S::default());
        for _ in 0..len {
            s.insert(T::unpack(r)?);
        }
        Ok(s)
    }
}

impl_pack!([T: DataBox + Ord] BTreeSet<T>);
impl<T: DataBox + Ord> DataBox for BTreeSet<T> {
    const FIXED_SIZE: Option<usize> = None;
    fn pack(&self, out: &mut Vec<u8>) {
        varint::encode(self.len() as u64, out);
        for item in self {
            item.pack(out);
        }
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_varint("BTreeSet.len")? as usize;
        let mut s = BTreeSet::new();
        for _ in 0..len {
            s.insert(T::unpack(r)?);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: DataBox + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
        if let Some(n) = T::FIXED_SIZE {
            assert_eq!(b.len(), n, "fixed-size type encoded to wrong length");
        }
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(i8::MIN);
        roundtrip(i64::MIN);
        roundtrip(i128::MIN);
        roundtrip(-0.0f32);
        roundtrip(f64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip('π');
        roundtrip(());
        roundtrip(usize::MAX >> 1);
        roundtrip(isize::MIN >> 1);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let b = f64::NAN.to_bytes();
        assert!(f64::from_bytes(&b).unwrap().is_nan());
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        roundtrip(String::new());
        roundtrip("κλειδί 🔑".to_string());
        roundtrip(Bytes::from_static(b"\x00\xff raw"));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        varint::encode(2, &mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(String::from_bytes(&buf), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(matches!(bool::from_bytes(&[2]), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn invalid_char_rejected() {
        let b = 0xD800u32.to_bytes(); // unpaired surrogate
        assert!(matches!(char::from_bytes(&b), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(vec!["a".to_string(), "".to_string()]);
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip(Ok::<u32, String>(7));
        roundtrip(Err::<u32, String>("boom".into()));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip((1u8, "x".to_string(), vec![9u64]));
        roundtrip([1u64, 2, 3]);
        roundtrip(VecDeque::from(vec![5u8, 6]));
        roundtrip(BTreeMap::from([(1u32, "one".to_string()), (2, "two".to_string())]));
        roundtrip(BTreeSet::from([3u16, 1, 2]));
        roundtrip(HashMap::<u32, u64>::from([(1, 10), (2, 20)]));
        roundtrip(HashSet::<String>::from(["k".to_string()]));
    }

    #[test]
    fn fixed_size_composition() {
        assert_eq!(<(u32, u64)>::FIXED_SIZE, Some(12));
        assert_eq!(<(u32, String)>::FIXED_SIZE, None);
        assert_eq!(<[u16; 4]>::FIXED_SIZE, Some(8));
        assert_eq!(<[String; 2]>::FIXED_SIZE, None);
        assert_eq!(<Vec<u8>>::FIXED_SIZE, None);
    }

    #[test]
    fn hostile_length_does_not_oom() {
        // A Vec claiming u64::MAX elements must fail with Truncated,
        // not allocate.
        let mut buf = Vec::new();
        varint::encode(u64::MAX, &mut buf);
        assert!(matches!(Vec::<u64>::from_bytes(&buf), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn nested_containers() {
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
        roundtrip(BTreeMap::from([("k".to_string(), vec![Some(1u32), None])]));
    }
}

//! Cheap-to-clone byte buffers and the little-endian codec.
//!
//! In-tree replacement for the subset of the `bytes` crate the workspace
//! uses (hermetic build policy — see DESIGN.md): [`Bytes`] is an
//! `Arc<[u8]>` so block replicas and RPC payloads clone by reference
//! count, [`BufMut`] writes the little-endian encodings, and [`Reader`] is
//! the one way to read them back.
//!
//! Every buffer a decoder sees may come off the DFS damaged, so no read
//! panics: each checks the bytes left first, an on-disk count is bounded
//! by the bytes left before anything is allocated for it
//! ([`Reader::count`]), and an encoding with bytes left over is rejected
//! ([`Reader::decode`]) — each failure a [`Corrupt`] error naming the
//! format.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes(Arc::from(&[][..]))
    }

    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes(Arc::from(data))
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::from(data))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A fixed-width value with a little-endian encoding: what [`Reader::get`]
/// and [`Reader::vec`] read. A pair encodes as its two halves in order.
pub trait Scalar: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;

    /// Decode from exactly `WIDTH` bytes ([`Reader`] never passes other).
    fn from_le(raw: &[u8]) -> Self;

    /// Append the encoding to `buf`.
    fn put_le(self, buf: &mut impl BufMut);
}

macro_rules! scalar {
    ($($ty:ty),* $(,)?) => {
        $(
            impl Scalar for $ty {
                const WIDTH: usize = std::mem::size_of::<$ty>();

                fn from_le(raw: &[u8]) -> Self {
                    <$ty>::from_le_bytes(raw.try_into().expect("a scalar decodes from WIDTH bytes"))
                }

                fn put_le(self, buf: &mut impl BufMut) {
                    buf.put_slice(&self.to_le_bytes());
                }
            }
        )*
    };
}

scalar!(u8, u32, u64, i64, f32, f64);

impl<A: Scalar, B: Scalar> Scalar for (A, B) {
    const WIDTH: usize = A::WIDTH + B::WIDTH;

    fn from_le(raw: &[u8]) -> Self {
        let (a, b) = raw.split_at(A::WIDTH);
        (A::from_le(a), B::from_le(b))
    }

    fn put_le(self, buf: &mut impl BufMut) {
        self.0.put_le(buf);
        self.1.put_le(buf);
    }
}

/// Why an encoding did not decode: which format, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt {
    what: &'static str,
    why: String,
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt {}: {}", self.what, self.why)
    }
}

impl std::error::Error for Corrupt {}

/// Bounds-checked read cursor over an untrusted encoding (see the module
/// docs for what it guarantees).
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Decode all of `buf` with `f`; `what` names the format in error
    /// messages. The encoding ends where `f` stops reading: anything left
    /// over is corruption.
    pub fn decode<T, E: From<Corrupt>>(
        buf: &'a [u8],
        what: &'static str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut r = Reader { buf, what };
        let value = f(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// A [`Corrupt`] error for this reader's format.
    pub fn corrupt(&self, why: impl Into<String>) -> Corrupt {
        Corrupt { what: self.what, why: why.into() }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Corrupt> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or_else(|| self.corrupt("truncated"))?;
        self.buf = tail;
        Ok(head)
    }

    /// The next bytes must be `magic`.
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), Corrupt> {
        if self.bytes(magic.len())? != magic {
            return Err(self.corrupt("bad magic"));
        }
        Ok(())
    }

    /// The next value.
    pub fn get<T: Scalar>(&mut self) -> Result<T, Corrupt> {
        Ok(T::from_le(self.bytes(T::WIDTH)?))
    }

    /// A `u64` field used as an in-memory size or index.
    pub fn usize(&mut self) -> Result<usize, Corrupt> {
        usize::try_from(self.get::<u64>()?)
            .map_err(|_| self.corrupt("field exceeds the address space"))
    }

    /// An on-disk count, stored as an `N`, of items that take at least
    /// `width` (> 0) bytes each: no more than the bytes left can hold.
    pub fn count<N: Scalar + Into<u64>>(&mut self, width: usize) -> Result<usize, Corrupt> {
        let n = self.get::<N>()?.into();
        if n > (self.buf.len() / width) as u64 {
            return Err(self.corrupt("count exceeds the bytes present"));
        }
        Ok(n as usize)
    }

    /// The next `n` values, decoded as one run: the length is checked once.
    pub fn vec<T: Scalar>(&mut self, n: usize) -> Result<Vec<T>, Corrupt> {
        let len = n.checked_mul(T::WIDTH).ok_or_else(|| self.corrupt("length overflows"))?;
        Ok(self.bytes(len)?.chunks_exact(T::WIDTH).map(T::from_le).collect())
    }

    /// The encoding ends here: anything left over is corruption.
    fn finish(self) -> Result<(), Corrupt> {
        if !self.buf.is_empty() {
            return Err(self.corrupt("trailing bytes"));
        }
        Ok(())
    }
}

macro_rules! put_le {
    ($($name:ident($ty:ty)),* $(,)?) => {
        $(
            fn $name(&mut self, v: $ty) {
                self.put_slice(&v.to_le_bytes());
            }
        )*
    };
}

/// Append-only write cursor for the little-endian wire encodings.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le! {
        put_u32_le(u32),
        put_u64_le(u64),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_shares_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    fn decode<'a, T>(
        buf: &'a [u8],
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, Corrupt>,
    ) -> Result<T, Corrupt> {
        Reader::decode(buf, "test", f)
    }

    #[test]
    fn le_roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_i64_le(-42);
        buf.put_f32_le(1.5);
        buf.put_f64_le(-2.25);
        (3u64, -0.5f64).put_le(&mut buf);
        let back = decode(&buf, |r| {
            let ints = (r.get::<u8>()?, r.get::<u32>()?, r.get::<u64>()?, r.get::<i64>()?);
            Ok((ints, r.get::<f32>()?, r.get::<f64>()?, r.vec::<(u64, f64)>(1)?))
        });
        assert_eq!(back, Ok(((7, 0xDEAD_BEEF, u64::MAX - 1, -42), 1.5, -2.25, vec![(3, -0.5)])));
    }

    #[test]
    fn every_short_read_is_an_error() {
        fn err<T>(why: &str) -> Result<T, Corrupt> {
            Err(Corrupt { what: "test", why: why.into() })
        }
        assert_eq!(decode(&[1, 2, 3], |r| r.get::<u64>()), err("truncated"));
        assert_eq!(decode(&[1, 2, 3], |r| r.vec::<u64>(usize::MAX)), err("length overflows"));
        assert_eq!(decode(&[1, 2, 3], |r| r.magic(b"\x01\x09")), err("bad magic"));
        assert_eq!(decode(&[1, 2, 3], |r| r.magic(b"\x01")), err("trailing bytes"));
        // A count is bounded by the bytes after it, whatever its width.
        let mut buf = Vec::new();
        buf.put_u64_le(3);
        buf.put_slice(&[0; 16]);
        let too_many = err("count exceeds the bytes present");
        assert_eq!(decode(&buf, |r| r.count::<u64>(8)), too_many);
        let mut buf = Vec::new();
        buf.put_u32_le(3);
        buf.put_slice(&[0; 15]);
        assert_eq!(decode(&buf, |r| r.count::<u32>(5).and_then(|n| r.bytes(15).map(|_| n))), Ok(3));
        assert_eq!(decode(&buf, |r| r.count::<u32>(6)), too_many);
    }
}

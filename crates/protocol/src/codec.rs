//! The byte codec behind every format of the workspace.
//!
//! A format is its fields in order with nothing between them, and each
//! field type says once, in its [`Field`] impl, how it is written, read
//! back and sized. The wire's message bodies are rows of `layout!`
//! tables (`crate::wire`); a checkpoint's blocks are structs declared
//! with [`record!`](crate::record). Both derive encode, decode and size
//! from their rows.
//!
//! Multi-byte integers are little-endian; `f64` is its IEEE bits. A
//! `bool` is one byte, 0 or 1, and an `Option` is that flag, then the
//! value if it is 1. A `Vec`, a byte payload and a `String` are a `u32`
//! count, then that many elements (a `Region`: its rectangles in
//! canonical order). Rectangles are `x: i32, y: i32, w: u32, h: u32`;
//! colors are `r, g, b, a` bytes; an enum without data is one code
//! byte.
//!
//! `get` reads from the front of a buffer that is all here, so a
//! shortfall is damage, never a reason to wait. A count is checked
//! against the bytes left before anything is allocated for it.

pub use bytes::BufMut;
use thinc_raster::{Color, PixelFormat, Rect, Region, YuvFormat};

use crate::commands::RawEncoding;
use crate::payload::Bytes;
use crate::wire::DecodeError;

/// One field of a format: how it is written, read back and sized.
pub trait Field: Sized {
    /// No value of the type takes fewer bytes. A counted sequence of
    /// `n` needs `n × MIN_LEN` bytes left before it is read.
    const MIN_LEN: u64;
    /// Appends the field's bytes.
    fn put(&self, out: &mut impl BufMut);
    /// Reads the field from the front of `buf`, advancing it.
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError>;
    /// Bytes [`put`](Self::put) appends: [`MIN_LEN`](Self::MIN_LEN)
    /// unless the type's length varies. (Not `len`, which would shadow
    /// a [`Bytes`] payload's own length wherever the trait is in scope.)
    fn wire_len(&self) -> u64 {
        Self::MIN_LEN
    }

    /// Appends the elements of a counted sequence, after its count.
    /// Bytes move as one slice; anything else element by element.
    fn put_seq(items: &[Self], out: &mut impl BufMut) {
        for item in items {
            item.put(out);
        }
    }
    /// Reads `n` elements of a counted sequence, after its count.
    fn get_seq(n: usize, buf: &mut &[u8]) -> Result<Vec<Self>, DecodeError> {
        (0..n).map(|_| Self::get(buf)).collect()
    }
    /// Bytes [`put_seq`](Self::put_seq) appends.
    fn seq_len(items: &[Self]) -> u64 {
        items.iter().map(Self::wire_len).sum()
    }
}

/// A format shorter than its fields, inside bytes that are all here:
/// no further bytes can complete it.
pub(crate) const SHORT: DecodeError = DecodeError::Malformed("body shorter than its layout");

/// The next `N` bytes of `buf`.
fn take<'a, const N: usize>(buf: &mut &'a [u8]) -> Result<&'a [u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(SHORT)?;
    *buf = rest;
    Ok(head)
}

/// A byte payload read in place: its `u32` count, then the bytes,
/// borrowed from `buf`.
pub fn payload<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let len = u32::get(buf)? as usize;
    let (data, rest) = buf.split_at_checked(len).ok_or(SHORT)?;
    *buf = rest;
    Ok(data)
}

/// `value`'s bytes.
pub fn to_bytes<T: Field>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

macro_rules! int_fields {
    ($($int:ty $({ $($seq:item)+ })?),+) => {$(
        impl Field for $int {
            const MIN_LEN: u64 = std::mem::size_of::<Self>() as u64;
            fn put(&self, out: &mut impl BufMut) {
                out.put_slice(&self.to_le_bytes());
            }
            fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                take(buf).map(|bytes| Self::from_le_bytes(*bytes))
            }
            $($($seq)+)?
        }
    )+};
}

int_fields! {
    // A counted sequence of bytes is a payload: one slice each way.
    u8 {
        fn put_seq(items: &[Self], out: &mut impl BufMut) {
            out.put_slice(items);
        }
        fn get_seq(n: usize, buf: &mut &[u8]) -> Result<Vec<Self>, DecodeError> {
            let (data, rest) = buf.split_at_checked(n).ok_or(SHORT)?;
            *buf = rest;
            Ok(data.to_vec())
        }
        fn seq_len(items: &[Self]) -> u64 {
            items.len() as u64
        }
    },
    u16, u32, i32, u64
}

impl Field for bool {
    const MIN_LEN: u64 = 1;
    fn put(&self, out: &mut impl BufMut) {
        out.put_u8(u8::from(*self));
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::get(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("flag byte other than 0 or 1")),
        }
    }
}

impl Field for f64 {
    const MIN_LEN: u64 = 8;
    fn put(&self, out: &mut impl BufMut) {
        self.to_bits().put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        u64::get(buf).map(f64::from_bits)
    }
}

impl Field for Rect {
    const MIN_LEN: u64 = 16;
    fn put(&self, out: &mut impl BufMut) {
        self.x.put(out);
        self.y.put(out);
        self.w.put(out);
        self.h.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Rect::new(Field::get(buf)?, Field::get(buf)?, Field::get(buf)?, Field::get(buf)?))
    }
}

impl Field for Color {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        out.put_slice(&[self.r, self.g, self.b, self.a]);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        take(buf).map(|&[r, g, b, a]| Color::rgba(r, g, b, a))
    }
}

/// A counted sequence: a `u32` count, then the elements. A count the
/// bytes left cannot hold is damage, refused before any element is
/// read or any storage reserved.
impl<T: Field> Field for Vec<T> {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        (self.len() as u32).put(out);
        T::put_seq(self, out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = u32::get(buf)? as usize;
        if n as u64 * T::MIN_LEN.max(1) > buf.len() as u64 {
            return Err(SHORT);
        }
        T::get_seq(n, buf)
    }
    fn wire_len(&self) -> u64 {
        4 + T::seq_len(self)
    }
}

/// Laid out as a `Vec<u8>`; decoding copies the bytes into a new
/// allocation.
impl Field for Bytes {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        (self.len() as u32).put(out);
        out.put_slice(self);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Vec::get(buf).map(Bytes::from)
    }
    fn wire_len(&self) -> u64 {
        4 + self.len() as u64
    }
}

/// Laid out as a `Vec<u8>` of UTF-8.
impl Field for String {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        (self.len() as u32).put(out);
        out.put_slice(self.as_bytes());
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        String::from_utf8(Vec::get(buf)?).map_err(|_| DecodeError::Malformed("utf-8 string"))
    }
    fn wire_len(&self) -> u64 {
        4 + self.len() as u64
    }
}

/// A flag byte, then the value if the flag is 1.
impl<T: Field> Field for Option<T> {
    const MIN_LEN: u64 = 1;
    fn put(&self, out: &mut impl BufMut) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(if bool::get(buf)? { Some(T::get(buf)?) } else { None })
    }
    fn wire_len(&self) -> u64 {
        1 + self.as_ref().map_or(0, Field::wire_len)
    }
}

/// `N` values back to back, with no count.
impl<T: Field, const N: usize> Field for [T; N] {
    const MIN_LEN: u64 = N as u64 * T::MIN_LEN;
    fn put(&self, out: &mut impl BufMut) {
        T::put_seq(self, out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        // `get_seq` returns `N` elements or fails, so this never errs.
        T::get_seq(N, buf)?.try_into().map_err(|_| SHORT)
    }
    fn wire_len(&self) -> u64 {
        T::seq_len(self)
    }
}

/// Written in *canonical* y-x banded form, which is a unique function
/// of the pixel set. A live region's internal banding depends on the
/// history of unions and subtractions that built it, so writing it
/// verbatim would make checkpoint(restore(c)) differ from c byte for
/// byte though the state is identical.
impl Field for Region {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        canonical_bands(self.rects()).put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Vec::get(buf).map(|rects| Region::from_rects(&rects))
    }
    fn wire_len(&self) -> u64 {
        canonical_bands(self.rects()).wire_len()
    }
}

/// The unique canonical y-x banding of a disjoint rectangle set:
/// bands split at every distinct y-edge, x-spans merged within each
/// band, vertically adjacent bands with identical x-spans coalesced.
/// Two regions covering the same pixels always produce the same list.
fn canonical_bands(rects: &[Rect]) -> Vec<Rect> {
    let mut ys: Vec<i32> = rects.iter().flat_map(|r| [r.y, r.bottom()]).collect();
    ys.sort_unstable();
    ys.dedup();
    // (y0, y1, merged x-spans) per occupied band.
    type Band = (i32, i32, Vec<(i32, i32)>);
    let mut bands: Vec<Band> = Vec::new();
    for edges in ys.windows(2) {
        let (y0, y1) = (edges[0], edges[1]);
        let mut xs: Vec<(i32, i32)> =
            rects.iter().filter(|r| r.y < y1 && r.bottom() > y0).map(|r| (r.x, r.right())).collect();
        xs.sort_unstable();
        let mut spans: Vec<(i32, i32)> = Vec::new();
        for (a, b) in xs {
            match spans.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => spans.push((a, b)),
            }
        }
        match bands.last_mut() {
            _ if spans.is_empty() => {}
            Some(last) if last.1 == y0 && last.2 == spans => last.1 = y1,
            _ => bands.push((y0, y1, spans)),
        }
    }
    let rect = |y0: i32, y1: i32, (a, b): (i32, i32)| Rect::new(a, y0, (b - a) as u32, (y1 - y0) as u32);
    bands.into_iter().flat_map(|(y0, y1, spans)| spans.into_iter().map(move |span| rect(y0, y1, span))).collect()
}

/// Derives a data-less enum's [`Field`] impl from its rows: one code
/// byte per variant, and any other byte is `Malformed($what)`.
#[macro_export]
macro_rules! code_fields {
    ($($ty:ident ($what:literal) { $($code:literal => $variant:ident),+ })+) => {$(
        impl $crate::codec::Field for $ty {
            const MIN_LEN: u64 = 1;
            fn put(&self, out: &mut impl $crate::codec::BufMut) {
                out.put_u8(match self { $($ty::$variant => $code),+ });
            }
            fn get(buf: &mut &[u8]) -> Result<Self, $crate::wire::DecodeError> {
                match <u8 as $crate::codec::Field>::get(buf)? {
                    $($code => Ok($ty::$variant),)+
                    _ => Err($crate::wire::DecodeError::Malformed($what)),
                }
            }
        }
    )+};
}

code_fields! {
    YuvFormat ("yuv format") { 0 => Yv12, 1 => Yuy2 }
    RawEncoding ("raw encoding") { 0 => None, 1 => PngLike }
    PixelFormat ("pixel format") { 0 => Indexed8, 1 => Rgb565, 2 => Rgb888, 3 => Rgba8888 }
}

/// Declares a struct whose layout is its fields in declaration order,
/// and derives its [`Field`] impl from them: encode, decode and size
/// each walk the one field list. Every field's type must be a `Field`.
///
/// ```
/// thinc_protocol::record! {
///     /// A probe.
///     #[derive(Debug, PartialEq)]
///     pub struct Probe {
///         /// Its id.
///         pub id: u32,
///         /// Its label.
///         pub label: Option<String>,
///     }
/// }
/// use thinc_protocol::codec::{to_bytes, Field};
/// let probe = Probe { id: 7, label: Some("x".into()) };
/// let bytes = to_bytes(&probe);
/// assert_eq!(bytes, [7, 0, 0, 0, 1, 1, 0, 0, 0, b'x']);
/// assert_eq!(Probe::get(&mut &bytes[..]), Ok(probe));
/// ```
#[macro_export]
macro_rules! record {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty,)+
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)+
        }

        impl $name {
            /// The fields in wire order.
            #[cfg(test)]
            #[allow(dead_code)]
            pub(crate) const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];
        }

        impl $crate::codec::Field for $name {
            const MIN_LEN: u64 = 0 $(+ <$ty as $crate::codec::Field>::MIN_LEN)+;
            fn put(&self, out: &mut impl $crate::codec::BufMut) {
                $($crate::codec::Field::put(&self.$field, out);)+
            }
            fn get(buf: &mut &[u8]) -> Result<Self, $crate::wire::DecodeError> {
                // A struct expression evaluates its fields as written.
                Ok(Self { $($field: $crate::codec::Field::get(buf)?,)+ })
            }
            fn wire_len(&self) -> u64 {
                0 $(+ $crate::codec::Field::wire_len(&self.$field))+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::Tile;

    /// `value` written, sized and read back, with nothing left over.
    fn round_trip<T: Field + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(value.wire_len(), bytes.len() as u64, "{value:?}");
        assert!(bytes.len() as u64 >= T::MIN_LEN, "{value:?}");
        let mut rest = &bytes[..];
        assert_eq!(T::get(&mut rest).as_ref(), Ok(&value));
        assert!(rest.is_empty(), "{value:?}");
        for cut in 0..bytes.len() {
            assert!(T::get(&mut &bytes[..cut]).is_err(), "{value:?} cut at {cut}");
        }
    }

    #[test]
    fn every_field_round_trips() {
        round_trip(7u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(-42i32);
        round_trip(u64::MAX - 1);
        round_trip(true);
        round_trip(false);
        round_trip(0.5f64);
        round_trip(-1.25e300f64);
        round_trip(Some(99u64));
        round_trip(None::<u64>);
        round_trip(String::from("owner"));
        round_trip(Some(String::from("pw")));
        round_trip(None::<String>);
        round_trip(Rect::new(-1, 2, 3, 4));
        round_trip(Color::rgba(1, 2, 3, 4));
        round_trip(Some(Color::WHITE));
        round_trip(vec![1u8, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip(Bytes::from(vec![9u8; 40]));
        round_trip(vec![5u64, 6, 7]);
        round_trip(vec![vec![1u32], vec![], vec![2, 3]]);
        round_trip([4u64, 5, 6]);
        round_trip([vec![1u64], vec![]]);
        round_trip(Tile { width: 2, height: 1, pixels: vec![1, 2, 3, 4, 5, 6] });
        for format in [PixelFormat::Indexed8, PixelFormat::Rgb565, PixelFormat::Rgb888, PixelFormat::Rgba8888] {
            round_trip(format);
        }
        round_trip(YuvFormat::Yuy2);
        round_trip(RawEncoding::PngLike);
        let mut region = Region::new();
        region.union_rect(&Rect::new(0, 0, 10, 10));
        region.union_rect(&Rect::new(20, 20, 5, 5));
        round_trip(region);
        round_trip(Region::new());
    }

    #[test]
    fn bad_codes_and_flags_are_malformed() {
        for (what, bytes) in [("flag", &[2u8][..]), ("format", &[4]), ("utf-8", &[1, 0, 0, 0, 0xFF])] {
            let err = match what {
                "flag" => bool::get(&mut &bytes[..]).err(),
                "format" => PixelFormat::get(&mut &bytes[..]).err(),
                _ => String::get(&mut &bytes[..]).err(),
            };
            assert!(matches!(err, Some(DecodeError::Malformed(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn a_region_is_written_in_its_canonical_bands() {
        // The same pixels built two ways are the same bytes.
        let mut a = Region::new();
        a.union_rect(&Rect::new(0, 0, 10, 4));
        a.union_rect(&Rect::new(0, 4, 10, 4));
        let b = Region::from_rect(Rect::new(0, 0, 10, 8));
        assert_eq!(to_bytes(&a), to_bytes(&b));
        assert_eq!(to_bytes(&b), to_bytes(&vec![Rect::new(0, 0, 10, 8)]));
    }

    #[test]
    fn a_count_past_the_bytes_left_is_refused_before_it_is_read() {
        // A count of 2^32 − 1, eight bytes behind it: whatever the
        // element, nothing is read and nothing reserved.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend([0; 8]);
        assert_eq!(Vec::<u8>::get(&mut &bytes[..]), Err(SHORT));
        assert_eq!(Vec::<u64>::get(&mut &bytes[..]), Err(SHORT));
        assert_eq!(Vec::<Region>::get(&mut &bytes[..]), Err(SHORT));
        assert_eq!(Region::get(&mut &bytes[..]), Err(SHORT));
        // Two u64s need 16 bytes; eight are left.
        bytes[..4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Vec::<u64>::get(&mut &bytes[..]), Err(SHORT));
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Vec::<u64>::get(&mut &bytes[..]), Ok(vec![0]));
    }
}

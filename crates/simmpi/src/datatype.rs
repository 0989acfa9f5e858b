//! Plain-old-data element types for typed messages.
//!
//! Messages travel as byte buffers; [`Datum`] provides the fixed-width
//! little-endian (de)serialisation for the element types HPC codes
//! actually ship. Encoding stays explicit per element rather than a
//! `transmute` of the slice — safe and endian-stable — but is shaped so
//! the compiler collapses it to a bulk copy: a paper-scale traced run
//! pushes gigabytes through these two loops.

/// A fixed-width scalar that can be packed into / unpacked from bytes.
pub trait Datum: Copy + Send + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Write the little-endian encoding of `self` into exactly `WIDTH` bytes.
    fn pack(self, dst: &mut [u8]);
    /// Decode from exactly `WIDTH` bytes.
    fn unpack(bytes: &[u8]) -> Self;
}

macro_rules! impl_datum {
    ($($t:ty),*) => {$(
        impl Datum for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn pack(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn unpack(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("datum width"))
            }
        }
    )*};
}

impl_datum!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// Encode a slice of datums into a fresh byte buffer.
pub fn encode<T: Datum>(xs: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * T::WIDTH);
    encode_into(xs, &mut out);
    out
}

/// Encode a slice of datums, appending to an existing buffer — lets the
/// send path reuse pooled payload buffers instead of allocating.
pub fn encode_into<T: Datum>(xs: &[T], out: &mut Vec<u8>) {
    // Resize first and pack into fixed-width windows: no per-element
    // capacity check, and the constant-width `copy_from_slice` lowers to
    // a plain store, so the f64 hot path vectorises to a bulk copy.
    let start = out.len();
    out.resize(start + xs.len() * T::WIDTH, 0);
    for (dst, &x) in out[start..].chunks_exact_mut(T::WIDTH).zip(xs) {
        x.pack(dst);
    }
}

/// Encode a slice of datums into an exactly-sized destination window —
/// the flat-buffer collectives place each rank's block at a fixed offset
/// of one preallocated buffer.
///
/// # Panics
/// Panics if `dst.len() != xs.len() * T::WIDTH`.
pub fn encode_to_slice<T: Datum>(xs: &[T], dst: &mut [u8]) {
    assert_eq!(dst.len(), xs.len() * T::WIDTH, "destination window size");
    for (dst, &x) in dst.chunks_exact_mut(T::WIDTH).zip(xs) {
        x.pack(dst);
    }
}

/// Decode a byte buffer produced by [`encode`].
///
/// # Panics
/// Panics if the buffer length is not a multiple of the datum width.
pub fn decode<T: Datum>(bytes: &[u8]) -> Vec<T> {
    assert!(
        bytes.len().is_multiple_of(T::WIDTH),
        "buffer length {} not a multiple of datum width {}",
        bytes.len(),
        T::WIDTH
    );
    bytes.chunks_exact(T::WIDTH).map(T::unpack).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let xs = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode::<f64>(&encode(&xs)), xs);
    }

    #[test]
    fn u32_roundtrip() {
        let xs = [0u32, 1, u32::MAX, 0xdead_beef];
        assert_eq!(decode::<u32>(&encode(&xs)), xs);
    }

    #[test]
    fn i8_roundtrip() {
        let xs = [-128i8, 0, 127];
        assert_eq!(decode::<i8>(&encode(&xs)), xs);
    }

    #[test]
    fn encoded_width() {
        assert_eq!(encode(&[1.0f64; 7]).len(), 56);
        assert_eq!(encode(&[1u16; 3]).len(), 6);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn decode_rejects_ragged_buffer() {
        decode::<u32>(&[0u8; 5]);
    }

    #[test]
    fn empty_roundtrip() {
        let xs: [f32; 0] = [];
        assert!(decode::<f32>(&encode(&xs)).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn f64_roundtrip_prop(xs in proptest::collection::vec(any::<f64>(), 0..64)) {
            let back = decode::<f64>(&encode(&xs));
            prop_assert_eq!(back.len(), xs.len());
            for (a, b) in back.iter().zip(&xs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn u64_roundtrip_prop(xs in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(decode::<u64>(&encode(&xs)), xs);
        }

        #[test]
        fn i16_roundtrip_prop(xs in proptest::collection::vec(any::<i16>(), 0..64)) {
            prop_assert_eq!(decode::<i16>(&encode(&xs)), xs);
        }
    }
}

//! Wavelet-level wire helpers: packing intermediate block state into 32-bit
//! wavelets for transfer between pipeline PEs.

/// Append-only writer of 32-bit wavelets.
#[derive(Debug, Default)]
pub struct WaveletWriter {
    words: Vec<u32>,
}

impl WaveletWriter {
    /// Fresh writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh writer with room for `n` wavelets, for payloads whose size is
    /// known up front.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            words: Vec::with_capacity(n),
        }
    }

    /// Writer over `words`, cleared: appends into the caller's allocation.
    #[must_use]
    pub fn reuse(mut words: Vec<u32>) -> Self {
        words.clear();
        Self { words }
    }

    /// Push one raw wavelet.
    pub fn put_u32(&mut self, v: u32) {
        self.words.push(v);
    }

    /// Push an `f32` as its bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.words.push(v.to_bits());
    }

    /// Push an `f64` as two wavelets (lo, hi).
    pub fn put_f64(&mut self, v: f64) {
        let bits = v.to_bits();
        self.words.push(bits as u32);
        self.words.push((bits >> 32) as u32);
    }

    /// Push an `i32` two's-complement pattern.
    pub fn put_i32(&mut self, v: i32) {
        self.words.push(v as u32);
    }

    /// Push a byte slice padded with zeros to wavelet alignment.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(4);
        for c in &mut chunks {
            self.words
                .push(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 4];
            last[..rem.len()].copy_from_slice(rem);
            self.words.push(u32::from_le_bytes(last));
        }
    }

    /// Finish, yielding the wavelets.
    #[must_use]
    pub fn finish(self) -> Vec<u32> {
        self.words
    }

    /// Wavelets written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Sequential reader of 32-bit wavelets.
#[derive(Debug)]
pub struct WaveletReader<'a> {
    words: &'a [u32],
    pos: usize,
}

/// Error when a wavelet payload is shorter than its schema requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTruncated;

impl std::fmt::Display for WireTruncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wavelet payload truncated")
    }
}
impl std::error::Error for WireTruncated {}

impl<'a> WaveletReader<'a> {
    /// Read from `words`.
    #[must_use]
    pub fn new(words: &'a [u32]) -> Self {
        Self { words, pos: 0 }
    }

    /// Next raw wavelet.
    pub fn get_u32(&mut self) -> Result<u32, WireTruncated> {
        let v = *self.words.get(self.pos).ok_or(WireTruncated)?;
        self.pos += 1;
        Ok(v)
    }

    /// Next `f32`.
    pub fn get_f32(&mut self) -> Result<f32, WireTruncated> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Next `f64` (lo, hi wavelet pair).
    pub fn get_f64(&mut self) -> Result<f64, WireTruncated> {
        let lo = u64::from(self.get_u32()?);
        let hi = u64::from(self.get_u32()?);
        Ok(f64::from_bits(lo | (hi << 32)))
    }

    /// Next `i32`.
    pub fn get_i32(&mut self) -> Result<i32, WireTruncated> {
        Ok(self.get_u32()? as i32)
    }

    /// The next `n` raw wavelets as one slice.
    pub fn take(&mut self, n: usize) -> Result<&'a [u32], WireTruncated> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.words.len())
            .ok_or(WireTruncated)?;
        let words = &self.words[self.pos..end];
        self.pos = end;
        Ok(words)
    }

    /// Read `n` bytes (consumes `ceil(n/4)` wavelets). Nothing is allocated
    /// unless the payload holds them.
    pub fn get_bytes(&mut self, n: usize) -> Result<Vec<u8>, WireTruncated> {
        let words = self.take(n.div_ceil(4))?;
        let mut out = Vec::with_capacity(n);
        append_bytes(words, n, &mut out);
        Ok(out)
    }

    /// Append `n` bytes to `out` (consumes `ceil(n/4)` wavelets).
    pub fn read_bytes_into(&mut self, n: usize, out: &mut Vec<u8>) -> Result<(), WireTruncated> {
        let words = self.take(n.div_ceil(4))?;
        append_bytes(words, n, out);
        Ok(())
    }

    /// Wavelets remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }
}

/// Append the first `n` bytes packed little-endian in `words`.
fn append_bytes(words: &[u32], n: usize, out: &mut Vec<u8>) {
    let (whole, rest) = (n / 4, n % 4);
    for w in &words[..whole] {
        out.extend_from_slice(&w.to_le_bytes());
    }
    if rest > 0 {
        out.extend_from_slice(&words[whole].to_le_bytes()[..rest]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = WaveletWriter::new();
        w.put_u32(7);
        w.put_f32(-3.25);
        w.put_f64(1.0e-300);
        w.put_i32(-42);
        let words = w.finish();
        assert_eq!(words.len(), 5);
        let mut r = WaveletReader::new(&words);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_f32().unwrap(), -3.25);
        assert_eq!(r.get_f64().unwrap(), 1.0e-300);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_bytes_with_padding() {
        for n in [0usize, 1, 3, 4, 5, 8, 13] {
            let bytes: Vec<u8> = (0..n as u8).collect();
            let mut w = WaveletWriter::new();
            w.put_bytes(&bytes);
            let words = w.finish();
            assert_eq!(words.len(), n.div_ceil(4));
            let mut r = WaveletReader::new(&words);
            assert_eq!(r.get_bytes(n).unwrap(), bytes);
        }
    }

    #[test]
    fn truncation_is_an_error() {
        let words = [1u32];
        let mut r = WaveletReader::new(&words);
        assert!(r.get_f64().is_err());
        let mut r = WaveletReader::new(&words);
        assert_eq!(r.take(2), Err(WireTruncated));
        assert_eq!(r.take(usize::MAX), Err(WireTruncated));
        assert_eq!(r.get_bytes(5), Err(WireTruncated));
        assert_eq!(r.take(1), Ok(&words[..]));
    }
}

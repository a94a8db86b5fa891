//! Adaptive binary range coder (LZMA-style, carry-correct).
//!
//! The coder works on binary decisions, each guided by an adaptive 11-bit
//! probability model ([`BitModel`]). Composite symbols (bytes, lengths) are
//! coded through bit trees. This is the same construction LZMA uses, which
//! is exactly what the paper ran over its keypoint traces.
//!
//! Bit coding is branchless: the interval split and the probability update
//! select their operands with an all-ones/all-zeros mask built from the
//! bit, so the float-mantissa literals of a keypoint frame (close to coin
//! flips) cost no branch mispredictions. Only the `range < TOP`
//! renormalisation branches, and it is taken about once per eight coded
//! bits. After a modelled bit one 8-bit shift always restores the range,
//! so the encoder tests once (see [`RangeEncoder::encode_bit`]); the
//! decoder keeps its `while` loop, which measured faster there. The
//! masked forms compute exactly the values of the textbook
//! `if bit { .. } else { .. }` coder, so the byte stream is unchanged.

use visionsim_core::SimError;

/// Number of probability bits (LZMA convention).
const PROB_BITS: u32 = 11;
/// Initial probability = 0.5.
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
/// Adaptation shift: higher = slower adaptation.
const MOVE_BITS: u32 = 5;
/// Renormalization threshold.
const TOP: u32 = 1 << 24;

/// An adaptive probability estimate for one binary context.
#[derive(Clone, Copy, Debug)]
pub struct BitModel(u16);

impl Default for BitModel {
    fn default() -> Self {
        BitModel(PROB_INIT)
    }
}

impl BitModel {
    /// A fresh model at p = 0.5.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adapt toward `bit`; `mask` is `bit` spread to all ones (1) or all
    /// zeros (0). A 1 moves p(0) down by `p >> MOVE_BITS`, a 0 moves it up
    /// by `(1 - p) >> MOVE_BITS`: p stays in `[31, 2017]` of 2048.
    #[inline(always)]
    fn update(&mut self, mask: u32) {
        let p = self.0 as u32;
        let down = p >> MOVE_BITS;
        let up = ((1 << PROB_BITS) - p) >> MOVE_BITS;
        self.0 = (p + (up & !mask) - (down & mask)) as u16;
    }
}

/// `bit` as a mask: all ones for 1, all zeros for 0.
#[inline(always)]
fn bit_mask(bit: bool) -> u32 {
    (bit as u32).wrapping_neg()
}

/// The interval after coding a bit with split point `bound`: `[0, bound)`
/// for a 0, `[bound, range)` for a 1 (`bound < range` always holds).
#[inline(always)]
fn split(range: u32, bound: u32, mask: u32) -> u32 {
    (bound & !mask) | ((range - bound) & mask)
}

/// Range encoder producing a byte stream.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit under `model`.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let mask = bit_mask(bit);
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        self.low += (bound & mask) as u64;
        self.range = split(self.range, bound, mask);
        model.update(mask);
        // One shift always suffices: the range was at least TOP = 2^24, and
        // either half keeps at least 31/2048 of it (p stays in [31, 2017]),
        // so at least 2^17; shifted by 8 that is back above TOP. The `if`
        // codes measurably faster than a `while` loop here.
        if self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
        debug_assert!(self.range >= TOP);
    }

    /// Encode `count` bits of `value` (MSB-first) at fixed probability 1/2.
    pub fn encode_direct(&mut self, value: u32, count: u32) {
        for i in (0..count).rev() {
            self.range >>= 1;
            self.low += (self.range & bit_mask((value >> i) & 1 == 1)) as u64;
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Encode `value` through a bit tree of `depth` levels. `models` must
    /// hold `1 << depth` entries.
    pub fn encode_tree(&mut self, models: &mut [BitModel], depth: u32, value: u32) {
        debug_assert!(models.len() >= (1usize << depth));
        let mut m: usize = 1;
        for i in (0..depth).rev() {
            let bit = (value >> i) & 1 == 1;
            self.encode_bit(&mut models[m], bit);
            m = (m << 1) | bit as usize;
        }
    }

    /// Flush and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder over a byte stream.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
    overrun: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Initialize over encoder output. Fails if the stream is too short to
    /// contain the 5-byte preamble.
    pub fn new(input: &'a [u8]) -> Result<Self, SimError> {
        if input.len() < 5 {
            return Err(SimError::Truncated {
                what: "range coder preamble",
            });
        }
        let mut code = 0u32;
        // First byte is always 0 (the initial cache); skip it.
        for &b in &input[1..5] {
            code = (code << 8) | b as u32;
        }
        Ok(RangeDecoder {
            code,
            range: u32::MAX,
            input,
            pos: 5,
            overrun: 0,
        })
    }

    fn next_byte(&mut self) -> u8 {
        let b = match self.input.get(self.pos) {
            Some(&b) => b,
            None => {
                self.overrun += 1;
                0
            }
        };
        self.pos += 1;
        b
    }

    /// How many bytes past the end of input have been (virtually) read.
    /// The encoder's flush emits five trailing bytes, so a small overrun is
    /// normal at stream end; a growing overrun means the caller is decoding
    /// past a truncated stream.
    pub fn overrun(&self) -> usize {
        self.overrun
    }

    /// Decode one bit under `model`.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let bit = self.code >= bound;
        let mask = bit_mask(bit);
        self.code -= bound & mask;
        self.range = split(self.range, bound, mask);
        model.update(mask);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        bit
    }

    /// Decode `count` fixed-probability bits (MSB-first).
    pub fn decode_direct(&mut self, count: u32) -> u32 {
        let mut value = 0u32;
        for _ in 0..count {
            self.range >>= 1;
            let bit = self.code >= self.range;
            self.code -= self.range & bit_mask(bit);
            value = (value << 1) | bit as u32;
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte() as u32;
            }
        }
        value
    }

    /// Decode a value from a bit tree of `depth` levels.
    pub fn decode_tree(&mut self, models: &mut [BitModel], depth: u32) -> u32 {
        debug_assert!(models.len() >= (1usize << depth));
        let mut m: usize = 1;
        for _ in 0..depth {
            let bit = self.decode_bit(&mut models[m]);
            m = (m << 1) | bit as usize;
        }
        m as u32 - (1 << depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_model_bit_stream_round_trips() {
        let bits: Vec<bool> = (0..2_000).map(|i| (i * 7 + i / 13) % 3 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut model = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut model), b);
        }
    }

    #[test]
    fn skewed_streams_compress() {
        // 99% zeros: adaptive model should get well under 1 bit/bit.
        let n = 10_000;
        let bits: Vec<bool> = (0..n).map(|i| i % 100 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        assert!(
            bytes.len() < n / 8 / 4,
            "expected >4x compression, got {} bytes for {} bits",
            bytes.len(),
            n
        );
    }

    #[test]
    fn direct_bits_round_trip() {
        let values = [(0u32, 1u32), (1, 1), (0xABC, 12), (u32::MAX, 32), (5, 8)];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v);
        }
    }

    #[test]
    fn bit_tree_round_trips_bytes() {
        let data: Vec<u8> = (0..=255u8).chain((0..=255).rev()).collect();
        let mut enc = RangeEncoder::new();
        let mut tree = vec![BitModel::new(); 256];
        for &b in &data {
            enc.encode_tree(&mut tree, 8, b as u32);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut tree = vec![BitModel::new(); 256];
        for &b in &data {
            assert_eq!(dec.decode_tree(&mut tree, 8), b as u32);
        }
    }

    #[test]
    fn mixed_stream_round_trips() {
        // Interleave model bits, direct bits, and tree symbols.
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        let mut tree = vec![BitModel::new(); 32];
        for i in 0..500u32 {
            enc.encode_bit(&mut model, i % 3 == 0);
            enc.encode_direct(i % 16, 4);
            enc.encode_tree(&mut tree, 5, i % 32);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut model = BitModel::new();
        let mut tree = vec![BitModel::new(); 32];
        for i in 0..500u32 {
            assert_eq!(dec.decode_bit(&mut model), i % 3 == 0);
            assert_eq!(dec.decode_direct(4), i % 16);
            assert_eq!(dec.decode_tree(&mut tree, 5), i % 32);
        }
    }

    /// The textbook coder with data-dependent branches: the oracle the
    /// masked forms must match byte for byte.
    fn branchy_encode_bit(enc: &mut RangeEncoder, model: &mut BitModel, bit: bool) {
        let bound = (enc.range >> PROB_BITS) * model.0 as u32;
        if bit {
            enc.low += bound as u64;
            enc.range -= bound;
            model.0 -= model.0 >> MOVE_BITS;
        } else {
            enc.range = bound;
            model.0 += ((1 << PROB_BITS) - model.0) >> MOVE_BITS;
        }
        while enc.range < TOP {
            enc.range <<= 8;
            enc.shift_low();
        }
    }

    fn branchy_encode_direct(enc: &mut RangeEncoder, value: u32, count: u32) {
        for i in (0..count).rev() {
            enc.range >>= 1;
            if (value >> i) & 1 == 1 {
                enc.low += enc.range as u64;
            }
            while enc.range < TOP {
                enc.range <<= 8;
                enc.shift_low();
            }
        }
    }

    /// Long single-valued runs pin a model at its floor and ceiling, with
    /// direct bits (which halve the range without a model) in between.
    fn extreme_script() -> Vec<(bool, Option<(u32, u32)>)> {
        let mut script = Vec::new();
        for (run, bit) in [
            (3_000, true),
            (3_000, false),
            (1, true),
            (2_000, false),
            (1, false),
        ] {
            for k in 0..run {
                let direct = (k % 97 == 0)
                    .then_some(((k as u32).wrapping_mul(0x9E37_79B9), 1 + k as u32 % 32));
                script.push((bit, direct));
            }
        }
        // Alternation straight after saturation: the worst case for the
        // single renormalisation step per coded bit.
        for k in 0..1_000u32 {
            script.push((k % 2 == 0, (k % 5 == 0).then_some((k, 17))));
        }
        script
    }

    #[test]
    fn models_saturate_at_their_floor_and_ceiling() {
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        for _ in 0..1_000 {
            enc.encode_bit(&mut model, true);
        }
        assert_eq!(model.0, 31, "p(0) floor");
        for _ in 0..1_000 {
            enc.encode_bit(&mut model, false);
        }
        assert_eq!(model.0, 2017, "p(0) ceiling");
    }

    #[test]
    fn extreme_probability_runs_round_trip_with_direct_bits() {
        let script = extreme_script();
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        for &(bit, direct) in &script {
            enc.encode_bit(&mut model, bit);
            if let Some((v, n)) = direct {
                enc.encode_direct(v, n);
            }
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut model = BitModel::new();
        for (k, &(bit, direct)) in script.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut model), bit, "bit {k}");
            if let Some((v, n)) = direct {
                let want = if n == 32 { v } else { v & ((1 << n) - 1) };
                assert_eq!(dec.decode_direct(n), want, "direct bits after bit {k}");
            }
        }
        assert!(dec.overrun() <= 5);
    }

    #[test]
    fn masked_coder_matches_the_branchy_oracle_byte_for_byte() {
        let script = extreme_script();
        let mut fast = RangeEncoder::new();
        let mut oracle = RangeEncoder::new();
        let (mut fm, mut om) = (BitModel::new(), BitModel::new());
        for &(bit, direct) in &script {
            fast.encode_bit(&mut fm, bit);
            branchy_encode_bit(&mut oracle, &mut om, bit);
            assert_eq!(fm.0, om.0);
            if let Some((v, n)) = direct {
                fast.encode_direct(v, n);
                branchy_encode_direct(&mut oracle, v, n);
            }
        }
        assert_eq!(fast.finish(), oracle.finish());
    }

    #[test]
    fn short_input_rejected() {
        assert!(matches!(
            RangeDecoder::new(&[1, 2, 3]),
            Err(SimError::Truncated { .. })
        ));
    }
}

//! The semantic keypoint codec.
//!
//! The paper's §4.3 measurement pipeline: 74 keypoints per frame,
//! serialized as floats, compressed with LZMA, streamed at 90 FPS →
//! 0.64±0.02 Mbps, matching the observed spatial-persona rate. The
//! defining property is that frames are **independently decodable**: live
//! reconstruction must tolerate any frame being the first one received,
//! and partial semantics are useless (a face with no mouth cannot be
//! rendered plausibly). The price is that there is no rate ladder — the
//! codec's only "knob" is to stop sending, which is exactly the
//! no-rate-adaptation behaviour the paper measures.
//!
//! [`CodecMode::Delta`] is an ablation: inter-frame delta + quantization,
//! far smaller but loss-fragile (a lost frame corrupts everything until
//! the next keyframe) — quantifying why a production system would not
//! choose it for this workload.

use visionsim_compress::{compress, decompress};
use visionsim_core::units::{ByteSize, DataRate};
use visionsim_sensor::keypoints::KeypointFrame;

/// Stream frame rate: the headset's 90 Hz keypoint cadence.
const FPS: f64 = 90.0;

/// Encoding mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CodecMode {
    /// Every frame self-contained (what the measurements indicate FaceTime
    /// does).
    Absolute,
    /// Quantized inter-frame deltas with a keyframe every `keyframe_every`
    /// frames (ablation).
    Delta {
        /// Keyframe interval in frames.
        keyframe_every: u32,
        /// Quantization step, metres (e.g. 0.0005 = 0.5 mm).
        step_m: f32,
    },
}

/// Codec configuration.
#[derive(Clone, Copy, Debug)]
pub struct SemanticConfig {
    /// Encoding mode.
    pub mode: CodecMode,
}

impl Default for SemanticConfig {
    fn default() -> Self {
        SemanticConfig {
            mode: CodecMode::Absolute,
        }
    }
}

/// Errors from decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemanticDecodeError {
    /// The compressed payload is corrupt or truncated.
    Corrupt,
    /// A delta frame arrived with no keyframe state to apply it to.
    MissingReference,
    /// Payload structure inconsistent with the configuration.
    Inconsistent,
}

impl std::fmt::Display for SemanticDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemanticDecodeError::Corrupt => write!(f, "corrupt semantic payload"),
            SemanticDecodeError::MissingReference => {
                write!(f, "delta frame without reference state")
            }
            SemanticDecodeError::Inconsistent => write!(f, "inconsistent semantic payload"),
        }
    }
}

impl std::error::Error for SemanticDecodeError {}

const TAG_ABSOLUTE: u8 = 0;
const TAG_DELTA_KEY: u8 = 1;
const TAG_DELTA: u8 = 2;

/// Stateful encoder/decoder pair for one persona stream.
#[derive(Clone, Debug)]
pub struct SemanticCodec {
    config: SemanticConfig,
    /// Encoder: frames emitted so far (for keyframe cadence).
    frames_encoded: u64,
    /// Encoder reference (quantized) for delta mode.
    enc_ref: Option<Vec<i32>>,
    /// Decoder reference for delta mode.
    dec_ref: Option<Vec<i32>>,
}

impl SemanticCodec {
    /// A codec with the given configuration.
    pub fn new(config: SemanticConfig) -> Self {
        SemanticCodec {
            config,
            frames_encoded: 0,
            enc_ref: None,
            dec_ref: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SemanticConfig {
        &self.config
    }

    fn quantize(frame: &KeypointFrame, step: f32) -> Vec<i32> {
        frame
            .points
            .iter()
            .flat_map(|p| p.iter().map(move |c| (c / step).round() as i32))
            .collect()
    }

    fn dequantize(q: &[i32], step: f32) -> KeypointFrame {
        let points = q
            .chunks_exact(3)
            .map(|c| [c[0] as f32 * step, c[1] as f32 * step, c[2] as f32 * step])
            .collect();
        KeypointFrame { points }
    }

    /// Encode one frame into a self-describing payload.
    pub fn encode(&mut self, frame: &KeypointFrame) -> Vec<u8> {
        let payload = match self.config.mode {
            CodecMode::Absolute => {
                let mut out = vec![TAG_ABSOLUTE];
                out.extend_from_slice(&compress(&frame.to_bytes()));
                out
            }
            CodecMode::Delta {
                keyframe_every,
                step_m,
            } => {
                let q = Self::quantize(frame, step_m);
                let keyframe = self.frames_encoded.is_multiple_of(keyframe_every as u64)
                    || self.enc_ref.as_ref().map(|r| r.len()) != Some(q.len());
                let mut raw = Vec::new();
                if keyframe {
                    for &v in &q {
                        visionsim_compress::varint::write_i64(&mut raw, v as i64);
                    }
                } else {
                    let r = self.enc_ref.as_ref().expect("non-keyframe has reference");
                    for (a, b) in q.iter().zip(r) {
                        visionsim_compress::varint::write_i64(&mut raw, (*a - *b) as i64);
                    }
                }
                self.enc_ref = Some(q);
                let mut out = vec![if keyframe { TAG_DELTA_KEY } else { TAG_DELTA }];
                out.extend_from_slice(&compress(&raw));
                out
            }
        };
        self.frames_encoded += 1;
        payload
    }

    /// Decode one payload back into a keypoint frame.
    pub fn decode(&mut self, payload: &[u8]) -> Result<KeypointFrame, SemanticDecodeError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or(SemanticDecodeError::Corrupt)?;
        let raw = decompress(body).map_err(|_| SemanticDecodeError::Corrupt)?;
        match tag {
            TAG_ABSOLUTE => {
                KeypointFrame::from_bytes(&raw).ok_or(SemanticDecodeError::Inconsistent)
            }
            TAG_DELTA_KEY | TAG_DELTA => {
                let CodecMode::Delta { step_m, .. } = self.config.mode else {
                    return Err(SemanticDecodeError::Inconsistent);
                };
                let mut values = Vec::new();
                let mut pos = 0;
                while pos < raw.len() {
                    let (v, n) = visionsim_compress::varint::read_i64(&raw[pos..])
                        .ok_or(SemanticDecodeError::Corrupt)?;
                    pos += n;
                    values.push(v as i32);
                }
                if values.len() % 3 != 0 {
                    return Err(SemanticDecodeError::Inconsistent);
                }
                let q = if tag == TAG_DELTA_KEY {
                    values
                } else {
                    let r = self
                        .dec_ref
                        .as_ref()
                        .ok_or(SemanticDecodeError::MissingReference)?;
                    if r.len() != values.len() {
                        return Err(SemanticDecodeError::Inconsistent);
                    }
                    r.iter().zip(&values).map(|(a, d)| a + d).collect()
                };
                self.dec_ref = Some(q.clone());
                Ok(Self::dequantize(&q, step_m))
            }
            _ => Err(SemanticDecodeError::Inconsistent),
        }
    }

    /// Inform the decoder that a frame was lost in transit. In delta mode
    /// this invalidates the reference until the next keyframe; in absolute
    /// mode it is harmless (the defining resilience property).
    pub fn on_frame_lost(&mut self) {
        if matches!(self.config.mode, CodecMode::Delta { .. }) {
            self.dec_ref = None;
        }
    }

    /// Steady-state stream rate for the given per-frame payload sizes
    /// (transport overhead excluded).
    pub fn stream_rate(&self, payload_sizes: &[usize]) -> DataRate {
        if payload_sizes.is_empty() {
            return DataRate::ZERO;
        }
        let mean = payload_sizes.iter().sum::<usize>() as f64 / payload_sizes.len() as f64;
        DataRate::from_bps_f64(mean * 8.0 * FPS)
    }

    /// The minimum link rate below which this stream cannot function: the
    /// semantic payload has no quality ladder, so the requirement is simply
    /// the full stream rate (plus nothing — there is nothing to shed).
    pub fn min_required_rate(&self, recent_payload_sizes: &[usize]) -> DataRate {
        self.stream_rate(recent_payload_sizes)
    }

    /// Mean payload size of an iterator of payloads.
    pub fn mean_payload(payloads: &[Vec<u8>]) -> ByteSize {
        if payloads.is_empty() {
            return ByteSize::ZERO;
        }
        ByteSize::from_bytes(
            (payloads.iter().map(|p| p.len()).sum::<usize>() / payloads.len()) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::rng::SimRng;
    use visionsim_sensor::capture::RgbdCapture;

    fn persona_frames(n: usize, seed: u64) -> Vec<KeypointFrame> {
        let mut cap = RgbdCapture::default_session();
        let mut rng = SimRng::seed_from_u64(seed);
        cap.capture_trace(n, &mut rng)
            .iter()
            .map(|f| f.persona_subset())
            .collect()
    }

    #[test]
    fn absolute_mode_round_trips() {
        let frames = persona_frames(10, 1);
        let mut enc = SemanticCodec::new(SemanticConfig::default());
        let mut dec = SemanticCodec::new(SemanticConfig::default());
        for f in &frames {
            let payload = enc.encode(f);
            let got = dec.decode(&payload).unwrap();
            assert_eq!(&got, f);
        }
    }

    #[test]
    fn absolute_frames_survive_arbitrary_loss() {
        let frames = persona_frames(20, 3);
        let mut enc = SemanticCodec::new(SemanticConfig::default());
        let mut dec = SemanticCodec::new(SemanticConfig::default());
        let payloads: Vec<_> = frames.iter().map(|f| enc.encode(f)).collect();
        // Deliver only every third frame.
        for (i, p) in payloads.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(dec.decode(p).unwrap(), frames[i]);
            } else {
                dec.on_frame_lost();
            }
        }
    }

    #[test]
    fn delta_mode_round_trips_lossless_channel() {
        let cfg = SemanticConfig {
            mode: CodecMode::Delta {
                keyframe_every: 30,
                step_m: 0.0005,
            },
        };
        let frames = persona_frames(60, 4);
        let mut enc = SemanticCodec::new(cfg);
        let mut dec = SemanticCodec::new(cfg);
        for f in &frames {
            let got = dec.decode(&enc.encode(f)).unwrap();
            // Lossy to quantization only.
            assert!(got.max_displacement(f).unwrap() <= 0.0005 * 0.51 + 1e-6);
        }
    }

    #[test]
    fn delta_mode_breaks_after_loss_until_keyframe() {
        let cfg = SemanticConfig {
            mode: CodecMode::Delta {
                keyframe_every: 10,
                step_m: 0.0005,
            },
        };
        let frames = persona_frames(10, 5);
        let mut enc = SemanticCodec::new(cfg);
        let mut dec = SemanticCodec::new(cfg);
        let payloads: Vec<_> = frames.iter().map(|f| enc.encode(f)).collect();
        dec.decode(&payloads[0]).unwrap(); // keyframe
        dec.on_frame_lost(); // frame 1 lost
        assert_eq!(
            dec.decode(&payloads[2]).unwrap_err(),
            SemanticDecodeError::MissingReference
        );
    }

    #[test]
    fn delta_mode_is_much_smaller_than_absolute() {
        let frames = persona_frames(90, 6);
        let mut abs = SemanticCodec::new(SemanticConfig::default());
        let mut delta = SemanticCodec::new(SemanticConfig {
            mode: CodecMode::Delta {
                keyframe_every: 90,
                step_m: 0.0005,
            },
        });
        let abs_bytes: usize = frames.iter().map(|f| abs.encode(f).len()).sum();
        let delta_bytes: usize = frames.iter().map(|f| delta.encode(f).len()).sum();
        assert!(
            delta_bytes * 2 < abs_bytes,
            "delta {delta_bytes} !≪ absolute {abs_bytes}"
        );
    }

    #[test]
    fn stream_rate_lands_in_the_measured_band() {
        // §4.3: 74 keypoints, LZMA, 90 FPS → 0.64±0.02 Mbps (payload), vs
        // the 0.67 Mbps persona rate. Our synthetic trace + from-scratch
        // LZMA should land in the same few-hundred-kbps band.
        let frames = persona_frames(300, 7);
        let mut enc = SemanticCodec::new(SemanticConfig::default());
        let sizes: Vec<usize> = frames.iter().map(|f| enc.encode(f).len()).collect();
        let rate = enc.stream_rate(&sizes).as_mbps_f64();
        assert!(
            (0.35..1.0).contains(&rate),
            "semantic stream rate {rate} Mbps outside band"
        );
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let frames = persona_frames(1, 8);
        let mut enc = SemanticCodec::new(SemanticConfig::default());
        let mut dec = SemanticCodec::new(SemanticConfig::default());
        let mut p = enc.encode(&frames[0]);
        let mid = p.len() / 2;
        p.truncate(mid);
        assert!(dec.decode(&p).is_err());
        assert!(dec.decode(&[]).is_err());
    }

    #[test]
    fn min_required_rate_equals_stream_rate() {
        let enc = SemanticCodec::new(SemanticConfig::default());
        let sizes = vec![900usize; 10];
        assert_eq!(
            enc.min_required_rate(&sizes),
            enc.stream_rate(&sizes)
        );
        // ~900 B at 90 FPS ≈ 0.648 Mbps: the 700 kbps cliff's origin.
        assert!((enc.stream_rate(&sizes).as_mbps_f64() - 0.648).abs() < 0.01);
    }
}

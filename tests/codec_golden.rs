//! Wire golden of the LZMA-style codec.
//!
//! Every semantic frame's size and bytes feed the goldens of every spatial
//! artifact, so `compress` must stay byte-identical through any change to
//! the LZ77 match finder or the range coder. These checksums pin its
//! output directly: FNV-1a 64 of the compressed stream, over 300 seeded
//! persona keypoint frames and over the inputs of the `lzma_like` unit
//! tests. Each stream must also decompress back to its input.

use visionsim_compress::{compress, decompress};
use visionsim_core::rng::SimRng;
use visionsim_experiments::harness::fnv1a64;
use visionsim_sensor::capture::RgbdCapture;

/// Compress `data`, check the round trip, and return the stream's digest.
fn digest(name: &str, data: &[u8]) -> u64 {
    let stream = compress(data);
    assert_eq!(
        decompress(&stream).as_deref(),
        Ok(data),
        "{name}: decompress(compress(x)) != x"
    );
    fnv1a64(&stream)
}

fn xorshift_bytes(mut x: u32, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

fn keypoint_delta_stream() -> Vec<u8> {
    let mut data = Vec::new();
    for frame in 0..200u32 {
        for kp in 0..74u32 {
            let delta = ((frame + kp) % 5) as i8 - 2;
            data.push(delta as u8);
            data.push((delta / 2) as u8);
        }
    }
    data
}

#[test]
fn persona_frames_compress_to_pinned_bytes() {
    let mut cap = RgbdCapture::default_session();
    let mut rng = SimRng::seed_from_u64(2024);
    let mut all = Vec::new();
    let mut total_len = 0usize;
    for (k, f) in cap.capture_trace(300, &mut rng).iter().enumerate() {
        let raw = f.persona_subset().to_bytes();
        let stream = compress(&raw);
        assert_eq!(
            decompress(&stream).as_deref(),
            Ok(&raw[..]),
            "persona frame {k} does not round-trip"
        );
        total_len += stream.len();
        all.extend_from_slice(&stream);
    }
    assert_eq!(
        (total_len, fnv1a64(&all)),
        (PERSONA_STREAM_LEN, PERSONA_STREAM_FNV),
        "compressed persona frames moved"
    );
}

const PERSONA_STREAM_LEN: usize = 255_971;
const PERSONA_STREAM_FNV: u64 = 0x04ea_963f_a984_fb4e;

#[test]
fn lzma_like_test_inputs_compress_to_pinned_bytes() {
    let mut long_runs = vec![0u8; 70_000];
    long_runs.extend_from_slice(&[1u8; 70_000]);
    let inputs: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("x", b"x".to_vec()),
        ("ab", b"ab".to_vec()),
        ("hello", b"hello, world".to_vec()),
        ("persona_text", b"spatial persona ".repeat(500)),
        ("keypoint_deltas", keypoint_delta_stream()),
        ("pseudo_random", xorshift_bytes(0xDEAD_BEEF, 10_000)),
        ("all_bytes", (0..=255u8).cycle().take(4_096).collect()),
        ("long_runs", long_runs),
        (
            "truncation_input",
            b"some reasonably long input to compress here".to_vec(),
        ),
        (
            "mesh_text",
            b"the mesh of a spatial persona consists of 78,030 triangles".repeat(10),
        ),
    ];
    let got: Vec<(&str, u64)> = inputs
        .iter()
        .map(|(name, data)| (*name, digest(name, data)))
        .collect();
    assert_eq!(got, PINNED, "compressed streams moved");
}

const PINNED: &[(&str, u64)] = &[
    ("empty", 0xaf63_bd4c_8601_b7df),
    ("x", 0x69aa_749f_ab54_672e),
    ("ab", 0xa63d_20ba_7e28_4cec),
    ("hello", 0x33b0_786c_311d_e203),
    ("persona_text", 0x4896_ee3e_ae4e_8a73),
    ("keypoint_deltas", 0xa32b_1552_fad5_72b9),
    ("pseudo_random", 0x06df_2d58_b00c_fa94),
    ("all_bytes", 0x0204_bded_66d8_05f3),
    ("long_runs", 0xbee7_c880_85ca_3f7e),
    ("truncation_input", 0x8c1c_edf6_d271_6829),
    ("mesh_text", 0xb4ec_21b5_fbc6_b5c3),
];

//! Micro-benchmarks of every in-tree codec: the LZMA-style compressor on
//! keypoint payloads, rANS on mesh residuals, the mesh codec on a persona
//! head, the semantic codec end-to-end, and ChaCha20.
//!
//! The keypoint benchmarks cycle through one second of distinct frames
//! (90 at 90 FPS), one frame per iteration, as a live stream does. A
//! single frame coded over and over would let the branch predictor learn
//! its exact bit pattern, which no real stream allows: on this input the
//! range coder's cost is dominated by bits that are close to coin flips.

use visionsim_bench::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use visionsim_compress::{compress, decompress, rans};
use visionsim_core::rng::SimRng;
use visionsim_mesh::codec::{decode_mesh, encode_mesh, MeshCodecConfig};
use visionsim_mesh::generate::{head_mesh, PERSONA_TRIANGLES};
use visionsim_semantic::codec::{SemanticCodec, SemanticConfig};
use visionsim_sensor::capture::RgbdCapture;
use visionsim_transport::cipher;

/// Distinct keypoint frames the keypoint benchmarks cycle through.
const STREAM_FRAMES: usize = 90;

/// Indices `0, 1, .., n - 1, 0, 1, ..`, one per call.
fn cycle(n: usize) -> impl FnMut() -> usize {
    let mut k = 0;
    move || {
        k = (k + 1) % n;
        k
    }
}

fn bench(c: &mut Criterion) {
    // Realistic payloads: one second of a persona stream.
    let mut cap = RgbdCapture::default_session();
    let mut rng = SimRng::seed_from_u64(1);
    let frames: Vec<_> = (0..STREAM_FRAMES)
        .map(|_| cap.next_frame(&mut rng).persona_subset())
        .collect();
    let kp_bytes: Vec<Vec<u8>> = frames.iter().map(|f| f.to_bytes()).collect();
    let kp_compressed: Vec<Vec<u8>> = kp_bytes.iter().map(|b| compress(b)).collect();

    let mut g = c.benchmark_group("lzma_like");
    g.throughput(Throughput::Bytes(kp_bytes[0].len() as u64));
    let mut next = cycle(STREAM_FRAMES);
    g.bench_function("compress_keypoint_frame", |b| {
        b.iter(|| black_box(compress(&kp_bytes[next()])))
    });
    let mut next = cycle(STREAM_FRAMES);
    g.bench_function("decompress_keypoint_frame", |b| {
        b.iter(|| black_box(decompress(&kp_compressed[next()]).unwrap()))
    });
    g.finish();

    let residuals: Vec<u8> = (0..100_000u32)
        .map(|i| match i % 7 {
            0..=3 => 0u8,
            4 | 5 => 1,
            _ => 2,
        })
        .collect();
    let rans_encoded = rans::encode(&residuals);
    let mut g = c.benchmark_group("rans");
    g.throughput(Throughput::Bytes(residuals.len() as u64));
    g.bench_function("encode_100k_residuals", |b| {
        b.iter(|| black_box(rans::encode(&residuals)))
    });
    g.bench_function("decode_100k_residuals", |b| {
        b.iter(|| black_box(rans::decode(&rans_encoded).unwrap()))
    });
    g.finish();

    let head = head_mesh(PERSONA_TRIANGLES, 1);
    let cfg = MeshCodecConfig::default();
    let head_encoded = encode_mesh(&head, &cfg);
    let mut g = c.benchmark_group("mesh_codec");
    g.sample_size(20);
    g.throughput(Throughput::Elements(PERSONA_TRIANGLES as u64));
    g.bench_function("encode_persona_head", |b| {
        b.iter(|| black_box(encode_mesh(&head, &cfg)))
    });
    g.bench_function("decode_persona_head", |b| {
        b.iter(|| black_box(decode_mesh(&head_encoded).unwrap()))
    });
    g.finish();

    let mut g = c.benchmark_group("semantic");
    g.throughput(Throughput::Elements(1));
    let mut enc = SemanticCodec::new(SemanticConfig::default());
    let mut next = cycle(STREAM_FRAMES);
    g.bench_function("encode_frame", |b| {
        b.iter(|| black_box(enc.encode(&frames[next()])))
    });
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| SemanticCodec::new(SemanticConfig::default()).encode(f))
        .collect();
    let mut dec = SemanticCodec::new(SemanticConfig::default());
    let mut next = cycle(STREAM_FRAMES);
    g.bench_function("decode_frame", |b| {
        b.iter(|| black_box(dec.decode(&payloads[next()]).unwrap()))
    });
    g.finish();

    let key = [7u8; 32];
    let nonce = cipher::packet_nonce(1, 1);
    let block = vec![0u8; 1_200];
    let mut g = c.benchmark_group("chacha20");
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("seal_mtu_payload", |b| {
        b.iter(|| black_box(cipher::seal(&key, &nonce, &block)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

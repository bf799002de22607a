//! Ablation bench for the crypto substrate: SHA-256, HMAC, and sealed
//! tokens — the fixed per-message costs under every protocol flow — plus
//! the inputs a decision query actually hashes, so the kernel has a
//! per-operation number outside the end-to-end benchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ucam_am::TokenService;
use ucam_crypto::{base64url_decode, hmac_sha256, sha256, HmacKey, SigningKey};
use ucam_webenv::{protocol, SimClock};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(std::hint::black_box(data)));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let key = b"benchmark-key";
    let msg = vec![0x5au8; 256];
    c.bench_function("crypto/hmac_sha256_256B", |b| {
        b.iter(|| hmac_sha256(key, std::hint::black_box(&msg)));
    });
}

fn bench_seal_open(c: &mut Criterion) {
    let key = SigningKey::generate();
    let payload = b"kind=authz;res=albums/rome/photo-1;req=requester:alice;exp=900000";
    c.bench_function("crypto/seal", |b| {
        b.iter(|| key.seal(std::hint::black_box(payload)));
    });
    let token = key.seal(payload);
    c.bench_function("crypto/open", |b| {
        b.iter(|| key.open(std::hint::black_box(&token)).unwrap());
    });
}

/// What one decision query hashes, on real inputs: the AM opens an
/// authorization token as `TokenService` mints it (198 characters for
/// this grant, a 115-byte payload) and the Host digests the access tuple
/// once. The token is re-sealed under a key the bench holds, which keeps
/// its payload and length.
fn bench_decision_inputs(c: &mut Criterion) {
    let (resource, requester) = ("files/pop/r3", "requester:req-5");
    let service = TokenService::new(SimClock::new());
    let grant = service.grant(
        Some("realm-1"),
        resource,
        "host-0.example",
        requester,
        None,
        "u3",
    );
    let minted = service.mint_authz_token(&grant);
    let (payload_b64, _) = minted.split_once('.').expect("a sealed token");
    let payload = base64url_decode(payload_b64).expect("a base64url payload");
    let key = SigningKey::generate();
    let token = key.seal(&payload);
    assert_eq!(token.len(), minted.len());
    c.bench_function("crypto/open_authz_token", |b| {
        b.iter(|| key.open(std::hint::black_box(&token)).unwrap());
    });
    let hmac = HmacKey::new(b"benchmark-key");
    c.bench_function("crypto/hmac_key_mac_authz_payload", |b| {
        b.iter(|| hmac.mac(std::hint::black_box(&payload)));
    });
    c.bench_function("protocol/tuple_digest", |b| {
        b.iter(|| {
            protocol::tuple_digest(std::hint::black_box(&token), resource, "read", requester)
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_sha256, bench_hmac, bench_seal_open, bench_decision_inputs
);
criterion_main!(benches);

//! HTTP/1.1 codec micro-bench: encode/decode ns/op and the steady-state
//! zero-allocation gate.
//!
//! The canonical codec (`ucam_webenv::codec`, DESIGN.md §15) is the
//! per-message cost floor of the cross-process transport: every request
//! the client sends is one `encode_request_into` into a reused buffer,
//! every message the server parses is one `find_head_end` scan plus one
//! borrowed-slice `parse_head`. Those three must not allocate once
//! their scratch buffers are warm — a counting global allocator proves
//! it here, so an accidental `String`/`Vec` on the hot path fails the
//! bench run instead of quietly re-taxing every round trip. The owned
//! promotions (`build_request`/`build_response`) fill one buffer per
//! message part (DESIGN.md §14), so their allocations are gated too:
//! at most [`BUILD_REQUEST_BUDGET`] per decision query and
//! [`BUILD_RESPONSE_BUDGET`] per decision reply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ucam_webenv::codec;
use ucam_webenv::protocol::DECISION_V2_PATH;
use ucam_webenv::{Method, Request, Response, Url};

/// Counts heap allocations while [`COUNTING`] is armed. Deallocations
/// are passed straight through — the gate cares about allocation
/// pressure on the hot path, not balance.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `build_request` may make for the decision query: the
/// dispatcher's label, the URL's buffer and the form's buffer (its body
/// is empty and it has no header left once the envelope is stripped).
const BUILD_REQUEST_BUDGET: u64 = 3;

/// Allocations `build_response` may make for the decision reply: its
/// body (it has no header left once the framing is stripped).
const BUILD_RESPONSE_BUDGET: u64 = 1;

/// Runs `f` with allocation counting armed and returns how many heap
/// allocations it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// A representative protocol request: the Fig. 6 decision query shape —
/// POST with form params including a bearer-sized token value.
fn decision_request() -> Request {
    Request::to_url(Method::Post, Url::new("am.example", DECISION_V2_PATH))
        .with_param("host_token", "hosttok-0123456789abcdef0123456789abcdef")
        .with_param("token", "authz-0123456789abcdef0123456789abcdef0123456789")
        .with_param("resource", "albums/rome/photo-0")
        .with_param("action", "read")
        .with_param("requester", "requester:alice-agent")
}

/// A representative permit response body.
fn decision_response() -> Response {
    Response::ok().with_body(r#"{"decision":"permit","cacheable_ms":60000}"#)
}

fn bench_http_codec(c: &mut Criterion) {
    let req = decision_request();
    let resp = decision_response();

    let mut req_wire = Vec::new();
    codec::encode_request_into(&mut req_wire, "pics.example", &req);
    let mut resp_wire = Vec::new();
    codec::encode_response_into(&mut resp_wire, &resp);
    let req_head_end = codec::find_head_end(&req_wire, 0).expect("encoded head terminates");
    let resp_head_end = codec::find_head_end(&resp_wire, 0).expect("encoded head terminates");

    // ---- the zero-allocation gate -----------------------------------
    // One warm pass has already sized `req_wire`; from here on the
    // steady-state trio must stay off the heap entirely.
    let allocs = count_allocs(|| {
        for _ in 0..1_000 {
            codec::encode_request_into(black_box(&mut req_wire), "pics.example", black_box(&req));
            let head_end = codec::find_head_end(black_box(&req_wire), 0).expect("head terminates");
            let head = codec::parse_head(&req_wire[..head_end]).expect("head parses");
            black_box(head.content_length().expect("content-length parses"));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state encode/scan/parse allocated {allocs} times in 1000 iterations"
    );
    println!("http_codec: steady-state allocations per round trip = 0 (gate passed)");

    // ---- the promotion budget ---------------------------------------
    let promote = |wire: &[u8], head_end: usize, build: &dyn Fn(&codec::Head<'_>, &[u8])| {
        count_allocs(|| {
            for _ in 0..1_000 {
                let head = codec::parse_head(black_box(&wire[..head_end])).expect("head parses");
                build(&head, black_box(&wire[head_end..]));
            }
        }) / 1_000
    };
    let request_allocs = promote(&req_wire, req_head_end, &|head, body| {
        black_box(codec::build_request(head, body).expect("request builds"));
    });
    let response_allocs = promote(&resp_wire, resp_head_end, &|head, body| {
        black_box(codec::build_response(head, body).expect("response builds"));
    });
    for (name, allocs, budget) in [
        ("build_request", request_allocs, BUILD_REQUEST_BUDGET),
        ("build_response", response_allocs, BUILD_RESPONSE_BUDGET),
    ] {
        assert!(
            allocs <= budget,
            "{name} allocated {allocs} times per decision message, over its budget of {budget}"
        );
        println!(
            "http_codec: {name} allocations per decision message = {allocs} (budget {budget})"
        );
    }

    // ---- ns/op ------------------------------------------------------
    let mut group = c.benchmark_group("http_codec");
    group.throughput(Throughput::Elements(1));

    group.bench_function("encode_request_into", |b| {
        b.iter(|| {
            codec::encode_request_into(&mut req_wire, "pics.example", black_box(&req));
            req_wire.len()
        });
    });

    group.bench_function("request_wire_len", |b| {
        b.iter(|| codec::request_wire_len("pics.example", black_box(&req)));
    });

    group.bench_function("encode_response_into", |b| {
        b.iter(|| {
            codec::encode_response_into(&mut resp_wire, black_box(&resp));
            resp_wire.len()
        });
    });

    group.bench_function("find_head_end", |b| {
        b.iter(|| codec::find_head_end(black_box(&req_wire), 0));
    });

    group.bench_function("parse_head", |b| {
        b.iter(|| {
            let head = codec::parse_head(black_box(&req_wire[..req_head_end])).unwrap();
            head.content_length().unwrap()
        });
    });

    group.bench_function("build_request", |b| {
        let head_bytes = &req_wire[..req_head_end];
        let body = &req_wire[req_head_end..];
        b.iter(|| {
            let head = codec::parse_head(black_box(head_bytes)).unwrap();
            codec::build_request(&head, black_box(body)).unwrap()
        });
    });

    group.bench_function("build_response", |b| {
        let head_bytes = &resp_wire[..resp_head_end];
        let body = &resp_wire[resp_head_end..];
        b.iter(|| {
            let head = codec::parse_head(black_box(head_bytes)).unwrap();
            codec::build_response(&head, black_box(body)).unwrap()
        });
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_http_codec
);
criterion_main!(benches);

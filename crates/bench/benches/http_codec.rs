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
//! at most [`BUILD_REQUEST_BUDGET`] per request and
//! [`BUILD_RESPONSE_BUDGET`] per response.
//!
//! Two message pairs are measured: the Host's decision query to the AM
//! and its permit reply, and `warm_http`'s access — the requester's GET
//! to the Host with a 208-byte bearer, and the Host's `200` reply — plus
//! the server's work on a 16-request pipelined stride of those GETs
//! (scan, parse and build each from a cursor, as `httpnet` serves it).

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

/// Allocations `build_request` may make for either request: the URL's
/// buffer and one more part — the decision query's form, or the Host
/// GET's one header (`authorization`). Neither has a body, and the
/// dispatcher's label is borrowed from the head.
const BUILD_REQUEST_BUDGET: u64 = 2;

/// Allocations `build_response` may make for either reply: its body
/// (neither has a header left once the framing is stripped).
const BUILD_RESPONSE_BUDGET: u64 = 1;

/// Requests in one pipelined stride, as `warm_http` sends them.
const STRIDE: usize = 16;

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

/// `warm_http`'s access: the requester's GET of a resource at the Host,
/// with its `x-requester` label and a 208-byte bearer token, named as
/// `sim::population` names them.
fn host_get() -> Request {
    let token = format!("authz.{}", "0123456789abcdef".repeat(13));
    Request::new(Method::Get, "https://host-3.example/files/pop/r517")
        .with_header("x-requester", "requester:req-7")
        .with_bearer(&token[..208])
}

/// The Host's `200` to [`host_get`]: a 52-byte message.
fn host_ok() -> Response {
    Response::ok().with_body("photo-0 bytes")
}

/// Every request of a pipelined stride in `block`, found, parsed and
/// built from a cursor, as the server serves a stride; returns the
/// requests built.
fn serve_stride(block: &[u8]) -> usize {
    let (mut at, mut served) = (0, 0);
    while let Some(head_end) = codec::find_head_end(block, at) {
        let head = codec::parse_head(&block[at..head_end]).expect("head parses");
        let end = head_end + head.content_length().expect("content-length parses");
        black_box(codec::build_request(&head, &block[head_end..end]).expect("request builds"));
        (at, served) = (end, served + 1);
    }
    served
}

fn bench_http_codec(c: &mut Criterion) {
    let req = decision_request();
    let resp = decision_response();
    let get = host_get();
    let ok = host_ok();

    let mut req_wire = Vec::new();
    codec::encode_request_into(&mut req_wire, "pics.example", &req);
    let mut resp_wire = Vec::new();
    codec::encode_response_into(&mut resp_wire, &resp);
    let mut get_wire = Vec::new();
    codec::encode_request_into(&mut get_wire, "requester:req-7", &get);
    let mut ok_wire = Vec::new();
    codec::encode_response_into(&mut ok_wire, &ok);
    let head_end = |wire: &[u8]| codec::find_head_end(wire, 0).expect("encoded head terminates");
    let (req_head_end, resp_head_end) = (head_end(&req_wire), head_end(&resp_wire));
    let (get_head_end, ok_head_end) = (head_end(&get_wire), head_end(&ok_wire));
    let stride = get_wire.repeat(STRIDE);
    println!(
        "http_codec: Host GET {} bytes (head {get_head_end}), its reply {} bytes",
        get_wire.len(),
        ok_wire.len()
    );

    // ---- the zero-allocation gate -----------------------------------
    // One warm pass has already sized the wire buffers; from here on the
    // steady-state trio must stay off the heap entirely, for both
    // requests and both replies, and so must scanning and parsing a
    // whole stride.
    let allocs = count_allocs(|| {
        for _ in 0..1_000 {
            for (wire, from, req) in [
                (&mut req_wire, "pics.example", &req),
                (&mut get_wire, "requester:req-7", &get),
            ] {
                codec::encode_request_into(black_box(&mut *wire), from, black_box(req));
                let end = codec::find_head_end(black_box(wire), 0).expect("head terminates");
                let head = codec::parse_head(&wire[..end]).expect("head parses");
                black_box(head.content_length().expect("content-length parses"));
            }
            for (wire, resp) in [(&mut resp_wire, &resp), (&mut ok_wire, &ok)] {
                codec::encode_response_into(black_box(&mut *wire), black_box(resp));
                let end = codec::find_head_end(black_box(wire), 0).expect("head terminates");
                let head = codec::parse_head(&wire[..end]).expect("head parses");
                black_box(head.content_length().expect("content-length parses"));
            }
        }
        for _ in 0..100 {
            let mut at = 0;
            while let Some(end) = codec::find_head_end(black_box(&stride), at) {
                let head = codec::parse_head(&stride[at..end]).expect("head parses");
                at = end + head.content_length().expect("content-length parses");
            }
            assert_eq!(at, stride.len());
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
    let build_request = |head: &codec::Head<'_>, body: &[u8]| {
        black_box(codec::build_request(head, body).expect("request builds"));
    };
    let build_response = |head: &codec::Head<'_>, body: &[u8]| {
        black_box(codec::build_response(head, body).expect("response builds"));
    };
    let stride_allocs = count_allocs(|| {
        for _ in 0..100 {
            assert_eq!(serve_stride(black_box(&stride)), STRIDE);
        }
    }) / (100 * STRIDE as u64);
    for (name, allocs, budget) in [
        (
            "build_request, decision query",
            promote(&req_wire, req_head_end, &build_request),
            BUILD_REQUEST_BUDGET,
        ),
        (
            "build_response, decision reply",
            promote(&resp_wire, resp_head_end, &build_response),
            BUILD_RESPONSE_BUDGET,
        ),
        (
            "build_request, Host GET",
            promote(&get_wire, get_head_end, &build_request),
            BUILD_REQUEST_BUDGET,
        ),
        (
            "build_response, Host reply",
            promote(&ok_wire, ok_head_end, &build_response),
            BUILD_RESPONSE_BUDGET,
        ),
        (
            "a 16-request stride, per request",
            stride_allocs,
            BUILD_REQUEST_BUDGET,
        ),
    ] {
        assert!(
            allocs <= budget,
            "{name}: {allocs} allocations per message, over its budget of {budget}"
        );
        println!("http_codec: {name}: {allocs} allocations per message (budget {budget})");
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

    group.bench_function("host_get/encode_request_into", |b| {
        b.iter(|| {
            codec::encode_request_into(&mut get_wire, "requester:req-7", black_box(&get));
            get_wire.len()
        });
    });

    group.bench_function("host_get/find_head_end", |b| {
        b.iter(|| codec::find_head_end(black_box(&get_wire), 0));
    });

    group.bench_function("host_get/parse_head", |b| {
        b.iter(|| {
            let head = codec::parse_head(black_box(&get_wire[..get_head_end])).unwrap();
            head.content_length().unwrap()
        });
    });

    group.bench_function("host_get/parse_head+build_request", |b| {
        let head_bytes = &get_wire[..get_head_end];
        let body = &get_wire[get_head_end..];
        b.iter(|| {
            let head = codec::parse_head(black_box(head_bytes)).unwrap();
            codec::build_request(&head, black_box(body)).unwrap()
        });
    });

    group.bench_function("host_ok/encode_response_into", |b| {
        b.iter(|| {
            codec::encode_response_into(&mut ok_wire, black_box(&ok));
            ok_wire.len()
        });
    });

    group.bench_function("host_ok/find_head_end+parse_head+build_response", |b| {
        b.iter(|| {
            let end = codec::find_head_end(black_box(&ok_wire), 0).unwrap();
            let head = codec::parse_head(&ok_wire[..end]).unwrap();
            codec::build_response(&head, &ok_wire[end..]).unwrap()
        });
    });

    group.throughput(Throughput::Elements(STRIDE as u64));
    group.bench_function("host_get/stride16_scan_parse_build", |b| {
        b.iter(|| serve_stride(black_box(&stride)));
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_http_codec
);
criterion_main!(benches);

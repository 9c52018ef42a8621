//! HTTP robustness acceptance: malformed/oversized input is rejected
//! with bounded cost, conditional requests round-trip on the snapshot
//! fingerprint ETag, deadline-degraded viewports serve exactly what
//! `Session::viewport_preview` would, overload sheds `503` instead of
//! queueing unboundedly (in under a millisecond), slow-loris clients
//! get `408`, idle sessions are garbage-collected together with the
//! snapshot registry, and the `serve` binary rejects arguments it
//! cannot serve with exit code 2.

mod util;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_serve::{json, serve, ServerConfig};
use util::{
    raster_bytes, raw_roundtrip, request, request_with, test_engine, test_engine_lod, KeepAlive,
};

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 3,
        queue_depth: 16,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_secs(5),
        session_idle: Duration::from_secs(60),
        gc_interval: Duration::from_millis(100),
        ..ServerConfig::default()
    }
}

const VIEW: &str = "/session/0/viewport?x0=0.1&x1=0.9&y0=0.1&y1=0.9&w=64&h=64";

#[test]
fn malformed_and_oversized_requests_are_rejected_cheaply() {
    let server = serve(test_engine(900, 7), quick_config()).expect("bind");
    let addr = server.addr();

    let not_http = raw_roundtrip(addr, b"NOT AN HTTP REQUEST\r\n\r\n").unwrap();
    assert_eq!(not_http.status, 400);
    let bad_version = raw_roundtrip(addr, b"GET / HTTP/2\r\n\r\n").unwrap();
    assert_eq!(bad_version.status, 400);
    let bare_header = raw_roundtrip(addr, b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap();
    assert_eq!(bare_header.status, 400);

    // A 10 KiB header line: the server caps the head at 8 KiB and must
    // answer 431 without buffering the rest.
    let mut oversized = b"GET /healthz HTTP/1.1\r\nX-Junk: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', 10 * 1024));
    oversized.extend_from_slice(b"\r\n\r\n");
    let resp = raw_roundtrip(addr, &oversized).unwrap();
    assert_eq!(resp.status, 431);

    // A declared 10 GB body earns 413 *before* any body byte is read:
    // the reply must arrive immediately, proving no proportional read
    // or allocation happened.
    let started = rnnhm_core::clock::now();
    let huge = b"POST /session HTTP/1.1\r\nContent-Length: 10000000000\r\n\r\n";
    let resp = raw_roundtrip(addr, huge).unwrap();
    assert_eq!(resp.status, 413);
    assert!(started.elapsed() < Duration::from_secs(2), "413 must not wait for the declared body");

    let chunked =
        raw_roundtrip(addr, b"POST /session HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap();
    assert_eq!(chunked.status, 501);

    // Routing errors.
    assert_eq!(request(addr, "GET", "/no/such/endpoint").unwrap().status, 404);
    assert_eq!(request(addr, "PUT", "/healthz").unwrap().status, 405);
    assert_eq!(request(addr, "GET", "/session/abc").unwrap().status, 400);
    assert_eq!(request(addr, "GET", "/session/99").unwrap().status, 404);
    assert_eq!(request(addr, "GET", "/session/0/tile/40/0/0").unwrap().status, 400, "deep zoom");
    assert_eq!(request(addr, "GET", "/session/0/tile/1/99/0").unwrap().status, 400, "tx range");
    assert_eq!(request(addr, "GET", "/session/0/tile/a/b/c").unwrap().status, 400);
    assert_eq!(
        request(addr, "GET", "/session/0/viewport?x0=0&x1=1&y0=0&y1=1&w=64").unwrap().status,
        400,
        "missing h"
    );
    assert_eq!(
        request(addr, "GET", "/session/0/viewport?x0=1&x1=0&y0=0&y1=1&w=64&h=64").unwrap().status,
        422,
        "inverted extent"
    );
    assert_eq!(
        request(addr, "GET", "/session/0/viewport?x0=0&x1=nan&y0=0&y1=1&w=64&h=64").unwrap().status,
        422,
        "non-finite extent"
    );
    assert_eq!(
        request(addr, "GET", "/session/0/viewport?x0=0&x1=1&y0=0&y1=1&w=9999&h=64").unwrap().status,
        422,
        "oversized raster"
    );
    assert_eq!(request(addr, "POST", "/session/0/edit?op=teleport").unwrap().status, 400);

    // The server is fully healthy after all of that.
    let ok = request(addr, "GET", "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    let stats = server.stats();
    assert_eq!(stats.panics_caught, 0);
    // The only 5xx is the deliberate 501 for chunked transfer-encoding.
    assert_eq!(stats.responses_5xx, 1);
    server.shutdown();
}

#[test]
fn exact_responses_are_bit_identical_and_etag_304_round_trips() {
    let engine = test_engine(900, 11);
    let server = serve(engine.clone(), quick_config()).expect("bind");
    let addr = server.addr();
    let rect = Rect::new(0.1, 0.9, 0.1, 0.9);

    // Exact viewport: bytes match a one-shot in-process render.
    let first = request(addr, "GET", VIEW).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-resolved"), Some("1"));
    let local = engine.session();
    assert_eq!(
        first.body,
        raster_bytes(&local.viewport(rect, 64, 64)),
        "served viewport must be bit-identical to a one-shot render"
    );
    let grid = first.header("x-grid").unwrap().to_string();
    let (w, h) = grid.split_once(' ').unwrap();
    assert_eq!(
        w.parse::<usize>().unwrap() * h.parse::<usize>().unwrap() * 8,
        first.body.len(),
        "X-Grid must describe the body"
    );

    // Tile endpoint: same bit-identity, same ETag.
    let tile = request(addr, "GET", "/session/0/tile/1/0/0").unwrap();
    assert_eq!(tile.status, 200);
    assert_eq!(tile.body, raster_bytes(&local.tile(TileId { zoom: 1, tx: 0, ty: 0 })));

    // Conditional round-trip: the ETag is the snapshot fingerprint.
    let tag = first.header("etag").expect("exact responses carry an ETag").to_string();
    assert_eq!(tag, format!("\"{:016x}\"", local.fingerprint()));
    assert_eq!(tile.header("etag"), Some(tag.as_str()), "one snapshot, one validator");
    let cond = request_with(addr, "GET", VIEW, &[("If-None-Match", &tag)]).unwrap();
    assert_eq!(cond.status, 304);
    assert!(cond.body.is_empty(), "304 must carry no body");
    assert_eq!(cond.header("etag"), Some(tag.as_str()));

    // An edit commits a new fingerprint: the old validator stops
    // matching and the fresh response carries the new one.
    let edit = request(addr, "POST", "/session/0/edit?op=add&x=0.31&y=0.47").unwrap();
    assert_eq!(edit.status, 200);
    let body = String::from_utf8(edit.body.clone()).unwrap();
    assert!(body.contains("\"fingerprint\""), "{body}");
    let after = request_with(addr, "GET", VIEW, &[("If-None-Match", &tag)]).unwrap();
    assert_eq!(after.status, 200, "stale validator must re-render");
    let new_tag = after.header("etag").unwrap();
    assert_ne!(new_tag, tag);
    assert_eq!(server.stats().responses_3xx, 1);
    server.shutdown();
}

#[test]
fn deadline_degraded_viewport_matches_session_preview() {
    let engine = test_engine(900, 13);
    let config = ServerConfig { request_deadline: Duration::from_millis(30), ..quick_config() };
    let fault = config.fault.clone();
    let server = serve(engine.clone(), config).expect("bind");
    let addr = server.addr();
    let rect = Rect::new(0.1, 0.9, 0.1, 0.9);

    // Warm a corner of the viewport first so the degraded preview has
    // real content to resolve, not just background fill.
    let warm =
        request(addr, "GET", "/session/0/viewport?x0=0.1&x1=0.5&y0=0.1&y1=0.5&w=32&h=32").unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-degraded"), None);

    // Every render now stalls past the 30 ms budget: the viewport must
    // degrade rather than block.
    fault.delay_render_every(1, Duration::from_millis(120));
    let degraded = request(addr, "GET", VIEW).unwrap();
    fault.disarm();
    assert_eq!(degraded.status, 200);
    assert_eq!(degraded.header("x-degraded"), Some("1"));
    assert!(degraded.header("etag").is_none(), "degraded bytes must never be cacheable as exact");
    let resolved: f64 = degraded.header("x-resolved").unwrap().parse().unwrap();
    assert!(
        resolved > 0.0 && resolved < 1.0,
        "partially warmed viewport resolves partially: {resolved}"
    );

    // The degraded body is exactly `Session::viewport_preview` over
    // the same cache state (the deadline giveup rendered nothing more).
    let preview = engine.session().viewport_preview(rect, 64, 64);
    assert_eq!(degraded.body, raster_bytes(&preview.raster));
    assert_eq!(resolved, preview.resolved);
    assert_eq!(server.stats().degraded, 1);
    assert!(engine.cache_stats().deadline_giveups >= 1);

    // With the stall gone the same request converges back to exact.
    let exact = request(addr, "GET", VIEW).unwrap();
    assert_eq!(exact.header("x-degraded"), None);
    assert_eq!(exact.body, raster_bytes(&engine.session().viewport(rect, 64, 64)));
    server.shutdown();
}

#[test]
fn queue_full_sheds_immediately_with_503() {
    let config = ServerConfig { workers: 1, queue_depth: 2, ..quick_config() };
    let fault = config.fault.clone();
    let server = serve(test_engine(900, 17), config).expect("bind");
    let addr = server.addr();

    // Pin the single worker: every render stalls 300 ms, so a herd of
    // 12 connections can drain at most worker+queue before the rest
    // must be shed.
    fault.delay_render_every(1, Duration::from_millis(300));
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..12).map(|_| scope.spawn(move || request(addr, "GET", VIEW))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    fault.disarm();

    let mut shed = 0u64;
    let mut served = 0u64;
    for reply in replies {
        let reply = reply.expect("every connection gets a reply (shed or served)");
        match reply.status {
            503 => {
                shed += 1;
                assert!(reply.header("retry-after").is_some(), "503 must carry Retry-After");
            }
            200 => served += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(shed > 0, "a 12-strong herd against 1 worker + depth-2 queue must shed");
    assert!(served > 0, "admitted requests still complete");
    let stats = server.stats();
    assert_eq!(stats.shed, shed, "every shed is counted");
    assert!(stats.queue_high_water <= 2, "the queue never grew past its bound");

    // Overload over: the server serves normally.
    assert_eq!(request(addr, "GET", "/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn slow_loris_gets_408_within_the_read_timeout() {
    let config = ServerConfig { read_timeout: Duration::from_millis(200), ..quick_config() };
    let server = serve(test_engine(900, 19), config).expect("bind");

    let started = rnnhm_core::clock::now();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Half a request line, then silence.
    stream.write_all(b"GET /healthz HTT").unwrap();
    let mut buf = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut buf).unwrap();
    let reply = String::from_utf8_lossy(&buf);
    assert!(reply.starts_with("HTTP/1.1 408"), "slow loris must get 408, got: {reply}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the worker must give up within the read timeout, not hang"
    );
    assert_eq!(server.stats().read_timeouts, 1);
    server.shutdown();
}

#[test]
fn idle_sessions_are_reaped_and_the_registry_swept() {
    let engine = test_engine(900, 23);
    let config = ServerConfig {
        session_idle: Duration::from_millis(150),
        gc_interval: Duration::from_millis(30),
        ..quick_config()
    };
    let server = serve(engine.clone(), config).expect("bind");
    let addr = server.addr();

    // A session with a committed edit: its snapshot lives only through
    // the server's session table.
    let created = request(addr, "POST", "/session").unwrap();
    assert_eq!(created.status, 200);
    let body = String::from_utf8(created.body).unwrap();
    assert!(body.contains("\"session\":1"), "{body}");
    let edit = request(addr, "POST", "/session/1/edit?op=add&x=0.4&y=0.6").unwrap();
    assert_eq!(edit.status, 200);
    let branch_fp = {
        let info = request(addr, "GET", "/session/1").unwrap();
        String::from_utf8(info.body).unwrap()
    };
    assert!(branch_fp.contains("\"generation\":1"), "{branch_fp}");
    assert_eq!(engine.snapshots().len(), 2, "root + the branch commit are alive");

    // Idle past the deadline: the reaper drops the session, and with
    // it the branch snapshot; the registry sweep runs in the same
    // pass.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(request(addr, "GET", "/session/1").unwrap().status, 404);
    let stats = server.stats();
    assert!(stats.sessions_reaped >= 1, "the idle session was reaped: {stats:?}");
    assert_eq!(stats.sessions_live, 1, "only the root session survives");
    assert_eq!(engine.snapshots().len(), 1, "the branch snapshot died with its session");
    let registry = engine.registry_stats();
    assert_eq!(registry.entries, registry.live, "the reaper's gc left no dead entries");

    // The root session is exempt forever.
    assert_eq!(request(addr, "GET", "/session/0").unwrap().status, 200);
    assert_eq!(request(addr, "DELETE", "/session/0").unwrap().status, 400);
    server.shutdown();
}

/// The in-process session on the snapshot HTTP session `id` serves,
/// found among the engine's live snapshots by the fingerprint
/// `GET /session/{id}` reports.
fn in_process_session(
    engine: &ExplorationEngine<CountMeasure>,
    addr: SocketAddr,
    id: u64,
) -> Session<CountMeasure> {
    let reply = request(addr, "GET", &format!("/session/{id}")).unwrap();
    let info = String::from_utf8(reply.body).unwrap();
    let fp = info
        .split("\"fingerprint\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("no fingerprint in {info}"));
    let snap = engine
        .snapshots()
        .into_iter()
        .find(|s| format!("{:016x}", s.fingerprint()) == fp)
        .expect("the session's snapshot is registered and alive");
    engine.session_at(snap)
}

/// Every `/influence` body of HTTP session `id` is exactly
/// `{"influence":..,"rnn":[..]}` built from `Session::influence_at` on
/// the snapshot that session serves.
fn assert_influence_bodies(
    engine: &ExplorationEngine<CountMeasure>,
    addr: SocketAddr,
    id: u64,
    points: &[Point],
) {
    let session = in_process_session(engine, addr, id);
    for p in points {
        let target = format!("/session/{id}/influence?x={}&y={}", p.x, p.y);
        let reply = request(addr, "GET", &target).unwrap();
        assert_eq!(reply.status, 200, "{target}");
        let (rnn, influence) = session.influence_at(*p);
        let ids: Vec<String> = rnn.iter().map(u32::to_string).collect();
        let want =
            format!("{{\"influence\":{},\"rnn\":[{}]}}", json::number(influence), ids.join(","));
        assert_eq!(String::from_utf8(reply.body).unwrap(), want, "{target}");
    }
}

#[test]
fn session_lifecycle_fork_edit_delete_and_queries() {
    let engine = test_engine(900, 29);
    let server = serve(engine.clone(), quick_config()).expect("bind");
    let addr = server.addr();

    // Fork the root, edit the fork: the root's fingerprint must not
    // move.
    let fork = request(addr, "POST", "/session/0/fork").unwrap();
    assert_eq!(fork.status, 200);
    let fork_body = String::from_utf8(fork.body).unwrap();
    assert!(fork_body.contains("\"session\":1"), "{fork_body}");
    let root_fp = engine.session().fingerprint();
    let edit = request(addr, "POST", "/session/1/edit?op=add&x=0.52&y=0.48").unwrap();
    let edit_body = String::from_utf8(edit.body).unwrap();
    assert!(edit_body.contains("\"dirty_rects\""), "{edit_body}");
    assert!(!edit_body.contains(&format!("{root_fp:016x}")), "edit must commit a new snapshot");
    assert_eq!(engine.session().fingerprint(), root_fp, "the root is untouched");

    // `/influence` answers exactly what the in-process session on the
    // same snapshot answers, on the root and on the edited fork, before
    // and after one more fork edit.
    let mut state = 0x2f1e_0d3c_u64;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let mut points: Vec<Point> = (0..48).map(|_| Point::new(unit(), unit())).collect();
    points.extend([Point::new(0.52, 0.48), Point::new(0.3, 0.7)]);
    for id in [0, 1] {
        assert_influence_bodies(&engine, addr, id, &points);
    }
    let fork_fp = in_process_session(&engine, addr, 1).fingerprint();
    let edit = request(addr, "POST", "/session/1/edit?op=add&x=0.3&y=0.7").unwrap();
    assert_eq!(edit.status, 200);
    assert_ne!(in_process_session(&engine, addr, 1).fingerprint(), fork_fp, "a geometry edit");
    for id in [0, 1] {
        assert_influence_bodies(&engine, addr, id, &points);
    }
    assert_eq!(engine.session().fingerprint(), root_fp, "the root is still untouched");

    // Query endpoints return well-formed JSON.
    let topk = request(addr, "GET", "/session/1/topk?k=3").unwrap();
    assert_eq!(topk.status, 200);
    let topk_body = String::from_utf8(topk.body).unwrap();
    assert!(topk_body.starts_with("{\"regions\":["), "{topk_body}");
    assert!(topk_body.contains("\"influence\":"), "{topk_body}");
    let inf = request(addr, "GET", "/session/1/influence?x=0.5&y=0.5").unwrap();
    let inf_body = String::from_utf8(inf.body).unwrap();
    assert!(inf_body.starts_with("{\"influence\":"), "{inf_body}");
    assert_eq!(request(addr, "GET", "/session/1/topk?k=0").unwrap().status, 422);

    // Invalid edits are 422 with the engine's own error message. An id
    // past `u32::MAX` names no facility either: it must not wrap onto a
    // live one (2^32 + 1 would otherwise remove or move facility 1).
    let before = request(addr, "GET", "/session/1").unwrap().body;
    for bad_edit in
        ["op=remove&id=999999", "op=remove&id=4294967297", "op=move&id=4294967297&x=0.5&y=0.5"]
    {
        let bad = request(addr, "POST", &format!("/session/1/edit?{bad_edit}")).unwrap();
        assert_eq!(bad.status, 422, "{bad_edit}");
    }
    assert_eq!(request(addr, "GET", "/session/1").unwrap().body, before, "nothing committed");

    // Delete is final.
    assert_eq!(request(addr, "DELETE", "/session/1").unwrap().status, 204);
    assert_eq!(request(addr, "GET", "/session/1").unwrap().status, 404);
    assert_eq!(request(addr, "DELETE", "/session/1").unwrap().status, 404);

    // Stats endpoint speaks JSON and reflects the traffic.
    let stats = request(addr, "GET", "/stats").unwrap();
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(stats_body.contains("\"server\":{"), "{stats_body}");
    assert!(stats_body.contains("\"cache\":{"), "{stats_body}");
    assert!(stats_body.contains("\"registry\":{"), "{stats_body}");
    server.shutdown();
}

#[test]
fn session_table_is_bounded() {
    let config = ServerConfig { max_sessions: 3, ..quick_config() };
    let server = serve(test_engine(900, 31), config).expect("bind");
    let addr = server.addr();
    assert_eq!(request(addr, "POST", "/session").unwrap().status, 200);
    assert_eq!(request(addr, "POST", "/session").unwrap().status, 200);
    let full = request(addr, "POST", "/session").unwrap();
    assert_eq!(full.status, 503, "root + 2 created sessions fill a table of 3");
    assert!(full.header("retry-after").is_some());
    // Dropping one frees a slot.
    assert_eq!(request(addr, "DELETE", "/session/1").unwrap().status, 204);
    assert_eq!(request(addr, "POST", "/session").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn keep_alive_connections_serve_multiple_requests() {
    let engine = test_engine(900, 37);
    let server = serve(engine.clone(), quick_config()).expect("bind");
    let mut conn = KeepAlive::connect(server.addr()).unwrap();
    let first = conn.send("GET", VIEW).unwrap();
    assert_eq!(first.status, 200);
    // Same connection, warm cache: the second frame is identical.
    let second = conn.send("GET", VIEW).unwrap();
    assert_eq!(second.body, first.body);
    let health = conn.send("GET", "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(server.stats().accepted, 1, "one keep-alive connection served all requests");
    server.shutdown();
}

const PLACEMENT: &str = "/session/0/placement?m=3";

#[test]
fn placement_etag_round_trips_and_relocation_moves_the_fingerprint() {
    let server = serve(test_engine(600, 41), quick_config()).expect("bind");
    let addr = server.addr();

    let first = request(addr, "GET", PLACEMENT).unwrap();
    assert_eq!(first.status, 200);
    let tag = first.header("etag").expect("placement replies carry an ETag").to_string();
    let body = String::from_utf8(first.body.clone()).unwrap();
    assert!(body.contains("\"placements\""));
    assert!(body.contains("\"influence\""));

    // Same snapshot: bit-identical reply, and the validator holds.
    let again = request(addr, "GET", PLACEMENT).unwrap();
    assert_eq!(again.body, first.body);
    let cond = request_with(addr, "GET", PLACEMENT, &[("If-None-Match", &tag)]).unwrap();
    assert_eq!(cond.status, 304);
    assert!(cond.body.is_empty(), "304 must carry no body");
    assert_eq!(cond.header("etag"), Some(tag.as_str()));

    // Relocation commits a real move, so the fingerprint — and with it
    // the placement validator — must change.
    let moved = request(addr, "POST", "/session/0/relocate?facility=0").unwrap();
    assert_eq!(moved.status, 200);
    let moved_body = String::from_utf8(moved.body).unwrap();
    assert!(moved_body.contains("\"gain\""));
    assert!(moved_body.contains("\"fingerprint\""));

    let after = request_with(addr, "GET", PLACEMENT, &[("If-None-Match", &tag)]).unwrap();
    assert_eq!(after.status, 200, "stale validator must re-serve in full");
    let new_tag = after.header("etag").unwrap().to_string();
    assert_ne!(new_tag, tag);
    let cond2 = request_with(addr, "GET", PLACEMENT, &[("If-None-Match", &new_tag)]).unwrap();
    assert_eq!(cond2.status, 304);
    server.shutdown();
}

#[test]
fn placement_validates_input_and_methods() {
    let server = serve(test_engine(600, 43), quick_config()).expect("bind");
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/session/0/placement?m=0").unwrap().status, 422);
    assert_eq!(request(addr, "GET", "/session/0/placement?m=101").unwrap().status, 422);
    assert_eq!(request(addr, "GET", "/session/0/placement?m=abc").unwrap().status, 422);
    let before = request(addr, "GET", "/session/0").unwrap().body;
    for id in ["99999", "4294967296"] {
        let unknown = request(addr, "POST", &format!("/session/0/relocate?facility={id}")).unwrap();
        assert_eq!(unknown.status, 422, "unknown facility {id} is a client error, not a 500");
    }
    // 2^32 must not wrap onto facility 0 and move it.
    assert_eq!(request(addr, "GET", "/session/0").unwrap().body, before, "nothing committed");
    assert_eq!(request(addr, "POST", "/session/0/relocate").unwrap().status, 400);
    assert_eq!(request(addr, "POST", "/session/0/placement?m=3").unwrap().status, 405);
    assert_eq!(request(addr, "GET", "/session/0/relocate?facility=0").unwrap().status, 405);
    assert_eq!(request(addr, "GET", "/session/99/placement?m=3").unwrap().status, 404);
    server.shutdown();
}

#[test]
fn placement_deadline_rejects_exact_never_degrades() {
    // Unlike viewports, placement has no degraded fallback: a blown
    // deadline must be an honest 503 with Retry-After, never an
    // approximate answer.
    let config = ServerConfig { request_deadline: Duration::from_millis(30), ..quick_config() };
    let server = serve(test_engine(600, 47), config).expect("bind");
    let addr = server.addr();
    let fault = std::sync::Arc::clone(server.fault());
    fault.delay_render_every(1, Duration::from_millis(80));

    let rejected = request(addr, "GET", PLACEMENT).unwrap();
    assert_eq!(rejected.status, 503);
    assert!(rejected.header("retry-after").is_some(), "503 must carry Retry-After");
    assert!(rejected.header("x-degraded").is_none(), "placement must never degrade");
    assert!(rejected.header("etag").is_none(), "a rejection is not cacheable");

    fault.disarm();
    let ok = request(addr, "GET", PLACEMENT).unwrap();
    assert_eq!(ok.status, 200);
    assert!(server.stats().deadline_rejected >= 1, "rejection is counted in /stats");
    server.shutdown();
}

#[test]
fn viewport_pixel_budget_and_overflow_extents_are_rejected_before_allocation() {
    let server = serve(test_engine(600, 53), quick_config()).expect("bind");
    let addr = server.addr();

    // Each axis is within the per-axis 4096 cap, but the product blows
    // the 4M-pixel budget — the reply must arrive immediately, proving
    // no 128 MiB raster was allocated or rendered.
    let started = rnnhm_core::clock::now();
    let q = "/session/0/viewport?x0=0.1&x1=0.9&y0=0.1&y1=0.9";
    let huge = request(addr, "GET", &format!("{q}&w=4096&h=4096")).unwrap();
    assert_eq!(huge.status, 422);
    let over = request(addr, "GET", &format!("{q}&w=2049&h=2048")).unwrap();
    assert_eq!(over.status, 422, "2049*2048 is one row past the budget");

    // Finite endpoints whose *span* overflows to infinity would poison
    // every downstream zoom computation; rejected up front.
    let span =
        request(addr, "GET", "/session/0/viewport?x0=-1e308&x1=1e308&y0=0&y1=1&w=64&h=64").unwrap();
    assert_eq!(span.status, 422);
    // Degenerate (zero-area) extents likewise.
    let flat =
        request(addr, "GET", "/session/0/viewport?x0=0.5&x1=0.5&y0=0&y1=1&w=64&h=64").unwrap();
    assert_eq!(flat.status, 422);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "validation rejections must not pay render or allocation cost"
    );

    // The exact budget boundary is admitted (small extent keeps the
    // debug-mode render cheap: 2048*2048 == the budget exactly).
    let edge =
        request(addr, "GET", "/session/0/viewport?x0=0.4&x1=0.401&y0=0.4&y1=0.401&w=64&h=64")
            .unwrap();
    assert_eq!(edge.status, 200, "requests inside the budget still serve");
    server.shutdown();
}

#[test]
fn approximate_tiles_and_viewports_are_labeled_and_carry_no_validator() {
    let engine = test_engine_lod(900, 59);
    let server = serve(engine.clone(), quick_config()).expect("bind");
    let addr = server.addr();
    let local = engine.session();
    let tag = format!("\"{:016x}\"", local.fingerprint());

    // A zoom-0 tile sits below the exact-zoom threshold: served from
    // the mipmap, labeled approximate, with a measured error bound and
    // *no* strong validator.
    let coarse = request(addr, "GET", "/session/0/tile/0/0/0").unwrap();
    assert_eq!(coarse.status, 200);
    assert_eq!(coarse.header("x-approx"), Some("1"));
    let bound: f64 = coarse
        .header("x-approx-error")
        .expect("approx replies state a bound")
        .parse()
        .expect("numeric bound");
    assert!(bound.is_finite() && bound >= 0.0, "bound {bound}");
    assert!(coarse.header("etag").is_none(), "approximate bytes must not carry an ETag");
    assert_eq!(coarse.header("cache-control"), Some("private"));

    // The bytes are exactly the engine's own LoD frame.
    let frame = local.tile_lod(TileId { zoom: 0, tx: 0, ty: 0 });
    assert!(frame.approx);
    assert_eq!(coarse.body, raster_bytes(&frame.raster));
    assert_eq!(bound, frame.error_bound);

    // A conditional request cannot 304 an approximate tile — there is
    // no validator for the client to legitimately hold.
    let cond =
        request_with(addr, "GET", "/session/0/tile/0/0/0", &[("If-None-Match", &tag)]).unwrap();
    assert_eq!(cond.status, 200, "approximate tiles never short-circuit to 304");
    assert_eq!(cond.header("x-approx"), Some("1"));

    // At the threshold the exact contract is fully back: ETag present,
    // conditional round-trip honored, no approx labels.
    let exact = request(addr, "GET", "/session/0/tile/2/1/1").unwrap();
    assert_eq!(exact.status, 200);
    assert_eq!(exact.header("x-approx"), None);
    assert_eq!(exact.header("x-approx-error"), None);
    assert_eq!(exact.header("etag"), Some(tag.as_str()));
    assert_eq!(exact.body, raster_bytes(&local.tile(TileId { zoom: 2, tx: 1, ty: 1 })));
    let cond =
        request_with(addr, "GET", "/session/0/tile/2/1/1", &[("If-None-Match", &tag)]).unwrap();
    assert_eq!(cond.status, 304);

    // A world-covering viewport at one tile's pixels resolves to a
    // coarse zoom: same labeling rules as the tile endpoint.
    let world = local.tile_scheme().world();
    let vq = format!(
        "/session/0/viewport?x0={}&x1={}&y0={}&y1={}&w=32&h=32",
        world.x_lo, world.x_hi, world.y_lo, world.y_hi
    );
    let vp = request(addr, "GET", &vq).unwrap();
    assert_eq!(vp.status, 200);
    assert_eq!(vp.header("x-approx"), Some("1"));
    assert!(vp.header("etag").is_none(), "approximate viewports carry no validator");
    assert!(vp.header("x-approx-error").is_some());
    match local.viewport_frame(world, 32, 32) {
        ViewportFrame::Approx { raster, .. } => assert_eq!(vp.body, raster_bytes(&raster)),
        _ => panic!("a world-at-32px viewport must resolve approximate"),
    }
    server.shutdown();
}

#[test]
fn lone_sheds_and_warm_keep_alive_tiles_answer_within_a_millisecond() {
    // One worker and a depth-2 queue over a dense instance (10,000
    // uniform clients, 625 facilities, 64 px tiles). The read timeout
    // outlasts the test, so an open keep-alive connection pins the
    // worker for as long as the test holds it.
    let data = Dataset::uniform(21_250, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 10_000, 625, 42 ^ 0x5eed);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .tile_px(64)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    let config = ServerConfig {
        workers: 1,
        queue_depth: 2,
        read_timeout: Duration::from_secs(120),
        ..quick_config()
    };
    let server = serve(Arc::new(engine), config).expect("bind");
    let addr = server.addr();
    let p50 = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };

    // A warm tile over keep-alive costs a lookup and a write.
    const TILE: &str = "/session/0/tile/0/0/0";
    let mut pinned = KeepAlive::connect(addr).unwrap();
    assert_eq!(pinned.send("GET", TILE).unwrap().status, 200);
    let warm: Vec<f64> = (0..200)
        .map(|_| {
            let started = rnnhm_core::clock::now();
            assert_eq!(pinned.send("GET", TILE).unwrap().status, 200);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let warm_p50 = p50(warm);
    assert!(warm_p50 <= 0.95, "warm keep-alive tile p50 {warm_p50:.3} ms exceeds 0.95 ms");

    // The worker now waits on `pinned` for its next request. Two idle
    // connections queue behind it; once the queue's high-water mark
    // reads 2, the queue is full and stays full until they close.
    let queued: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    while server.stats().queue_high_water < 2 {
        std::thread::yield_now();
    }
    // So every lone probe is shed at admission, one at a time.
    const PROBES: usize = 100;
    let shed: Vec<f64> = (0..PROBES)
        .map(|_| {
            let started = rnnhm_core::clock::now();
            let reply = request(addr, "GET", "/healthz").unwrap();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(reply.status, 503, "a full queue behind a busy worker must shed");
            ms
        })
        .collect();
    assert_eq!(server.stats().shed, PROBES as u64);
    let shed_p50 = p50(shed);
    assert!(shed_p50 < 1.0, "shed 503 p50 {shed_p50:.3} ms is not under 1 ms");

    drop(pinned);
    drop(queued);
    server.shutdown();
}

#[test]
fn serve_binary_rejects_bad_arguments_with_exit_2() {
    // Fewer points than the facility sample, a k above the facility
    // count, and an address that cannot be bound: each ends with the
    // usage line or the error and exit code 2, never a panic and never
    // a listener.
    for args in [
        &["--n", "3", "--addr", "127.0.0.1:0"][..],
        &["--n", "100", "--k", "9", "--addr", "127.0.0.1:0"],
        &["--n", "100", "--addr", "not-an-address"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let started = rnnhm_core::clock::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for serve") {
                break status;
            }
            if started.elapsed() > Duration::from_secs(60) {
                child.kill().ok();
                panic!("serve {args:?} is still running; it must reject its input");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
        assert_eq!(status.code(), Some(2), "serve {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "serve {args:?} panicked: {stderr}");
    }
}

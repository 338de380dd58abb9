//! A view extent tuple that its view can never produce is invalid input
//! on every route, not a worker panic.
//!
//! `V(x,x) :- E(x,y).` only produces tuples whose two values agree, and
//! `V(x,N3) :- E(x,y).` only tuples ending in `N3`, so the extent
//! `V(N1,N2).` lies outside either view's image. The chase rejects such
//! a tuple with `VqdError::InvalidInput`, naming the view and the
//! tuple; the server replies `invalid-input` inline and by handle,
//! records no panic, and keeps serving the connection.

use std::time::Duration;
use vqd::budget::{Budget, VqdError};
use vqd::chase::CqViews;
use vqd::core::certain::certain_sound_ctx;
use vqd::instance::{DomainNames, Schema};
use vqd::query::{parse_instance, parse_program, parse_query, ViewSet};
use vqd::server::{
    self, CacheConfig, Client, Envelope, ErrorKind, Limits, Outcome, Request, ServerCaps,
    ServerConfig,
};

const SCHEMA: &str = "E/2";
const QUERY: &str = "Q(x) :- E(x,y).";
const EXTENT: &str = "V(N1,N2).";
/// One view per rejected shape: a repeated head variable, a head constant.
const VIEWS: [(&str, &str); 2] = [
    ("V(x,x) :- E(x,y).", "repeated head variable `x`"),
    ("V(x,N3) :- E(x,y).", "head constant"),
];

#[test]
fn certain_sound_ctx_reports_invalid_input() {
    for (views, why) in VIEWS {
        let schema = Schema::parse(SCHEMA).unwrap();
        let mut names = DomainNames::new();
        let prog = parse_program(&schema, &mut names, views).unwrap();
        let views = CqViews::try_new(ViewSet::new(&schema, prog.defs)).unwrap();
        let q = parse_query(&schema, &mut names, QUERY).unwrap();
        let extent =
            parse_instance(views.as_view_set().output_schema(), &mut names, EXTENT).unwrap();
        let err = certain_sound_ctx(&views, q.as_cq().unwrap(), &extent, &Budget::unlimited())
            .unwrap_err();
        match err {
            VqdError::InvalidInput { context, message } => {
                assert_eq!(context, "v_inverse");
                assert!(message.contains("view `V` cannot produce the tuple"), "{message}");
                assert!(message.contains(why), "{message}");
            }
            other => panic!("expected invalid input, got {other:?}"),
        }
    }
}

fn spawn() -> server::ServerHandle {
    server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        caps: ServerCaps {
            cache: CacheConfig {
                shards: 1,
                max_entries: 16,
                max_bytes: u64::MAX,
                disk: None,
            },
            ..ServerCaps::default()
        },
    })
    .expect("spawn server")
}

fn send(client: &mut Client, id: &str, request: Request) -> Outcome {
    let line = Envelope::new(id, Limits::none(), request).to_json();
    client.call_raw(&line.to_string()).expect("reply").outcome
}

fn assert_invalid_input(outcome: Outcome, route: &str) {
    match outcome {
        Outcome::Error { kind: ErrorKind::InvalidInput, message } => assert!(
            message.contains("view `V` cannot produce the tuple"),
            "{route}: {message}"
        ),
        other => panic!("{route}: expected invalid-input, got {other:?}"),
    }
}

#[test]
fn server_routes_reply_invalid_input_without_a_worker_panic() {
    let srv = spawn();
    let mut c = Client::connect(srv.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let (handle, _) = c.put_instance("V/2", EXTENT).expect("put");
    let mut ids = Vec::new();
    for (k, (views, _)) in VIEWS.into_iter().enumerate() {
        let id = format!("unproducible-inline-{k}");
        let inline = Request::Certain {
            schema: SCHEMA.into(),
            views: views.into(),
            query: QUERY.into(),
            extent: EXTENT.into(),
        };
        assert_invalid_input(send(&mut c, &id, inline), &id);
        ids.push(id);

        let id = format!("unproducible-handle-{k}");
        let by_handle = Request::CertainHandle {
            schema: SCHEMA.into(),
            views: views.into(),
            query: QUERY.into(),
            handle: handle.clone(),
        };
        assert_invalid_input(send(&mut c, &id, by_handle), &id);
        ids.push(id);

        // The connection still serves, and the same views still decide:
        // freezing a query never meets an unproducible tuple.
        assert_eq!(send(&mut c, "unproducible-ping", Request::Ping), Outcome::Pong);
        let decide = Request::Decide {
            schema: SCHEMA.into(),
            views: views.into(),
            query: QUERY.into(),
        };
        let outcome = send(&mut c, "unproducible-decide", decide);
        assert!(matches!(outcome, Outcome::Decided { .. }), "{outcome:?}");
    }

    let (_, registry) = c.stats_full().expect("stats");
    assert_eq!(registry.counter("server.worker_panics"), 0);
    // The flight ring is process-global, so look only at this test's ids.
    let jsonl = c.flight().expect("flight");
    for id in &ids {
        let digest = jsonl
            .lines()
            .find(|l| l.contains(&format!("\"{id}\"")))
            .unwrap_or_else(|| panic!("no flight digest for {id}:\n{jsonl}"));
        assert!(digest.contains("\"outcome\":\"error\""), "{digest}");
    }
    srv.shutdown();
}

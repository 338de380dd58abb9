//! Decoder robustness: every byte sequence a wire decoder can receive
//! yields `Ok` or a typed error, never a panic.
//!
//! Seeds are the lines of the golden wire corpus (`tests/golden/wire.txt`):
//! every encoded request and reply plus every malformed request/reply
//! input. Each seed is truncated at every byte and fed to its own
//! decoder ([`Envelope::from_line`] for request lines,
//! [`Response::from_line`] for replies); its byte-flipped mutants and its
//! mutants with one JSON value swapped for a value of another type go to
//! both. The generator is a fixed-seed xorshift, so a failure reproduces
//! exactly; the panic message names the input.

use serde::json::{self, Value};
use vqd::server::{Envelope, Response};

const TABLE: &str = "tests/golden/wire.txt";

/// Deterministic xorshift64*.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The wire lines of the golden corpus, encoded lines and decode inputs,
/// each marked `true` when it is a request line.
fn seeds() -> Vec<(String, bool)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TABLE);
    let table = std::fs::read_to_string(path).expect("golden wire table is checked in");
    table
        .lines()
        .filter_map(|l| {
            let (head, rest) = l.split_once(' ')?;
            let line = match head {
                "request" | "reply" => rest.split_once(" => ")?.1,
                "decode-request" | "decode-reply" => rest.rsplit_once(" => ")?.0,
                _ => return None,
            };
            Some((line.to_owned(), head.ends_with("request")))
        })
        .collect()
}

fn decode(input: &str, envelope: bool, response: bool) {
    let run = std::panic::catch_unwind(|| {
        if envelope {
            let _ = Envelope::from_line(input);
        }
        if response {
            let _ = Response::from_line(input);
        }
    });
    assert!(run.is_ok(), "a decoder panicked on {input:?}");
}

fn decode_both(input: &str) {
    decode(input, true, true);
}

/// Values of every JSON type, for swapping into a document.
fn swaps() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(true),
        Value::Num(0.0),
        Value::Num(-1.0),
        Value::Num(1.5),
        Value::Num(1e300),
        Value::from("x"),
        Value::array([]),
        Value::array([Value::Num(1.0)]),
        Value::object::<&str>([]),
        Value::object([("handle", Value::Num(7.0))]),
    ]
}

/// Every value position in a document, as a path of child indexes.
fn paths(v: &Value, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(prefix.clone());
    let children: Vec<&Value> = match v {
        Value::Obj(fields) => fields.iter().map(|(_, c)| c).collect(),
        Value::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, c) in children.into_iter().enumerate() {
        prefix.push(i);
        paths(c, prefix, out);
        prefix.pop();
    }
}

fn at<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Obj(fields) => &mut fields[i].1,
        Value::Arr(items) => &mut items[i],
        _ => unreachable!("paths only descend into containers"),
    })
}

#[test]
fn decoders_never_panic_on_mutated_golden_lines() {
    let seeds = seeds();
    assert!(seeds.len() > 300, "the golden corpus seeds the mutations");
    let mut rng = Rng(0x5eed_0fd3_c0de);
    let swaps = swaps();
    for (seed, request) in &seeds {
        let bytes = seed.as_bytes();
        decode_both(seed);
        // Truncation at every byte, for the seed's own decoder.
        for cut in 0..bytes.len() {
            decode(&String::from_utf8_lossy(&bytes[..cut]), *request, !request);
        }
        // Seeded byte flips, one to three bytes each.
        for _ in 0..16 {
            if bytes.is_empty() {
                break;
            }
            let mut m = bytes.to_vec();
            for _ in 0..=rng.below(3) {
                let i = rng.below(m.len());
                m[i] = rng.next() as u8;
            }
            decode_both(&String::from_utf8_lossy(&m));
        }
        // Value-type swaps at every position of a parseable seed.
        let Ok(doc) = json::parse(seed) else { continue };
        let mut all = Vec::new();
        paths(&doc, &mut Vec::new(), &mut all);
        for path in all {
            let mut m = doc.clone();
            *at(&mut m, &path) = swaps[rng.below(swaps.len())].clone();
            decode_both(&m.to_string());
        }
    }
}

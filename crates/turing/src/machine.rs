//! A small deterministic Turing machine model.
//!
//! Theorem 5.1 encodes halting TM computations as FO-definable relations;
//! this module provides the machines themselves plus a reference
//! simulator over fixed-length tapes, so the FO encoding (in
//! [`crate::encode`]) can be validated against ground truth.
//!
//! Tape alphabet (base symbols): `0 = blank`, `1 = bit 0`, `2 = bit 1`,
//! `3 = end marker '#'`. Machines are space-bounded by construction: the
//! simulator runs on a tape of fixed length and reports boundary escapes
//! as errors rather than growing the tape — matching the encoding, where
//! the tape is the `m × m` grid of domain pairs.

/// Base tape symbols.
pub const SYM_BLANK: usize = 0;
/// Bit 0.
pub const SYM_B0: usize = 1;
/// Bit 1.
pub const SYM_B1: usize = 2;
/// End marker.
pub const SYM_HASH: usize = 3;
/// Number of base symbols.
pub const NUM_SYMBOLS: usize = 4;

/// Head movement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Move {
    /// One cell left.
    L,
    /// One cell right.
    R,
    /// Stay.
    S,
}

/// A deterministic single-tape Turing machine over the fixed alphabet.
#[derive(Clone, Debug)]
pub struct Tm {
    /// Number of states; `0` is the start state.
    pub states: usize,
    /// The (unique, halting) accept state.
    pub accept: usize,
    /// `delta[state * NUM_SYMBOLS + symbol]`; must be `Some` for every
    /// non-accept state and `None` for the accept state.
    pub delta: Vec<Option<(usize, usize, Move)>>,
    /// Human-readable name.
    pub name: &'static str,
}

impl Tm {
    /// Validates the transition table shape.
    pub fn validate(&self) {
        assert_eq!(self.delta.len(), self.states * NUM_SYMBOLS);
        for q in 0..self.states {
            for a in 0..NUM_SYMBOLS {
                let d = &self.delta[q * NUM_SYMBOLS + a];
                if q == self.accept {
                    assert!(d.is_none(), "accept state must be halting");
                } else {
                    let (q2, b, _) = d.expect("non-accept states need total delta");
                    assert!(q2 < self.states && b < NUM_SYMBOLS);
                }
            }
        }
    }

    /// The machine that starts in its accept state: computes the identity
    /// graph query (`R2 = R1`).
    pub fn instant_accept() -> Tm {
        let tm = Tm {
            states: 1,
            accept: 0,
            delta: vec![None; NUM_SYMBOLS],
            name: "instant-accept (identity query)",
        };
        tm.validate();
        tm
    }

    /// The machine that sweeps the tape left→right erasing every bit to
    /// `0`, passing over blanks, and accepting on the end marker:
    /// computes the constant-empty graph query — generic, and distinct
    /// from identity/complement in that its output forgets everything.
    pub fn erase() -> Tm {
        let q0 = 0usize;
        let acc = 1usize;
        let mut delta = vec![None; 2 * NUM_SYMBOLS];
        delta[q0 * NUM_SYMBOLS + SYM_BLANK] = Some((q0, SYM_BLANK, Move::R));
        delta[q0 * NUM_SYMBOLS + SYM_B0] = Some((q0, SYM_B0, Move::R));
        delta[q0 * NUM_SYMBOLS + SYM_B1] = Some((q0, SYM_B0, Move::R));
        delta[q0 * NUM_SYMBOLS + SYM_HASH] = Some((acc, SYM_HASH, Move::S));
        let tm = Tm { states: 2, accept: acc, delta, name: "erase (empty-graph query)" };
        tm.validate();
        tm
    }

    /// The machine that steps one cell right and immediately bounces back
    /// left before accepting: computes the identity query like
    /// [`Tm::instant_accept`], but through a 3-state run that exercises
    /// **both** head directions — the `Move::L` transition rule of `φ_M`
    /// is otherwise never fired.
    pub fn bounce() -> Tm {
        let q0 = 0usize;
        let q1 = 1usize;
        let acc = 2usize;
        let mut delta = vec![None; 3 * NUM_SYMBOLS];
        for a in 0..NUM_SYMBOLS {
            delta[q0 * NUM_SYMBOLS + a] = Some((q1, a, Move::R));
            delta[q1 * NUM_SYMBOLS + a] = Some((acc, a, Move::L));
        }
        let tm = Tm { states: 3, accept: acc, delta, name: "bounce (identity query, L+R moves)" };
        tm.validate();
        tm
    }

    /// The machine that sweeps the tape left→right complementing every
    /// bit, passing over blanks, and accepting on the end marker:
    /// computes the edge-complement graph query (on the nodes of the
    /// input graph) — a generic (order-invariant) query.
    pub fn complement() -> Tm {
        let q0 = 0usize;
        let acc = 1usize;
        let mut delta = vec![None; 2 * NUM_SYMBOLS];
        delta[q0 * NUM_SYMBOLS + SYM_BLANK] = Some((q0, SYM_BLANK, Move::R));
        delta[q0 * NUM_SYMBOLS + SYM_B0] = Some((q0, SYM_B1, Move::R));
        delta[q0 * NUM_SYMBOLS + SYM_B1] = Some((q0, SYM_B0, Move::R));
        delta[q0 * NUM_SYMBOLS + SYM_HASH] = Some((acc, SYM_HASH, Move::S));
        let tm = Tm { states: 2, accept: acc, delta, name: "complement (edge-complement query)" };
        tm.validate();
        tm
    }
}

/// One configuration of a space-bounded run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Config {
    /// Tape contents (fixed length).
    pub tape: Vec<usize>,
    /// Head position.
    pub head: usize,
    /// Current state.
    pub state: usize,
}

/// Errors from the bounded simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The head moved off the tape.
    BoundaryEscape,
    /// The machine did not accept within the step budget.
    OutOfTime,
}

/// Runs `tm` on `tape`, recording every configuration. Returns the full
/// trace `configs[0..=steps]` ending in the accept state, and then pads
/// nothing — padding to a fixed time horizon is the encoder's job.
pub fn simulate(tm: &Tm, tape: Vec<usize>, max_steps: usize) -> Result<Vec<Config>, SimError> {
    tm.validate();
    let mut trace = vec![Config { tape, head: 0, state: 0 }];
    for _ in 0..max_steps {
        let cur = trace.last().expect("non-empty");
        if cur.state == tm.accept {
            return Ok(trace);
        }
        let sym = cur.tape[cur.head];
        let (q2, write, mv) =
            tm.delta[cur.state * NUM_SYMBOLS + sym].expect("validated: total on non-accept states");
        let mut next = cur.clone();
        next.tape[cur.head] = write;
        next.state = q2;
        match mv {
            Move::S => {}
            Move::L => {
                if cur.head == 0 {
                    return Err(SimError::BoundaryEscape);
                }
                next.head = cur.head - 1;
            }
            Move::R => {
                if cur.head + 1 >= cur.tape.len() {
                    return Err(SimError::BoundaryEscape);
                }
                next.head = cur.head + 1;
            }
        }
        trace.push(next);
    }
    if trace.last().expect("non-empty").state == tm.accept {
        Ok(trace)
    } else {
        Err(SimError::OutOfTime)
    }
}

/// The graph query a machine of this crate computes, evaluated directly
/// (ground truth for E11): edges over nodes `0..n`.
pub fn reference_query(tm: &Tm, n: usize, edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    match tm.name {
        name if name.starts_with("instant-accept") || name.starts_with("bounce") => edges.to_vec(),
        name if name.starts_with("erase") => Vec::new(),
        name if name.starts_with("complement") => {
            let mut out = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if !edges.contains(&(u, v)) {
                        out.push((u, v));
                    }
                }
            }
            out
        }
        other => panic!("no reference semantics for machine `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_accept_halts_immediately() {
        let tm = Tm::instant_accept();
        let trace = simulate(&tm, vec![SYM_B1, SYM_B0], 10).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].state, tm.accept);
    }

    #[test]
    fn complement_flips_bits_until_hash() {
        let tm = Tm::complement();
        let tape = vec![SYM_B1, SYM_B0, SYM_BLANK, SYM_B0, SYM_HASH, SYM_BLANK];
        let trace = simulate(&tm, tape, 100).unwrap();
        let last = trace.last().unwrap();
        assert_eq!(last.state, tm.accept);
        assert_eq!(last.tape, vec![SYM_B0, SYM_B1, SYM_BLANK, SYM_B1, SYM_HASH, SYM_BLANK]);
        // Head parked on the hash.
        assert_eq!(last.head, 4);
        // One config per cell visited, plus the accepting step.
        assert_eq!(trace.len(), 6);
    }

    #[test]
    fn bounce_goes_right_then_left() {
        let tm = Tm::bounce();
        let trace = simulate(&tm, vec![SYM_B1, SYM_B0, SYM_BLANK], 10).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[1].head, 1);
        assert_eq!(trace[2].head, 0);
        assert_eq!(trace[2].state, tm.accept);
        // Tape untouched.
        assert_eq!(trace[2].tape, vec![SYM_B1, SYM_B0, SYM_BLANK]);
    }

    #[test]
    fn erase_zeroes_bits() {
        let tm = Tm::erase();
        let tape = vec![SYM_B1, SYM_B0, SYM_BLANK, SYM_B1, SYM_HASH, SYM_BLANK];
        let trace = simulate(&tm, tape, 100).unwrap();
        let last = trace.last().unwrap();
        assert_eq!(last.state, tm.accept);
        assert_eq!(last.tape, vec![SYM_B0, SYM_B0, SYM_BLANK, SYM_B0, SYM_HASH, SYM_BLANK]);
        assert!(reference_query(&tm, 2, &[(0, 1)]).is_empty());
    }

    #[test]
    fn out_of_time_reported() {
        let tm = Tm::complement();
        let tape = vec![SYM_B0, SYM_B0, SYM_HASH];
        assert_eq!(simulate(&tm, tape, 1), Err(SimError::OutOfTime));
    }

    #[test]
    fn boundary_escape_reported() {
        let tm = Tm::complement();
        // No hash: the sweep runs off the right end.
        let tape = vec![SYM_B0, SYM_B0];
        assert_eq!(simulate(&tm, tape, 100), Err(SimError::BoundaryEscape));
    }

    #[test]
    fn reference_queries() {
        let id = Tm::instant_accept();
        assert_eq!(reference_query(&id, 2, &[(0, 1)]), vec![(0, 1)]);
        let comp = Tm::complement();
        let out = reference_query(&comp, 2, &[(0, 1)]);
        assert_eq!(out, vec![(0, 0), (1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "accept state must be halting")]
    fn accept_state_with_transitions_rejected() {
        let mut tm = Tm::instant_accept();
        tm.delta[0] = Some((0, 0, Move::S));
        tm.validate();
    }
}

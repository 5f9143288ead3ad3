//! The correctness gate: every sampled reply is matched to its request,
//! byte-compared against a mirror `HeaxServer` fed the same frames where
//! the result does not depend on batch composition, and decrypt-checked
//! against its plaintext expectation.

use std::collections::HashSet;
use std::sync::Arc;

use heax_ckks::serialize::deserialize_ciphertext;
use heax_ckks::{CkksEncoder, Decryptor};
use heax_hw::board::Board;
use heax_math::exec::Sequential;
use heax_server::wire::client::{self, Reply};
use heax_server::HeaxServer;

use crate::workload::{Burst, Expect, Inputs};

/// Largest slot error a decrypted reply may show. Slot values lie in
/// [-1, 1]; a Set-A product rotated at level 0 keeps about 1e-2 of
/// precision, while a wrong result is off by O(1).
const TOLERANCE: f64 = 0.05;

/// The gate: a mirror engine and the tallies.
pub struct Gate<'a> {
    inputs: &'a Inputs,
    mirror: HeaxServer<'a>,
    opened: u64,
    keyed: HashSet<u64>,
    /// Replies decrypt-checked.
    pub decrypted: u64,
    /// Replies byte-compared against the mirror.
    pub byte_compared: u64,
    /// Error replies among the samples (counted as failures elsewhere).
    pub error_replies: u64,
    /// Every disagreement found.
    pub failures: Vec<String>,
}

impl<'a> Gate<'a> {
    /// A gate with a fresh mirror engine.
    ///
    /// # Panics
    ///
    /// If the mirror engine cannot be built for the paper set.
    pub fn new(inputs: &'a Inputs) -> Self {
        let mirror = HeaxServer::new(&inputs.ctx, Board::stratix10())
            .expect("paper set")
            .with_executor(Arc::new(Sequential));
        Gate {
            inputs,
            mirror,
            opened: 0,
            keyed: HashSet::new(),
            decrypted: 0,
            byte_compared: 0,
            error_replies: 0,
            failures: Vec::new(),
        }
    }

    /// Opens mirror sessions up to `sid` and registers the keys of
    /// session index `index` under it. Session ids are handed out in
    /// order on every engine, so the mirror's ids match the served ones.
    fn prepare_session(&mut self, sid: u64, index: usize) -> bool {
        while self.opened < sid {
            let Some(reply) = self.mirror.handle_frame(&client::open_session()) else {
                return false;
            };
            match client::parse_reply(&reply) {
                Ok((id, _, Reply::SessionOpened)) => self.opened = id,
                _ => return false,
            }
        }
        if sid == 0 || sid > self.opened {
            return false;
        }
        if self.inputs.keyed() && self.keyed.insert(sid) {
            let keys = self.inputs.session_keys(index);
            let frames = [
                keys.relin
                    .as_ref()
                    .map(|b| client::register_relin_key(sid, b)),
                keys.galois
                    .as_ref()
                    .map(|b| client::register_galois_keys(sid, b)),
            ];
            for f in frames.iter().flatten() {
                let ok = self
                    .mirror
                    .handle_frame(f)
                    .and_then(|r| client::parse_reply(&r).ok())
                    .is_some_and(|(_, _, r)| r == Reply::KeyRegistered);
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Checks one burst's replies. `mirror` asks for the byte
    /// comparison (replies served over sockets); in-process replies are
    /// decrypt-checked only.
    pub fn check(
        &mut self,
        what: &str,
        burst: &Burst,
        sid: u64,
        first_request: u64,
        replies: &[Option<Vec<u8>>],
        mirror: bool,
    ) {
        let mirrored = if mirror {
            if !self.prepare_session(sid, burst.session()) {
                self.failures
                    .push(format!("{what}: mirror could not prepare session {sid}"));
                return;
            }
            for frame in self.inputs.burst_frames(burst, sid, first_request) {
                if let Some(r) = self.mirror.handle_frame(&frame) {
                    self.failures.push(format!(
                        "{what}: mirror answered a request at intake: {:?}",
                        client::parse_reply(&r)
                    ));
                    return;
                }
            }
            Some(self.mirror.flush())
        } else {
            None
        };
        for (j, reply) in replies.iter().enumerate() {
            let request = first_request + j as u64;
            let Some(reply) = reply else {
                self.failures
                    .push(format!("{what}: request {request} never answered"));
                continue;
            };
            let (got_sid, got_req, body) = match client::parse_reply(reply) {
                Ok(parsed) => parsed,
                Err(e) => {
                    self.failures
                        .push(format!("{what}: reply {request} unparseable: {e}"));
                    continue;
                }
            };
            if got_sid != sid || got_req != request {
                self.failures.push(format!(
                    "{what}: reply ids ({got_sid}, {got_req}) for request ({sid}, {request})"
                ));
                continue;
            }
            if matches!(body, Reply::Error { .. }) {
                self.error_replies += 1;
                continue;
            }
            if let Some(m) = &mirrored {
                if !burst.batch_dependent(j) {
                    self.byte_compared += 1;
                    if m.get(j) != Some(reply) {
                        self.failures.push(format!(
                            "{what}: reply {request} ({:?} #{j}) differs from the mirror",
                            burst.op(j)
                        ));
                    }
                }
            }
            match (burst.expect(j, &self.inputs.vals), body) {
                (Expect::Parked(want), Reply::Parked(got)) if got == want => {}
                (Expect::Values(want), Reply::Ciphertext(bytes)) => {
                    self.decrypted += 1;
                    if let Err(e) = self.decrypt_matches(&bytes, &want) {
                        self.failures
                            .push(format!("{what}: reply {request} ({:?}): {e}", burst.op(j)));
                    }
                }
                (want, got) => {
                    let got = match got {
                        Reply::Ciphertext(b) => format!("a {}-byte ciphertext", b.len()),
                        other => format!("{other:?}"),
                    };
                    self.failures.push(format!(
                        "{what}: reply {request} is {got}, expected {want:?}"
                    ));
                }
            }
        }
    }

    fn decrypt_matches(&self, bytes: &[u8], want: &[f64]) -> Result<(), String> {
        let ctx = &self.inputs.ctx;
        let ct = deserialize_ciphertext(bytes, ctx).map_err(|e| e.to_string())?;
        let pt = Decryptor::new(ctx, &self.inputs.sk)
            .decrypt(&ct)
            .map_err(|e| e.to_string())?;
        let got = CkksEncoder::new(ctx)
            .decode_real(&pt)
            .map_err(|e| e.to_string())?;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if (g - w).abs() > TOLERANCE {
                return Err(format!("slot {i} decrypts to {g}, expected {w}"));
            }
        }
        Ok(())
    }
}

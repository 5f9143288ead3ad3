//! Budgeted session-key residency: the engine's single owner of every
//! session's evaluation keys.
//!
//! Deserializing an evaluation key is expensive — beyond parsing, the
//! Shoup (`MulRedConstant`) multiplication tables are rebuilt from the
//! residues ([`heax_ckks::serialize::deserialize_ksk`]). A registered
//! key therefore stays deserialized and Shoup-ready, and every later
//! request of the session hits it — for as long as it is resident.
//!
//! ## The session-key LRU
//!
//! Cached, Shoup-ready session keys live in modeled board DRAM, and
//! DRAM is finite ([`heax_core::HeaxSystem::dram_capacity_bytes`]).
//! [`KeyStore`] bounds the resident key bytes. Each session's keys are
//! held exactly **once**, in the [`SessionKeys`] its session record
//! carries (so one lookup finds a session and its keys): either
//! *resident* (deserialized, billed against the budget) or *evicted*
//! (the bytes [`serialize_relin_key`]/[`serialize_galois_keys`]
//! produce at eviction). Only [`KeyStore`] changes them. A key is
//! billed at its registration payload length.
//!
//! * Registering a key makes its session resident, evicting the
//!   least-recently-touched idle sessions when space runs out.
//! * An evicted session is rehydrated — its bytes deserialized, the
//!   Shoup and permutation tables rebuilt bit-identical from the same
//!   residues — when it next queues a request or registers a key (the
//!   key kind it does not replace comes back with it).
//! * Sessions are touched on registration, on rehydration and on every
//!   queued request.
//! * A session with a request in the engine's queue is never evicted.
//! * Victim selection is all-or-nothing: when even evicting every idle
//!   session cannot make room, nothing changes and the caller answers
//!   [`ServerError::KeyResidency`] (a `LoadShed` frame).
//!
//! Evictions and rehydrations are billed in
//! [`ServerStats`](crate::ServerStats) (`key_evictions`,
//! `key_reregistrations`).

use heax_ckks::serialize::{
    deserialize_galois_keys, deserialize_relin_key, serialize_galois_keys, serialize_relin_key,
};
use heax_ckks::{CkksContext, GaloisKeys, RelinKey};

use crate::error::ServerError;
use crate::session::SessionRegistry;

/// A freshly deserialized key being registered.
#[derive(Debug)]
pub(crate) enum NewKey {
    /// A relinearization key (`RegisterRelinKey`).
    Relin(RelinKey),
    /// A Galois key set (`RegisterGaloisKeys`).
    Galois(GaloisKeys),
}

/// A session's key material: resident or evicted as a whole.
#[derive(Debug)]
enum Keys {
    /// Deserialized and Shoup-ready; billed against the budget.
    Resident {
        rlk: Option<RelinKey>,
        gks: Option<GaloisKeys>,
    },
    /// Serialized at eviction; rehydration deserializes them.
    Evicted {
        rlk: Option<Vec<u8>>,
        gks: Option<Vec<u8>>,
    },
}

/// One session's evaluation keys, held once, and what they bill.
#[derive(Debug)]
pub(crate) struct SessionKeys {
    keys: Keys,
    /// Billed bytes of the relin key (its registration payload length;
    /// 0 when none is registered).
    rlk_bytes: u64,
    /// Billed bytes of the Galois keys, likewise.
    gks_bytes: u64,
    /// LRU clock stamp of the last touch.
    last_touch: u64,
}

impl Default for SessionKeys {
    fn default() -> Self {
        SessionKeys {
            keys: Keys::Resident {
                rlk: None,
                gks: None,
            },
            rlk_bytes: 0,
            gks_bytes: 0,
            last_touch: 0,
        }
    }
}

impl SessionKeys {
    fn bytes(&self) -> u64 {
        self.rlk_bytes + self.gks_bytes
    }

    /// Bytes billed against the budget: 0 when evicted or key-less.
    fn resident_bytes(&self) -> u64 {
        match self.keys {
            Keys::Resident { .. } => self.bytes(),
            Keys::Evicted { .. } => 0,
        }
    }

    /// The resident relinearization key.
    ///
    /// # Errors
    ///
    /// [`ServerError::MissingRelinKey`] when none is registered.
    pub(crate) fn relin_key(&self) -> Result<&RelinKey, ServerError> {
        match &self.keys {
            Keys::Resident { rlk: Some(k), .. } => Ok(k),
            _ => Err(ServerError::MissingRelinKey),
        }
    }

    /// The resident Galois keys.
    ///
    /// # Errors
    ///
    /// [`ServerError::MissingGaloisKey`] (with the offending step) when
    /// none are registered.
    pub(crate) fn galois_keys(&self, step: i64) -> Result<&GaloisKeys, ServerError> {
        match &self.keys {
            Keys::Resident { gks: Some(k), .. } => Ok(k),
            _ => Err(ServerError::MissingGaloisKey { step }),
        }
    }
}

/// The residency policy over every session's [`SessionKeys`]: one DRAM
/// byte budget, LRU eviction and rehydration (see the module docs).
#[derive(Debug)]
pub(crate) struct KeyStore {
    budget: u64,
    resident_bytes: u64,
    clock: u64,
    evictions: u64,
    rehydrations: u64,
}

impl KeyStore {
    /// A store with the given byte budget and nothing resident.
    pub(crate) fn new(budget: u64) -> Self {
        KeyStore {
            budget,
            resident_bytes: 0,
            clock: 0,
            evictions: 0,
            rehydrations: 0,
        }
    }

    /// Replaces the byte budget, evicting idle sessions (least recently
    /// touched first) if the resident keys no longer fit.
    pub(crate) fn set_budget(
        &mut self,
        sessions: &mut SessionRegistry,
        budget: u64,
        busy: impl Fn(u64) -> bool,
    ) {
        self.budget = budget;
        // Session 0 is the wire's "no session": nobody is spared.
        if let Ok(victims) = self.victims(sessions, 0, 0, busy) {
            self.evict(sessions, &victims);
        }
    }

    /// Sessions evicted so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evicted sessions made resident again so far.
    pub(crate) fn rehydrations(&self) -> u64 {
        self.rehydrations
    }

    /// Bumps a session's LRU stamp.
    pub(crate) fn touch(&mut self, keys: &mut SessionKeys) {
        self.clock += 1;
        keys.last_touch = self.clock;
    }

    /// Releases a closed session's resident bytes.
    pub(crate) fn release(&mut self, keys: &SessionKeys) {
        self.resident_bytes -= keys.resident_bytes();
    }

    /// Registers (or replaces) one key of `session`, billed at `bytes`,
    /// and makes the session resident: an evicted session's other key
    /// kind is rehydrated, idle sessions are evicted as needed. `busy`
    /// names the sessions with queued requests, which are never evicted.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] for a session that is not open,
    /// and [`ServerError::KeyResidency`] when its keys cannot be made
    /// resident; either way nothing changes.
    pub(crate) fn register(
        &mut self,
        ctx: &CkksContext,
        sessions: &mut SessionRegistry,
        session: u64,
        key: NewKey,
        bytes: u64,
        busy: impl Fn(u64) -> bool,
    ) -> Result<(), ServerError> {
        let held = &sessions.get(session)?.keys;
        let (mut rlk_bytes, mut gks_bytes) = (held.rlk_bytes, held.gks_bytes);
        match key {
            NewKey::Relin(_) => rlk_bytes = bytes,
            NewKey::Galois(_) => gks_bytes = bytes,
        }
        let victims = self.victims(sessions, session, rlk_bytes + gks_bytes, busy)?;
        // Everything fallible happens before anything changes: the kind
        // not being replaced is rehydrated (or taken) first.
        let (mut rlk, mut gks, rehydrated) = match &mut sessions.get_mut(session)?.keys.keys {
            Keys::Resident { rlk, gks } => (rlk.take(), gks.take(), false),
            Keys::Evicted { rlk, gks } => {
                let rlk = match (&key, rlk) {
                    (NewKey::Galois(_), Some(b)) => Some(deserialize_relin_key(b, ctx)?),
                    _ => None,
                };
                let gks = match (&key, gks) {
                    (NewKey::Relin(_), Some(b)) => Some(deserialize_galois_keys(b, ctx)?),
                    _ => None,
                };
                (rlk, gks, true)
            }
        };
        match key {
            NewKey::Relin(k) => rlk = Some(k),
            NewKey::Galois(k) => gks = Some(k),
        }
        self.evict(sessions, &victims);
        let held = &mut sessions.get_mut(session)?.keys;
        self.install(held, Keys::Resident { rlk, gks }, rlk_bytes, gks_bytes);
        if rehydrated {
            self.rehydrations = self.rehydrations.saturating_add(1);
        }
        Ok(())
    }

    /// Makes an evicted session resident again (a no-op for resident,
    /// key-less or unknown sessions), evicting idle sessions as needed.
    ///
    /// # Errors
    ///
    /// [`ServerError::KeyResidency`] when there is no room; nothing
    /// changes.
    pub(crate) fn rehydrate(
        &mut self,
        ctx: &CkksContext,
        sessions: &mut SessionRegistry,
        session: u64,
        busy: impl Fn(u64) -> bool,
    ) -> Result<(), ServerError> {
        let Ok(sess) = sessions.get(session) else {
            return Ok(());
        };
        let Keys::Evicted { rlk, gks } = &sess.keys.keys else {
            return Ok(());
        };
        let victims = self.victims(sessions, session, sess.keys.bytes(), busy)?;
        let keys = Keys::Resident {
            rlk: rlk
                .as_deref()
                .map(|b| deserialize_relin_key(b, ctx))
                .transpose()?,
            gks: gks
                .as_deref()
                .map(|b| deserialize_galois_keys(b, ctx))
                .transpose()?,
        };
        self.evict(sessions, &victims);
        let held = &mut sessions.get_mut(session)?.keys;
        let (rlk_bytes, gks_bytes) = (held.rlk_bytes, held.gks_bytes);
        self.install(held, keys, rlk_bytes, gks_bytes);
        self.rehydrations = self.rehydrations.saturating_add(1);
        Ok(())
    }

    /// Stores a session's now-resident keys, billing them and touching
    /// the session.
    fn install(&mut self, held: &mut SessionKeys, keys: Keys, rlk_bytes: u64, gks_bytes: u64) {
        self.resident_bytes -= held.resident_bytes();
        *held = SessionKeys {
            keys,
            rlk_bytes,
            gks_bytes,
            last_touch: 0,
        };
        self.resident_bytes += held.bytes();
        self.touch(held);
    }

    /// Idle resident sessions other than `session` to evict, least
    /// recently touched first, so that `session` fits resident at
    /// `need` bytes.
    ///
    /// # Errors
    ///
    /// [`ServerError::KeyResidency`] when evicting every idle session
    /// would still not make room.
    fn victims(
        &self,
        sessions: &SessionRegistry,
        session: u64,
        need: u64,
        busy: impl Fn(u64) -> bool,
    ) -> Result<Vec<u64>, ServerError> {
        let own = sessions.get(session).map_or(0, |s| s.keys.resident_bytes());
        let mut held = self.resident_bytes - own;
        let mut victims = Vec::new();
        if held + need > self.budget {
            let mut candidates: Vec<(u64, u64, u64)> = sessions
                .iter()
                .filter(|&(id, s)| id != session && s.keys.resident_bytes() > 0)
                .map(|(id, s)| (s.keys.last_touch, id, s.keys.bytes()))
                .collect();
            candidates.sort_unstable();
            for (_, id, bytes) in candidates {
                if held + need <= self.budget {
                    break;
                }
                if !busy(id) {
                    held -= bytes;
                    victims.push(id);
                }
            }
        }
        if held + need > self.budget {
            return Err(ServerError::KeyResidency {
                need,
                room: self.budget.saturating_sub(held),
            });
        }
        Ok(victims)
    }

    /// Evicts the named sessions: each resident key is serialized and
    /// its deserialized form dropped.
    fn evict(&mut self, sessions: &mut SessionRegistry, victims: &[u64]) {
        for &id in victims {
            let Ok(sess) = sessions.get_mut(id) else {
                continue;
            };
            let held = &mut sess.keys;
            if let Keys::Resident { rlk, gks } = &held.keys {
                self.resident_bytes -= held.bytes();
                held.keys = Keys::Evicted {
                    rlk: rlk.as_ref().map(serialize_relin_key),
                    gks: gks.as_ref().map(serialize_galois_keys),
                };
                self.evictions = self.evictions.saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
impl KeyStore {
    /// Bytes currently billed as resident.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// The byte budget.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }
}

#[cfg(test)]
impl SessionKeys {
    /// `Some(resident)` for a session holding keys, `None` otherwise.
    pub(crate) fn residency(&self) -> Option<bool> {
        (self.bytes() > 0).then_some(matches!(self.keys, Keys::Resident { .. }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use heax_ckks::{CkksParams, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The n = 64 ring the serving tests use.
    pub(crate) fn ctx() -> CkksContext {
        let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64).unwrap();
        CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap()).unwrap()
    }

    /// A relin key and step-1 Galois keys of one seeded client.
    pub(crate) fn client_keys(ctx: &CkksContext, seed: u64) -> (RelinKey, GaloisKeys) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(ctx, &mut rng);
        (
            RelinKey::generate(ctx, &sk, &mut rng),
            GaloisKeys::generate(ctx, &sk, &[1], &mut rng),
        )
    }

    /// A registry with sessions 1, 2 and 3 open.
    fn registry() -> SessionRegistry {
        let mut reg = SessionRegistry::default();
        for _ in 0..3 {
            reg.open();
        }
        reg
    }

    fn residency(reg: &SessionRegistry, session: u64) -> Option<bool> {
        reg.get(session).ok().and_then(|s| s.keys.residency())
    }

    fn idle(_: u64) -> bool {
        false
    }

    fn galois(gks: &GaloisKeys) -> NewKey {
        NewKey::Galois(gks.clone())
    }

    #[test]
    fn lru_budget_is_a_hard_bound() {
        let c = ctx();
        let (_, gks) = client_keys(&c, 1);
        let (mut reg, mut store) = (registry(), KeyStore::new(100));
        store
            .register(&c, &mut reg, 1, galois(&gks), 60, idle)
            .unwrap();
        assert_eq!(store.resident_bytes(), 60);
        // Session 2 fits only by evicting session 1 (LRU victim).
        store
            .register(&c, &mut reg, 2, galois(&gks), 60, idle)
            .unwrap();
        assert_eq!(store.resident_bytes(), 60);
        assert_eq!(residency(&reg, 1), Some(false));
        assert_eq!(residency(&reg, 2), Some(true));
        assert_eq!(store.evictions(), 1);
        // A single session over the whole budget is refused outright,
        // and nothing is evicted trying.
        assert_eq!(
            store.register(&c, &mut reg, 3, galois(&gks), 101, idle),
            Err(ServerError::KeyResidency {
                need: 101,
                room: 100
            })
        );
        assert_eq!(residency(&reg, 3), None, "rejected upload leaves no state");
        assert_eq!(residency(&reg, 2), Some(true));
        assert_eq!(store.resident_bytes(), 60);
        // Keys are only ever registered for open sessions.
        assert!(matches!(
            store.register(&c, &mut reg, 9, galois(&gks), 1, idle),
            Err(ServerError::UnknownSession { session: 9 })
        ));
    }

    #[test]
    fn lru_never_evicts_inflight_sessions() {
        let c = ctx();
        let (_, gks) = client_keys(&c, 2);
        let (mut reg, mut store) = (registry(), KeyStore::new(100));
        store
            .register(&c, &mut reg, 1, galois(&gks), 60, idle)
            .unwrap();
        // Session 2 cannot fit without evicting 1, and 1 has a request
        // queued.
        assert!(matches!(
            store.register(&c, &mut reg, 2, galois(&gks), 60, |s| s == 1),
            Err(ServerError::KeyResidency { need: 60, room: 40 })
        ));
        assert_eq!(residency(&reg, 1), Some(true));
        assert_eq!(residency(&reg, 2), None);
        // Once 1 is idle, 2's upload evicts it.
        store
            .register(&c, &mut reg, 2, galois(&gks), 60, idle)
            .unwrap();
        assert_eq!(residency(&reg, 1), Some(false));
    }

    #[test]
    fn failed_registration_leaves_prior_keys_untouched() {
        let c = ctx();
        let (rlk, gks) = client_keys(&c, 3);
        let (other_rlk, _) = client_keys(&c, 4);
        let (mut reg, mut store) = (registry(), KeyStore::new(100));
        store
            .register(&c, &mut reg, 1, NewKey::Relin(rlk.clone()), 40, idle)
            .unwrap();
        store
            .register(&c, &mut reg, 2, galois(&gks), 50, idle)
            .unwrap();
        // Replacing the key with one that can never fit sheds...
        assert!(store
            .register(&c, &mut reg, 1, NewKey::Relin(other_rlk), 101, idle)
            .is_err());
        // ...and leaves every session exactly as it was: still resident,
        // still billed, still serving the pre-upload key.
        assert_eq!(residency(&reg, 1), Some(true));
        assert_eq!(residency(&reg, 2), Some(true));
        assert_eq!(store.resident_bytes(), 90);
        assert_eq!(reg.get(1).unwrap().keys.relin_key(), Ok(&rlk));
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn rehydration_restores_both_key_kinds_bit_identically() {
        let c = ctx();
        let (rlk, gks) = client_keys(&c, 5);
        let (_, other_gks) = client_keys(&c, 6);
        let (mut reg, mut store) = (registry(), KeyStore::new(100));
        let keys = |reg: &SessionRegistry, s: u64| {
            let held = &reg.get(s).unwrap().keys;
            (
                held.relin_key().ok().cloned(),
                held.galois_keys(1).ok().map(serialize_galois_keys),
            )
        };
        store
            .register(&c, &mut reg, 1, NewKey::Relin(rlk.clone()), 3, idle)
            .unwrap();
        store
            .register(&c, &mut reg, 1, galois(&gks), 2, idle)
            .unwrap();
        store
            .register(&c, &mut reg, 2, galois(&other_gks), 97, idle)
            .unwrap(); // evicts 1
        assert_eq!(residency(&reg, 1), Some(false));
        assert_eq!(keys(&reg, 1), (None, None), "evicted keys are not served");
        store.rehydrate(&c, &mut reg, 1, idle).unwrap(); // evicts 2
        assert_eq!(residency(&reg, 1), Some(true));
        assert_eq!(residency(&reg, 2), Some(false));
        // Same residues in, same Shoup and permutation tables out.
        assert_eq!(
            keys(&reg, 1),
            (Some(rlk.clone()), Some(serialize_galois_keys(&gks)))
        );
        assert_eq!((store.evictions(), store.rehydrations()), (2, 1));
        // Registering one kind for an evicted session brings the other
        // kind back with it.
        store
            .register(&c, &mut reg, 2, NewKey::Relin(rlk.clone()), 1, idle)
            .unwrap(); // evicts 1
        assert_eq!(residency(&reg, 1), Some(false));
        assert_eq!(store.resident_bytes(), 98);
        assert_eq!(
            keys(&reg, 2),
            (Some(rlk), Some(serialize_galois_keys(&other_gks)))
        );
        assert_eq!(store.rehydrations(), 2);
        // Rehydrating a resident, key-less or unknown session is a no-op.
        store.rehydrate(&c, &mut reg, 2, idle).unwrap();
        store.rehydrate(&c, &mut reg, 3, idle).unwrap();
        store.rehydrate(&c, &mut reg, 777, idle).unwrap();
        assert_eq!((store.evictions(), store.rehydrations()), (3, 2));
    }

    #[test]
    fn lru_remove_releases_bytes() {
        let c = ctx();
        let (_, gks) = client_keys(&c, 7);
        let (mut reg, mut store) = (registry(), KeyStore::new(100));
        store
            .register(&c, &mut reg, 1, galois(&gks), 80, idle)
            .unwrap();
        let closed = reg.close(1).unwrap();
        store.release(&closed.keys);
        assert_eq!(store.resident_bytes(), 0);
        store
            .register(&c, &mut reg, 2, galois(&gks), 100, idle)
            .unwrap();
        assert_eq!(store.resident_bytes(), 100);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn lru_eviction_order_is_least_recently_touched() {
        let c = ctx();
        let (_, gks) = client_keys(&c, 8);
        let (mut reg, mut store) = (registry(), KeyStore::new(100));
        store
            .register(&c, &mut reg, 1, galois(&gks), 40, idle)
            .unwrap();
        store
            .register(&c, &mut reg, 2, galois(&gks), 40, idle)
            .unwrap();
        store.touch(&mut reg.get_mut(1).unwrap().keys); // 2 is now the LRU victim
        store
            .register(&c, &mut reg, 3, galois(&gks), 40, idle)
            .unwrap();
        assert_eq!(residency(&reg, 2), Some(false));
        assert_eq!(residency(&reg, 1), Some(true));
        // Lowering the budget evicts down to it, oldest first.
        store.set_budget(&mut reg, 40, idle);
        assert_eq!(residency(&reg, 1), Some(false));
        assert_eq!(residency(&reg, 3), Some(true));
        assert_eq!(store.resident_bytes(), 40);
    }
}

//! Property-based tests for the math substrate.

use heax_math::ntt::{bit_reverse, NttTable};
use heax_math::poly::{Representation, RnsPoly};
use heax_math::primes::generate_ntt_primes;
use heax_math::rns::RnsBasis;
use heax_math::word::{Modulus, MulRedConstant};
use proptest::prelude::*;

fn arb_modulus() -> impl Strategy<Value = Modulus> {
    // A spread of real NTT primes of different widths (n = 64 to stay fast).
    prop::sample::select(vec![
        generate_ntt_primes(20, 1, 64).unwrap()[0],
        generate_ntt_primes(30, 1, 64).unwrap()[0],
        generate_ntt_primes(36, 1, 64).unwrap()[0],
        generate_ntt_primes(50, 1, 64).unwrap()[0],
        generate_ntt_primes(60, 1, 64).unwrap()[0],
    ])
    .prop_map(|p| Modulus::new(p).unwrap())
}

/// `add_mod` as the conditional subtraction it was before it went
/// branch-free; the two must agree bit for bit.
fn add_mod_branchy(p: u64, x: u64, y: u64) -> u64 {
    let s = x + y;
    if s >= p {
        s - p
    } else {
        s
    }
}

/// `sub_mod` as the conditional addition it was before it went
/// branch-free.
fn sub_mod_branchy(p: u64, x: u64, y: u64) -> u64 {
    if x >= y {
        x - y
    } else {
        x + p - y
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn barrett_reduce_u64_matches_rem(p in arb_modulus(), x in any::<u64>()) {
        prop_assert_eq!(p.reduce_u64(x), x % p.value());
    }

    #[test]
    fn barrett_reduce_u128_matches_rem(p in arb_modulus(), x in any::<u128>()) {
        // Restrict to the Algorithm 1 input domain [0, (p-1)^2].
        let bound = (p.value() as u128 - 1) * (p.value() as u128 - 1);
        let x = x % (bound + 1);
        prop_assert_eq!(p.reduce_u128(x) as u128, x % p.value() as u128);
    }

    #[test]
    fn mulred_matches_barrett(p in arb_modulus(), x in any::<u64>(), y in any::<u64>()) {
        let x = x % p.value();
        let y = y % p.value();
        let c = MulRedConstant::new(y, &p);
        prop_assert_eq!(c.mul_red(x, &p), p.mul_mod(x, y));
    }

    #[test]
    fn branch_free_add_sub_match_branchy_forms(
        p in arb_modulus(),
        x in any::<u64>(),
        y in any::<u64>(),
        edge in 0u8..9,
    ) {
        // The widest modulus `Modulus::new` accepts rides along with
        // the NTT primes: it is where the sign-mask trick has the least
        // headroom.
        let widest = Modulus::new((1u64 << 62) - 57).unwrap();
        for m in [p, widest] {
            let q = m.value();
            // Edge cases: each operand is random, 0, or p - 1.
            let pick = |v: u64, e: u8| match e {
                0 => v % q,
                1 => 0,
                _ => q - 1,
            };
            let (a, b) = (pick(x, edge % 3), pick(y, edge / 3));
            prop_assert_eq!(m.add_mod(a, b), add_mod_branchy(q, a, b));
            prop_assert_eq!(m.sub_mod(a, b), sub_mod_branchy(q, a, b));
        }
    }

    #[test]
    fn field_laws(p in arb_modulus(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (a % p.value(), b % p.value(), c % p.value());
        // Commutativity and associativity of both operations.
        prop_assert_eq!(p.add_mod(a, b), p.add_mod(b, a));
        prop_assert_eq!(p.mul_mod(a, b), p.mul_mod(b, a));
        prop_assert_eq!(p.add_mod(p.add_mod(a, b), c), p.add_mod(a, p.add_mod(b, c)));
        prop_assert_eq!(p.mul_mod(p.mul_mod(a, b), c), p.mul_mod(a, p.mul_mod(b, c)));
        // Distributivity.
        prop_assert_eq!(
            p.mul_mod(a, p.add_mod(b, c)),
            p.add_mod(p.mul_mod(a, b), p.mul_mod(a, c))
        );
        // Inverses.
        prop_assert_eq!(p.add_mod(a, p.neg_mod(a)), 0);
        if a != 0 {
            prop_assert_eq!(p.mul_mod(a, p.inv_mod(a).unwrap()), 1);
        }
        // Halving.
        prop_assert_eq!(p.add_mod(p.div2_mod(a), p.div2_mod(a)), a);
    }

    #[test]
    fn pow_mod_is_homomorphic(p in arb_modulus(), x in any::<u64>(), e1 in 0u64..1000, e2 in 0u64..1000) {
        let x = x % p.value();
        prop_assert_eq!(
            p.pow_mod(x, e1 + e2),
            p.mul_mod(p.pow_mod(x, e1), p.pow_mod(x, e2))
        );
    }

    #[test]
    fn bit_reverse_is_involution(x in 0usize..(1 << 12), bits in 1u32..13) {
        let x = x & ((1 << bits) - 1);
        prop_assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ntt_roundtrip(coeffs in prop::collection::vec(any::<u64>(), 64)) {
        let p = Modulus::new(generate_ntt_primes(40, 1, 64).unwrap()[0]).unwrap();
        let t = NttTable::new(64, p).unwrap();
        let mut a: Vec<u64> = coeffs.iter().map(|&c| p.reduce_u64(c)).collect();
        let orig = a.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        prop_assert_eq!(a, orig);
    }

    #[test]
    fn ntt_is_linear(
        a in prop::collection::vec(any::<u64>(), 64),
        b in prop::collection::vec(any::<u64>(), 64),
        s in any::<u64>(),
    ) {
        let p = Modulus::new(generate_ntt_primes(40, 1, 64).unwrap()[0]).unwrap();
        let t = NttTable::new(64, p).unwrap();
        let s = s % p.value();
        let a: Vec<u64> = a.iter().map(|&c| p.reduce_u64(c)).collect();
        let b: Vec<u64> = b.iter().map(|&c| p.reduce_u64(c)).collect();
        // NTT(s·a + b) == s·NTT(a) + NTT(b)
        let mut combo: Vec<u64> = a.iter().zip(&b)
            .map(|(&x, &y)| p.add_mod(p.mul_mod(s, x), y)).collect();
        let (mut ta, mut tb) = (a, b);
        t.forward(&mut combo);
        t.forward(&mut ta);
        t.forward(&mut tb);
        for i in 0..64 {
            prop_assert_eq!(combo[i], p.add_mod(p.mul_mod(s, ta[i]), tb[i]));
        }
    }

    #[test]
    fn convolution_theorem(
        a in prop::collection::vec(any::<u64>(), 32),
        b in prop::collection::vec(any::<u64>(), 32),
    ) {
        let n = 32usize;
        let p = Modulus::new(generate_ntt_primes(40, 1, n).unwrap()[0]).unwrap();
        let t = NttTable::new(n, p).unwrap();
        let a: Vec<u64> = a.iter().map(|&c| p.reduce_u64(c)).collect();
        let b: Vec<u64> = b.iter().map(|&c| p.reduce_u64(c)).collect();
        let mut expect = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let prod = p.mul_mod(a[i], b[j]);
                if i + j < n {
                    expect[i + j] = p.add_mod(expect[i + j], prod);
                } else {
                    expect[i + j - n] = p.sub_mod(expect[i + j - n], prod);
                }
            }
        }
        let (mut ta, mut tb) = (a, b);
        t.forward(&mut ta);
        t.forward(&mut tb);
        let mut prod: Vec<u64> = ta.iter().zip(&tb).map(|(&x, &y)| p.mul_mod(x, y)).collect();
        t.inverse(&mut prod);
        prop_assert_eq!(prod, expect);
    }

    #[test]
    fn crt_compose_decompose_roundtrip(x in any::<u64>()) {
        let primes = generate_ntt_primes(36, 3, 64).unwrap();
        let basis = RnsBasis::new(&primes).unwrap();
        let residues: Vec<u64> = primes.iter().map(|&p| x % p).collect();
        prop_assert_eq!(basis.compose_u128(&residues), x as u128);
    }

    #[test]
    fn crt_centered_roundtrip(x in any::<i64>()) {
        let primes = generate_ntt_primes(36, 3, 64).unwrap();
        let basis = RnsBasis::new(&primes).unwrap();
        let residues: Vec<u64> = primes
            .iter()
            .map(|&p| (x as i128).rem_euclid(p as i128) as u64)
            .collect();
        prop_assert_eq!(basis.compose_centered_i128(&residues), x as i128);
    }

    #[test]
    fn poly_ring_axioms(
        a in prop::collection::vec(any::<u64>(), 32),
        b in prop::collection::vec(any::<u64>(), 32),
    ) {
        let primes = generate_ntt_primes(30, 2, 32).unwrap();
        let mods: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let mk = |v: &[u64]| {
            let mut poly = RnsPoly::zero(32, &mods, Representation::Ntt);
            for (i, m) in mods.iter().enumerate() {
                for (dst, &src) in poly.residue_mut(i).iter_mut().zip(v) {
                    *dst = m.reduce_u64(src);
                }
            }
            poly
        };
        let pa = mk(&a);
        let pb = mk(&b);
        prop_assert_eq!(pa.add(&pb).unwrap(), pb.add(&pa).unwrap());
        prop_assert_eq!(pa.dyadic_mul(&pb).unwrap(), pb.dyadic_mul(&pa).unwrap());
        prop_assert_eq!(pa.sub(&pa).unwrap(), RnsPoly::zero(32, &mods, Representation::Ntt));
        // (a - b) + b == a
        prop_assert_eq!(pa.sub(&pb).unwrap().add(&pb).unwrap(), pa);
    }
}

/// Equivalence of the execution backends: `ThreadPool(k)` must be
/// bit-identical to `Sequential` for every parallel hot path. Lane counts
/// cover the degenerate pool (k = 1), one worker (k = 2), and more lanes
/// than the host has cores (k = 4 on single-core CI shards).
mod backend_equivalence {
    use super::*;
    use heax_math::exec::{self, Sequential, ThreadPool};
    use heax_math::ntt::NttTable;

    fn pool_lanes() -> impl Strategy<Value = usize> {
        prop::sample::select(vec![1usize, 2, 4])
    }

    fn rns_poly(seed: u64, n: usize, mods: &[Modulus], repr: Representation) -> RnsPoly {
        let mut poly = RnsPoly::zero(n, mods, repr);
        for (i, m) in mods.iter().enumerate() {
            for (j, c) in poly.residue_mut(i).iter_mut().enumerate() {
                *c = (seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(((i * n + j) as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)))
                    % m.value();
            }
        }
        poly
    }

    fn moduli_and_tables(n: usize) -> (Vec<Modulus>, Vec<NttTable>) {
        let mut primes = generate_ntt_primes(30, 2, n).unwrap();
        primes.extend(generate_ntt_primes(36, 1, n).unwrap());
        let mods: Vec<Modulus> = primes.iter().map(|&p| Modulus::new(p).unwrap()).collect();
        let tables = mods.iter().map(|&m| NttTable::new(n, m).unwrap()).collect();
        (mods, tables)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ntt_roundtrip_pool_matches_sequential(seed in any::<u64>(), k in pool_lanes()) {
            let n = 128usize;
            let (mods, tables) = moduli_and_tables(n);
            let pool = ThreadPool::new(k);
            let original = rns_poly(seed, n, &mods, Representation::Coefficient);

            let mut seq = original.clone();
            seq.ntt_forward_with(&tables, &Sequential).unwrap();
            let mut par = original.clone();
            par.ntt_forward_with(&tables, &pool).unwrap();
            prop_assert_eq!(&seq, &par, "forward NTT diverged at k={}", k);

            seq.ntt_inverse_with(&tables, &Sequential).unwrap();
            par.ntt_inverse_with(&tables, &pool).unwrap();
            prop_assert_eq!(&seq, &par, "inverse NTT diverged at k={}", k);
            prop_assert_eq!(&seq, &original, "round-trip is not the identity");
        }

        #[test]
        fn dyadic_ops_pool_match_sequential(seed in any::<u64>(), k in pool_lanes()) {
            let n = 64usize;
            let (mods, _) = moduli_and_tables(n);
            let pool = ThreadPool::new(k);
            let a = rns_poly(seed, n, &mods, Representation::Ntt);
            let b = rns_poly(seed ^ 0xdead_beef, n, &mods, Representation::Ntt);

            let mut seq = a.clone();
            seq.dyadic_mul_assign_with(&b, &Sequential).unwrap();
            let mut par = a.clone();
            par.dyadic_mul_assign_with(&b, &pool).unwrap();
            prop_assert_eq!(&seq, &par, "dyadic mul diverged at k={}", k);

            let mut acc_seq = RnsPoly::zero(n, &mods, Representation::Ntt);
            acc_seq.dyadic_mul_acc_with(&a, &b, &Sequential).unwrap();
            acc_seq.dyadic_mul_acc_with(&b, &a, &Sequential).unwrap();
            let mut acc_par = RnsPoly::zero(n, &mods, Representation::Ntt);
            acc_par.dyadic_mul_acc_with(&a, &b, &pool).unwrap();
            acc_par.dyadic_mul_acc_with(&b, &a, &pool).unwrap();
            prop_assert_eq!(&acc_seq, &acc_par, "dyadic mul-acc diverged at k={}", k);

            prop_assert_eq!(
                a.add(&b).unwrap(),
                {
                    let mut s = a.clone();
                    s.add_assign_with(&b, &pool).unwrap();
                    s
                },
                "add diverged at k={}", k
            );
            prop_assert_eq!(
                a.sub(&b).unwrap(),
                a.sub_with(&b, &pool).unwrap(),
                "sub diverged at k={}", k
            );
        }

        #[test]
        fn limb_batch_helpers_pool_match_sequential(seed in any::<u64>(), k in pool_lanes()) {
            // forward_limbs/inverse_limbs (the batch dispatchers under
            // RnsPoly) seen directly, over raw limb data.
            let n = 64usize;
            let (mods, tables) = moduli_and_tables(n);
            let pool = ThreadPool::new(k);
            let poly = rns_poly(seed, n, &mods, Representation::Coefficient);
            let mut seq = poly.data().to_vec();
            let mut par = seq.clone();
            heax_math::ntt::forward_limbs(&Sequential, &tables, &mut seq, n);
            heax_math::ntt::forward_limbs(&pool, &tables, &mut par, n);
            prop_assert_eq!(&seq, &par);
            heax_math::ntt::inverse_limbs(&Sequential, &tables, &mut seq, n);
            heax_math::ntt::inverse_limbs(&pool, &tables, &mut par, n);
            prop_assert_eq!(&seq, &par);
            prop_assert_eq!(&seq, &poly.data().to_vec());
        }
    }

    #[test]
    fn global_executor_honors_env_contract() {
        // The global backend is read from HEAX_THREADS once; in the test
        // process it is unset (or whatever the harness sets), so just
        // assert the contract between env_threads() and the executor.
        assert_eq!(exec::global().threads(), exec::env_threads());
    }
}

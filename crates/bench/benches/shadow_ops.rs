//! `shadow_ops`: microbenchmarks of the shadow-value hot path.
//!
//! The analysis re-executes every client operation on a shadow real, so the
//! per-operation cost of `shadowreal` *is* the analysis overhead (the
//! paper's Table 1). This bench tracks that cost from PR 2 onward:
//!
//! * `BigFloat` add / mul / div and the elementary functions the
//!   library-call workload uses (exp / sin / ln / pow / cbrt / tan / cos /
//!   atan) at 64,
//!   256 (default) and 1024 bits — the inline-limb representation covers
//!   the first two, the heap fallback the last;
//! * `DoubleDouble` add / mul / div (the fast fixed-precision shadow) and
//!   its table-driven elementary functions (exp / sin / log / cos / tan /
//!   atan / pow);
//! * a retained copy of the pre-PR `Vec<u64>`-mantissa kernels
//!   ([`vec_baseline`]), measured in the same run, so the speedup of the
//!   inline representation is reproducible anywhere;
//! * traced-op throughput: operations per second through `fpvm` with the
//!   full `Herbgrind<BigFloat>` tracer attached (shadow arithmetic plus
//!   trace interning plus record upkeep).
//!
//! Output is human-readable rows plus a machine-readable JSON document
//! between `SHADOW_OPS_JSON_BEGIN`/`END` markers; set `SHADOW_OPS_JSON=path`
//! to also write the JSON to a file (the committed `BENCH_shadow_ops.json`
//! baseline is produced that way). `BENCH_SMOKE=1` switches to one short
//! iteration per measurement for CI smoke coverage.

use herbgrind::{AnalysisConfig, Herbgrind};
use herbgrind_bench::measure;
use shadowreal::{BigFloat, DoubleDouble, Real, RealOp};
use std::hint::black_box;
use std::time::Instant;

/// The pre-PR shadow arithmetic, kept as an in-run baseline: `Vec<u64>`
/// mantissas, freshly allocated working vectors in every kernel. The
/// algorithms are copied verbatim from the seed implementation so the
/// comparison isolates the representation change.
mod vec_baseline {
    /// A positive finite value: fraction in [0.5, 1) * 2^exp, little-endian
    /// limbs with the top bit set.
    #[derive(Clone, Debug)]
    pub struct VecFloat {
        pub neg: bool,
        pub exp: i64,
        pub limbs: Vec<u64>,
        pub prec: u32,
    }

    fn limbs_for(prec: u32) -> usize {
        (prec as usize).div_ceil(64)
    }

    fn leading_zeros(a: &[u64]) -> u64 {
        let mut zeros = 0u64;
        for &limb in a.iter().rev() {
            if limb == 0 {
                zeros += 64;
            } else {
                zeros += limb.leading_zeros() as u64;
                break;
            }
        }
        zeros
    }

    fn cmp(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }

    fn add_in_place(a: &mut [u64], b: &[u64]) -> bool {
        let mut carry = false;
        for i in 0..a.len() {
            let (s1, c1) = a[i].overflowing_add(b[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            a[i] = s2;
            carry = c1 || c2;
        }
        carry
    }

    fn sub_in_place(a: &mut [u64], b: &[u64]) {
        let mut borrow = false;
        for i in 0..a.len() {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            a[i] = d2;
            borrow = b1 || b2;
        }
    }

    fn add_bit_in_place(a: &mut [u64], bit: u32) -> bool {
        let limb = (bit / 64) as usize;
        let offset = bit % 64;
        if limb >= a.len() {
            return false;
        }
        let (s, mut carry) = a[limb].overflowing_add(1u64 << offset);
        a[limb] = s;
        let mut i = limb + 1;
        while carry && i < a.len() {
            let (s, c) = a[i].overflowing_add(1);
            a[i] = s;
            carry = c;
            i += 1;
        }
        carry
    }

    fn shr_in_place(a: &mut [u64], bits: u64) -> bool {
        let len = a.len();
        if bits == 0 {
            return false;
        }
        if bits >= (len as u64) * 64 {
            let sticky = a.iter().any(|&l| l != 0);
            a.iter_mut().for_each(|l| *l = 0);
            return sticky;
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = (bits % 64) as u32;
        let mut sticky = a[..limb_shift].iter().any(|&l| l != 0);
        if bit_shift > 0 {
            sticky |= limb_shift < len && (a[limb_shift] << (64 - bit_shift)) != 0;
        }
        for i in 0..len {
            let src = i + limb_shift;
            let low = if src < len { a[src] } else { 0 };
            let high = if src + 1 < len { a[src + 1] } else { 0 };
            a[i] = if bit_shift == 0 {
                low
            } else {
                (low >> bit_shift) | (high << (64 - bit_shift))
            };
        }
        sticky
    }

    fn shl_in_place(a: &mut [u64], bits: u64) {
        let len = a.len();
        if bits == 0 || len == 0 {
            return;
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = (bits % 64) as u32;
        for i in (0..len).rev() {
            let src = i as isize - limb_shift as isize;
            let low = if src >= 0 { a[src as usize] } else { 0 };
            let lower = if src >= 1 { a[(src - 1) as usize] } else { 0 };
            a[i] = if bit_shift == 0 {
                low
            } else {
                (low << bit_shift) | (lower >> (64 - bit_shift))
            };
        }
    }

    fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        out
    }

    fn round(
        neg: bool,
        mut limbs: Vec<u64>,
        mut exp: i64,
        prec: u32,
        mut sticky: bool,
    ) -> VecFloat {
        let nl = limbs_for(prec);
        let extra_low_bits = (nl as u32) * 64 - prec;
        if limbs.len() < nl {
            let mut padded = vec![0u64; nl - limbs.len()];
            padded.extend_from_slice(&limbs);
            limbs = padded;
        }
        let drop_limbs = limbs.len() - nl;
        let p = (drop_limbs as u64) * 64 + extra_low_bits as u64;
        let mut round_bit = false;
        if p > 0 {
            let rb_index = p - 1;
            let rb_limb = (rb_index / 64) as usize;
            let rb_off = (rb_index % 64) as u32;
            round_bit = (limbs[rb_limb] >> rb_off) & 1 == 1;
            'outer: for (i, &l) in limbs.iter().enumerate().take(rb_limb + 1) {
                let masked = if i == rb_limb {
                    if rb_off == 0 {
                        0
                    } else {
                        l & ((1u64 << rb_off) - 1)
                    }
                } else {
                    l
                };
                if masked != 0 {
                    sticky = true;
                    break 'outer;
                }
            }
        }
        let mut kept: Vec<u64> = limbs[drop_limbs..].to_vec();
        if extra_low_bits > 0 {
            kept[0] &= !((1u64 << extra_low_bits) - 1);
        }
        let lsb_set = (kept[0] >> extra_low_bits) & 1 == 1;
        if round_bit && (sticky || lsb_set) {
            let carry = add_bit_in_place(&mut kept, extra_low_bits);
            if carry {
                for l in kept.iter_mut() {
                    *l = 0;
                }
                *kept.last_mut().expect("non-empty") = 1u64 << 63;
                exp += 1;
            }
        }
        VecFloat {
            neg,
            exp,
            limbs: kept,
            prec,
        }
    }

    fn normalize_and_round(
        neg: bool,
        mut limbs: Vec<u64>,
        mut exp: i64,
        prec: u32,
        sticky: bool,
    ) -> VecFloat {
        let lz = leading_zeros(&limbs);
        if lz > 0 {
            shl_in_place(&mut limbs, lz);
            exp -= lz as i64;
        }
        round(neg, limbs, exp, prec, sticky)
    }

    impl VecFloat {
        pub fn from_f64(x: f64, prec: u32) -> VecFloat {
            assert!(x.is_finite() && x != 0.0);
            let bits = x.to_bits();
            let neg = bits >> 63 == 1;
            let biased = ((bits >> 52) & 0x7ff) as i64;
            let frac = bits & 0x000f_ffff_ffff_ffff;
            let (sig, pow): (u64, i64) = if biased == 0 {
                (frac, -1074)
            } else {
                ((1u64 << 52) | frac, biased - 1075)
            };
            let sig_bits = 64 - sig.leading_zeros() as i64;
            let exp = pow + sig_bits;
            let mut limbs = vec![0u64; limbs_for(prec)];
            let top = limbs.len() - 1;
            limbs[top] = sig << (64 - sig_bits);
            VecFloat {
                neg,
                exp,
                limbs,
                prec,
            }
        }

        pub fn add(&self, other: &VecFloat) -> VecFloat {
            let prec = self.prec.max(other.prec);
            let wl = limbs_for(prec) + 1;
            let (hi, lo) = if self.exp >= other.exp {
                (self, other)
            } else {
                (other, self)
            };
            let diff = (hi.exp - lo.exp) as u64;
            let widen = |f: &VecFloat| -> Vec<u64> {
                let mut v = vec![0u64; wl];
                let src = &f.limbs;
                let offset = wl - src.len().min(wl);
                let start = src.len().saturating_sub(wl);
                v[offset..].copy_from_slice(&src[start..]);
                v
            };
            let mut acc = widen(hi);
            let mut small = widen(lo);
            let sticky = shr_in_place(&mut small, diff);
            if hi.neg == lo.neg {
                let carry = add_in_place(&mut acc, &small);
                let mut exp = hi.exp;
                let mut sticky = sticky;
                if carry {
                    sticky |= shr_in_place(&mut acc, 1);
                    let top = acc.len() - 1;
                    acc[top] |= 1u64 << 63;
                    exp += 1;
                }
                normalize_and_round(hi.neg, acc, exp, prec, sticky)
            } else {
                match cmp(&acc, &small) {
                    std::cmp::Ordering::Greater | std::cmp::Ordering::Equal => {
                        sub_in_place(&mut acc, &small);
                        normalize_and_round(hi.neg, acc, hi.exp, prec, sticky)
                    }
                    std::cmp::Ordering::Less => {
                        sub_in_place(&mut small, &acc);
                        normalize_and_round(lo.neg, small, hi.exp, prec, sticky)
                    }
                }
            }
        }

        pub fn mul(&self, other: &VecFloat) -> VecFloat {
            let prec = self.prec.max(other.prec);
            let sign = self.neg != other.neg;
            let product = mul(&self.limbs, &other.limbs);
            let exp = self.exp + other.exp;
            normalize_and_round(sign, product, exp, prec, false)
        }
    }
}

/// One measured benchmark row.
struct Row {
    group: &'static str,
    op: &'static str,
    bits: u32,
    ns_per_op: f64,
}

impl Row {
    fn ops_per_sec(&self) -> f64 {
        1e9 / self.ns_per_op
    }
}

/// Best-of-`reps` ns per operation for each of `count` passes, measured
/// round-robin: every rep times `pass(0)`, then `pass(1)`, and so on, so a
/// slow spell on a shared machine costs every pass alike and the ratios
/// between rows (which CI pins) stay stable.
fn measure_round_robin(
    ops_per_pass: u64,
    reps: usize,
    count: usize,
    mut pass: impl FnMut(usize),
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; count];
    for _ in 0..reps {
        for (k, b) in best.iter_mut().enumerate() {
            let start = Instant::now();
            pass(k);
            *b = b.min(start.elapsed().as_nanos() as f64 / ops_per_pass as f64);
        }
    }
    best
}

/// Dense-mantissa operand pairs at a given precision (division results, so
/// every limb is populated and the rounding paths are exercised).
fn operand_pairs(prec: u32, count: usize) -> Vec<(BigFloat, BigFloat)> {
    (0..count)
        .map(|i| {
            let a = BigFloat::from_f64_prec(1.0 + i as f64 * 0.37, prec)
                .div(&BigFloat::from_f64_prec(3.0, prec));
            let b = BigFloat::from_f64_prec(0.25 + i as f64 * 1.13e-3, prec)
                .div(&BigFloat::from_f64_prec(7.0, prec));
            (a, b)
        })
        .collect()
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let (pair_count, reps) = if smoke { (16, 1) } else { (512, 20) };
    // The kernel rows are compared with each other in CI: twenty
    // round-robin reps keep those ratios steady on a shared machine, where
    // a best of three per row drifted by 10–20%.
    let fn_reps = if smoke { 1 } else { 20 };
    let mut rows: Vec<Row> = Vec::new();

    // --- BigFloat kernels across the precision boundary -------------------
    for bits in [64u32, 256, 1024] {
        let pairs = operand_pairs(bits, pair_count);
        let ops = pairs.len() as u64;
        rows.push(Row {
            group: "bigfloat",
            op: "add",
            bits,
            ns_per_op: measure(ops, reps, || {
                for (a, b) in &pairs {
                    black_box(black_box(a).add(black_box(b)));
                }
            }),
        });
        rows.push(Row {
            group: "bigfloat",
            op: "mul",
            bits,
            ns_per_op: measure(ops, reps, || {
                for (a, b) in &pairs {
                    black_box(black_box(a).mul(black_box(b)));
                }
            }),
        });
        // div and the elementary functions are far slower; fewer repetitions
        // keep the bench short. The rest of the library-call mix runs on
        // a ∈ [1/3, 4.5). pow raises a to 64·b ∈ [2.3, 2.6], so its
        // exponential sees ordinary arguments (|y·ln a| up to ~4) rather
        // than near-zero ones.
        let few: Vec<_> = pairs.iter().take(if smoke { 2 } else { 32 }).collect();
        let sixty_four = BigFloat::from_f64_prec(64.0, 64);
        type Kernel<'a> = &'a dyn Fn(&BigFloat, &BigFloat) -> BigFloat;
        let kernels: [(&'static str, Kernel); 9] = [
            ("div", &|a, b| a.div(b)),
            ("exp", &|a, _| a.exp()),
            ("sin", &|a, _| a.sin()),
            ("ln", &|a, _| a.ln()),
            ("pow", &|a, b| a.pow(&b.mul(&sixty_four))),
            ("cbrt", &|a, _| a.cbrt()),
            ("tan", &|a, _| a.tan()),
            ("cos", &|a, _| a.cos()),
            ("atan", &|a, _| a.atan()),
        ];
        let best = measure_round_robin(few.len() as u64, fn_reps, kernels.len(), |k| {
            for (a, b) in &few {
                black_box(kernels[k].1(black_box(a), black_box(b)));
            }
        });
        for ((op, _), ns_per_op) in kernels.iter().zip(best) {
            rows.push(Row {
                group: "bigfloat",
                op,
                bits,
                ns_per_op,
            });
        }
    }

    // --- DoubleDouble fast shadow ----------------------------------------
    let dd_pairs: Vec<(DoubleDouble, DoubleDouble)> = (0..pair_count)
        .map(|i| {
            (
                DoubleDouble::from_f64(1.0 + i as f64 * 0.37),
                DoubleDouble::from_f64(0.25 + i as f64 * 1.13e-3),
            )
        })
        .collect();
    // pow raises a to 64·b, as the BigFloat row does, so its exponential
    // sees ordinary arguments.
    let dd_pow_pairs: Vec<(DoubleDouble, DoubleDouble)> = dd_pairs
        .iter()
        .map(|(a, b)| (*a, b.mul(&DoubleDouble::from_f64(64.0))))
        .collect();
    for (op, realop) in [
        ("add", RealOp::Add),
        ("mul", RealOp::Mul),
        ("div", RealOp::Div),
        ("exp", RealOp::Exp),
        ("sin", RealOp::Sin),
        ("log", RealOp::Log),
        ("cos", RealOp::Cos),
        ("tan", RealOp::Tan),
        ("atan", RealOp::Atan),
        ("pow", RealOp::Pow),
    ] {
        let unary = realop.arity() == 1;
        let pairs = if realop == RealOp::Pow {
            &dd_pow_pairs
        } else {
            &dd_pairs
        };
        rows.push(Row {
            group: "doubledouble",
            op,
            bits: 106,
            ns_per_op: measure(pairs.len() as u64, reps, || {
                for (a, b) in pairs {
                    if unary {
                        black_box(DoubleDouble::apply(realop, &[black_box(*a)]));
                    } else {
                        black_box(DoubleDouble::apply(realop, &[black_box(*a), black_box(*b)]));
                    }
                }
            }),
        });
    }

    // --- Retained pre-PR Vec<u64> baseline, same run ----------------------
    let vec_pairs: Vec<(vec_baseline::VecFloat, vec_baseline::VecFloat)> =
        operand_pairs(256, pair_count)
            .iter()
            .map(|(a, b)| {
                // Seed the baseline from the same operand values (the baseline
                // keeps 53-bit inputs; both sides then run dense mantissas
                // through one division-free mul/add workload).
                (
                    vec_baseline::VecFloat::from_f64(a.to_f64(), 256),
                    vec_baseline::VecFloat::from_f64(b.to_f64(), 256),
                )
            })
            .collect();
    // Densify the baseline mantissas the same way (one multiplication round
    // fills the low limbs via rounding of the 512-bit product).
    let vec_pairs: Vec<_> = vec_pairs
        .iter()
        .map(|(a, b)| (a.mul(b), b.mul(a).add(b)))
        .collect();
    let baseline_add = measure(vec_pairs.len() as u64, reps, || {
        for (a, b) in &vec_pairs {
            black_box(black_box(a).add(black_box(b)));
        }
    });
    let baseline_mul = measure(vec_pairs.len() as u64, reps, || {
        for (a, b) in &vec_pairs {
            black_box(black_box(a).mul(black_box(b)));
        }
    });
    rows.push(Row {
        group: "vec_baseline",
        op: "add",
        bits: 256,
        ns_per_op: baseline_add,
    });
    rows.push(Row {
        group: "vec_baseline",
        op: "mul",
        bits: 256,
        ns_per_op: baseline_mul,
    });

    // --- Traced-op throughput through fpvm --------------------------------
    let core = fpcore::parse_core("(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))")
        .expect("bench kernel parses");
    let program = fpvm::compile_core(&core, Default::default()).expect("bench kernel compiles");
    let inputs: Vec<Vec<f64>> = (1..=if smoke { 4u32 } else { 64 })
        .map(|i| vec![0.25 / i as f64, 1e-9 / i as f64])
        .collect();
    let config = AnalysisConfig::default().with_threads(1);
    let machine = fpvm::Machine::new(&program).with_step_limit(config.step_limit);
    let mut traced_ops = 0u64;
    let traced_ns = {
        let mut total_ns = f64::INFINITY;
        for _ in 0..fn_reps {
            let mut analysis = Herbgrind::<BigFloat>::new(config.clone());
            let start = Instant::now();
            for input in &inputs {
                machine
                    .run_traced(input, &mut analysis)
                    .expect("bench kernel runs");
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            traced_ops = analysis.op_records().values().map(|r| r.total).sum();
            let ns = elapsed / traced_ops as f64;
            if ns < total_ns {
                total_ns = ns;
            }
        }
        total_ns
    };
    rows.push(Row {
        group: "traced",
        op: "herbgrind_op",
        bits: 256,
        ns_per_op: traced_ns,
    });

    // --- Report -----------------------------------------------------------
    let add_256 = rows
        .iter()
        .find(|r| r.group == "bigfloat" && r.op == "add" && r.bits == 256)
        .expect("row present")
        .ns_per_op;
    let mul_256 = rows
        .iter()
        .find(|r| r.group == "bigfloat" && r.op == "mul" && r.bits == 256)
        .expect("row present")
        .ns_per_op;
    let speedup_add = baseline_add / add_256;
    let speedup_mul = baseline_mul / mul_256;

    for row in &rows {
        println!(
            "bench shadow_ops/{}/{}/{}: {:.1} ns/op  ({:.2e} ops/s)",
            row.group,
            row.op,
            row.bits,
            row.ns_per_op,
            row.ops_per_sec()
        );
    }
    println!(
        "bench shadow_ops: inline vs vec baseline at 256 bits: add {speedup_add:.2}x, mul {speedup_mul:.2}x ({traced_ops} traced ops)"
    );

    let mut json = String::from("{\n  \"bench\": \"shadow_ops\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"op\": \"{}\", \"bits\": {}, \"ns_per_op\": {:.2}, \"ops_per_sec\": {:.0}}}{}\n",
            row.group,
            row.op,
            row.bits,
            row.ns_per_op,
            row.ops_per_sec(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_vs_vec_baseline\": {{\"add_256\": {speedup_add:.2}, \"mul_256\": {speedup_mul:.2}}}\n}}\n"
    ));
    println!("SHADOW_OPS_JSON_BEGIN");
    print!("{json}");
    println!("SHADOW_OPS_JSON_END");
    if let Some(path) = std::env::var_os("SHADOW_OPS_JSON") {
        std::fs::write(&path, json).expect("write SHADOW_OPS_JSON file");
    }
}

//! Zero-allocation guarantee for steady-state shadow arithmetic.
//!
//! The shadow hot path re-executes every client operation in high precision;
//! PR 2 made the default-precision (256-bit) representation fully inline —
//! mantissas live in the value, kernels work on stack scratch windows. This
//! test pins that property with a counting global allocator: steady-state
//! 256-bit add/sub/mul/round must perform **zero** heap allocations, while
//! the heap fallback above 256 bits must still engage (which also proves the
//! counter is live).
//!
//! The counter is per thread, and every measured operation runs on the test
//! thread: the test harness's main thread also allocates while the test runs
//! (when it first blocks waiting for the result), at a moment the scheduler
//! decides, so a process-wide count failed the test on a loaded machine.

use shadowreal::{BigFloat, DoubleDouble, Real, RealOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts every allocation (alloc, alloc_zeroed, realloc) made through the
/// global allocator, per thread.
struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. A `const`-initialized `Cell` needs no
    /// lazy set-up or destructor, so the allocator can update it without
    /// allocating itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `work` and returns how many heap allocations it performed.
fn allocations_during<R>(work: impl FnOnce() -> R) -> u64 {
    let before = allocations();
    black_box(work());
    allocations() - before
}

#[test]
fn steady_state_shadow_arithmetic_does_not_allocate() {
    // Operands at the default 256-bit precision, plus dense-mantissa values
    // (division results) so rounding paths are exercised, not just exact
    // short mantissas.
    let a = BigFloat::from_f64(std::f64::consts::PI);
    let b = BigFloat::from_f64(std::f64::consts::E * 1.5e-3);
    let dense = BigFloat::one().div(&BigFloat::from_i64(3));
    assert_eq!(a.precision(), 256, "default precision changed; update test");

    // Warm up every measured path once (lazily initialized statics, lookup
    // tables) before snapshotting the counter.
    black_box(
        a.add(&b)
            .mul(&dense)
            .sub(&a)
            .with_precision(256)
            .round_nearest(),
    );

    // Steady-state 256-bit add/sub/mul/round: zero heap allocations.
    let ops = allocations_during(|| {
        let mut acc = a.clone();
        for _ in 0..256 {
            acc = acc.add(&b);
            acc = acc.mul(&dense);
            acc = acc.sub(&b);
            acc = acc.with_precision(256);
            acc = acc.round_nearest();
        }
        acc
    });
    assert_eq!(ops, 0, "steady-state 256-bit shadow arithmetic allocated");

    // The Newton/reciprocal kernels run on stack scratch windows: 256-bit
    // division, square root, and the exp series (including its cached
    // ln 2) must stay allocation-free after the constant caches are warm.
    black_box(a.div(&dense).abs().sqrt().exp());
    let kernels = allocations_during(|| {
        let mut acc = a.clone();
        for _ in 0..64 {
            acc = acc.div(&dense);
            acc = acc.abs().sqrt();
            acc = acc.add(&b);
        }
        acc
    });
    assert_eq!(kernels, 0, "steady-state 256-bit div/sqrt allocated");
    let series = allocations_during(|| {
        let mut acc = b.clone();
        for _ in 0..8 {
            acc = acc.exp().with_precision(256).sub(&BigFloat::one());
        }
        acc
    });
    assert_eq!(series, 0, "steady-state 256-bit exp allocated");

    // The other kernels the library-call workload leans on: a 256-bit
    // shadow works at 320 bits, which fits the six inline limbs, and its
    // series run on the accumulator's stack arrays, so once the constant
    // caches and the logarithm's and arctangent's tables are warm, none of
    // these allocate either.
    let libm_args: Vec<BigFloat> = (1..=8)
        .map(|k| a.mul(&BigFloat::from_f64(k as f64 * 0.37)))
        .collect();
    type Kernel = fn(&BigFloat, &BigFloat) -> BigFloat;
    let kernels: [(&str, Kernel); 11] = [
        ("ln", |x, _| x.ln()),
        ("pow", |x, y| x.pow(y)),
        ("cbrt", |x, _| x.neg().cbrt()),
        ("tan", |x, _| x.tan()),
        ("sin", |x, _| x.sin()),
        ("cos", |x, _| x.cos()),
        ("atan", |x, _| x.atan()),
        ("atan2", |x, _| x.atan2(&BigFloat::from_f64(3.0))),
        ("asin", |x, _| x.div(&BigFloat::from_f64(10.0)).asin()),
        ("acos", |x, _| x.div(&BigFloat::from_f64(10.0)).acos()),
        ("expm1", |x, y| x.mul(y).expm1()),
    ];
    for (name, kernel) in kernels {
        for x in &libm_args {
            black_box(kernel(x, &b));
        }
        let count = allocations_during(|| {
            let mut acc = BigFloat::zero();
            for x in &libm_args {
                acc = acc.add(&kernel(x, &b));
            }
            acc
        });
        assert_eq!(count, 0, "steady-state 256-bit {name} allocated");
    }

    // Comparisons, truncation, sign operations and f64 conversion ride the
    // same guarantee.
    let auxiliary = allocations_during(|| {
        let mut observed = 0u32;
        for _ in 0..64 {
            observed += (a.partial_cmp(&b) == Some(std::cmp::Ordering::Greater)) as u32;
            observed += a.trunc().is_integer() as u32;
            observed += (a.neg().abs().to_f64() == a.to_f64()) as u32;
        }
        observed
    });
    assert_eq!(auxiliary, 0, "auxiliary 256-bit operations allocated");

    // The double-double fast shadow is a pair of f64s and must not allocate
    // either.
    let dd = allocations_during(|| {
        let x = DoubleDouble::from_f64(1.0e16);
        let y = DoubleDouble::from_f64(1.0);
        let mut acc = x;
        for _ in 0..128 {
            acc = DoubleDouble::apply(RealOp::Add, &[acc, y]);
            acc = DoubleDouble::apply(RealOp::Mul, &[acc, y]);
        }
        acc
    });
    assert_eq!(dd, 0, "DoubleDouble arithmetic allocated");

    // Sanity: the counter is live, and precisions beyond four limbs take the
    // heap fallback as designed.
    let wide = allocations_during(|| {
        let w = BigFloat::from_f64_prec(std::f64::consts::PI, 1024);
        w.add(&BigFloat::from_f64_prec(1.0, 1024))
    });
    assert!(
        wide > 0,
        "1024-bit arithmetic should engage the heap fallback"
    );
}

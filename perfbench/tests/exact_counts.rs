//! The exact counts the traced run reports must repeat exactly for the same
//! seed, and the workloads must partition the suite by property.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the workloads here are cut to a few inputs per program.

use perfbench::layers::exact_counts;
use perfbench::spans::Spans;
use perfbench::workload::{setup, Kind, Workload, LIBM_SHARE};

const INPUTS: usize = 12;

fn set_up(kind: Kind, seed: u64) -> Workload {
    setup(kind, seed, INPUTS, &mut Spans::off()).expect("the suite sets up")
}

#[test]
fn exact_counts_repeat_for_the_same_seed() {
    for kind in Kind::ALL {
        let first = exact_counts(&set_up(kind, 7), &mut Spans::off()).expect("counts");
        let second = exact_counts(&set_up(kind, 7), &mut Spans::off()).expect("counts");
        assert_eq!(first, second, "{}", kind.name());
        assert!(first.ops > 0, "{}", kind.name());
        let inputs = set_up(kind, 7).inputs() as f64;
        assert_eq!(
            first.certified_alone as f64,
            (first.certified_share * inputs).round(),
            "{}: verdicts swept alone disagree with the sweep",
            kind.name()
        );
    }
}

#[test]
fn straight_and_loops_partition_the_suite() {
    let straight = set_up(Kind::Straight, 3);
    let loops = set_up(Kind::Loops, 3);
    let suite = fpbench::suite().len();
    assert_eq!(straight.suite_programs, suite);
    assert_eq!(straight.members.len() + loops.members.len(), suite);
    assert_eq!(loops.members.len(), loops.with_while);
    assert!(straight.members.iter().all(|m| m.inputs.len() == INPUTS));
}

#[test]
fn libm_members_are_the_library_heavy_straight_programs() {
    let libm = set_up(Kind::Libm, 3);
    let straight = set_up(Kind::Straight, 3);
    assert!(!libm.members.is_empty());
    for member in &libm.members {
        assert!(member.libm_ops as f64 >= LIBM_SHARE * member.ops as f64);
        assert!(straight.members.iter().any(|m| m.index == member.index));
    }
}

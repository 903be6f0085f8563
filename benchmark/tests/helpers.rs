//! The arithmetic and the generator, on hand-made inputs.

use benchmark::compare::{judge, Verdict};
use benchmark::gen::{Stream, DISCOVERY, LIGHT};
use benchmark::spec::EndToEnd;
use benchmark::stats::{percentile, percentile_of, self_times, Span};

#[test]
fn percentile_is_nearest_rank() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 0.5), 5.0);
    assert_eq!(percentile(&ten, 0.9), 9.0);
    assert_eq!(percentile(&ten, 0.91), 10.0);
    assert_eq!(percentile(&ten, 0.0), 1.0);
    assert_eq!(percentile(&ten, 1.0), 10.0);
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(percentile_of(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // 0: root 0..100; 1: child 10..40; 2: grandchild 20..30; 3: child 50..70.
    let spans = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(20, 30, Some(1)),
        span(50, 70, Some(0)),
    ];
    assert_eq!(self_times(&spans), [50, 20, 10, 20]);
}

#[test]
fn self_time_counts_overlapping_children_once_and_clips_strays() {
    // Children 10..50 and 30..80 overlap on 30..50; 90..130 leaves its
    // parent at 100.
    let spans = [
        span(0, 100, None),
        span(10, 50, Some(0)),
        span(30, 80, Some(0)),
        span(90, 130, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    // A child that covers its parent leaves it no self time.
    let covered = [span(10, 20, None), span(0, 30, Some(0))];
    assert_eq!(self_times(&covered)[0], 0);
}

#[test]
fn the_seed_decides_the_request_lines() {
    let lines = |seed| -> Vec<String> {
        let mut all = Stream::new(&LIGHT, seed).next(20);
        all.extend(Stream::new(&DISCOVERY, seed).next(20));
        all.into_iter().map(|r| r.line).collect()
    };
    assert_eq!(lines(20160516), lines(20160516));
    assert_ne!(lines(20160516), lines(20160517));
}

#[test]
fn every_block_holds_the_mix_and_the_queries_rotate() {
    let reqs = Stream::new(&DISCOVERY, 1).next(70);
    for block in reqs.chunks(5) {
        let count = |m: &str| block.iter().filter(|r| r.method == m).count();
        assert_eq!(count("run_spillbound"), 3);
        assert_eq!(count("run_planbouquet"), 1);
        assert_eq!(count("run_alignedbound"), 1);
    }
    // 70 AlignedBound requests walk the seven queries ten times.
    let ab: Vec<&str> = reqs
        .iter()
        .filter(|r| r.method == "run_alignedbound")
        .map(|r| r.query)
        .collect();
    for (i, q) in ab.iter().enumerate() {
        assert_eq!(*q, ab[i % 7]);
    }
    assert_eq!(
        ab[..7]
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        7
    );
    assert!(reqs
        .iter()
        .all(|r| r.qa.iter().all(|s| (1e-6..=1.0).contains(s))));
    // The ids number the requests of the stream.
    assert!(reqs[3].line.contains("\"id\":3,"));
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let metric = |name, lower_is_better| EndToEnd {
        name,
        unit: "",
        lower_is_better,
        bound: 0.10,
    };
    let (ops, p50) = (&metric("ops_per_s", false), &metric("op_ms_p50", true));
    // Higher is better: 12 % fewer ops is a regression, 5 % is not.
    assert_eq!(
        judge(ops, &[100.0, 101.0], &[88.0, 89.0]),
        Verdict::Regressed
    );
    assert_eq!(
        judge(ops, &[100.0, 101.0], &[95.0, 96.0]),
        Verdict::Unchanged
    );
    assert_eq!(
        judge(ops, &[100.0, 101.0], &[120.0, 121.0]),
        Verdict::Improved
    );
    // Lower is better.
    assert_eq!(judge(p50, &[10.0, 10.1], &[11.5, 11.6]), Verdict::Regressed);
    assert_eq!(judge(p50, &[10.0, 10.1], &[8.0, 8.1]), Verdict::Improved);
    // Medians agree but the parent's own runs are 30 % apart: the runs
    // cannot tell, unless every run of the change beats every parent run.
    assert_eq!(
        judge(p50, &[10.0, 13.0], &[11.0, 11.2]),
        Verdict::Unresolved
    );
    assert_eq!(judge(p50, &[10.0, 13.0], &[8.0, 8.5]), Verdict::Improved);
}

//! The paper's evaluation in tier-1: every row of `rqp::figures::FIGURES`
//! runs at reduced grids and its claim must hold; every claim must also
//! reject a table doctored to break it, so none can pass vacuously.

use rqp::figures::{find, Cell, Lab, Table, FIGURES};
use std::sync::OnceLock;

/// Points per dimension: 12 at 2D, 6 at 3D, 4 at 4D, 3 above.
fn reduced(d: usize) -> usize {
    match d {
        0..=2 => 12,
        3 => 6,
        4 => 4,
        _ => 3,
    }
}

/// Every row's table, computed once for all tests of this binary.
fn tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let lab = Lab::new(reduced);
        FIGURES.iter().map(|f| (f.run)(&lab)).collect()
    })
}

fn table(id: &str) -> Table {
    let i = FIGURES
        .iter()
        .position(|f| f.id == id)
        .expect("a figure id");
    tables()[i].clone()
}

/// The number in row `i` of `t` under `header`.
fn num(t: &Table, i: usize, header: &str) -> f64 {
    t.rows().nth(i).expect("a row").num(header)
}

#[test]
fn every_claim_holds_at_reduced_grids() {
    let mut failed = Vec::new();
    for (f, t) in FIGURES.iter().zip(tables()) {
        if let Err(e) = (f.claim)(t) {
            failed.push(format!("{}: {e}\n{}", f.id, t.markdown()));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    // The PAPER.md §1 claims cover the whole suite.
    for id in ["FIG8", "FIG10", "FIG11", "FIG13", "FIG14", "TAB4"] {
        assert_eq!(table(id).len(), 11, "{id}");
    }
}

/// `id`'s claim holds on its table and fails once `doctor` has edited it.
fn rejects(id: &str, doctor: impl FnOnce(&mut Table)) {
    let claim = find(id).expect("a figure id").claim;
    let mut t = table(id);
    assert!(claim(&t).is_ok(), "{id} fails before doctoring");
    doctor(&mut t);
    assert!(
        claim(&t).is_err(),
        "{id} accepts a doctored table:\n{}",
        t.markdown()
    );
}

/// Row `i` of a suite table gets guarantees `ρ_red = 1`, so PB's is 4.8,
/// below every SB guarantee.
fn tight_pb(t: &mut Table, i: usize) {
    t.set(i, "ρ_red", Cell::Num(1.0, 0));
    t.set(i, "PB 4(1+λ)ρ_red", Cell::Num(4.8, 1));
}

#[test]
fn claims_reject_doctored_tables() {
    rejects("FIG3", |t| t.set(0, "OCS monotone", "no".into()));
    rejects("FIG3", |t| t.set(0, "POSP plans", 1.into()));
    rejects("FIG3", |t| {
        let m = num(t, 0, "contours");
        t.set(0, "contours", Cell::Num(m + 2.0, 0));
    });

    let last = table("FIG7").len() - 1;
    rejects("FIG7", |t| t.set(last, "outcome", "timeout".into()));
    rejects("FIG7", |t| t.set(last, "q_run e0", Cell::Sci(0.0)));
    rejects("FIG7", |t| {
        t.set(last, "cost / optimal", Cell::Num(10.5, 2))
    });

    rejects("FIG8", |t| t.set(0, "SB D²+3D", Cell::Num(19.0, 0)));
    rejects("FIG8", |t| {
        let pb = num(t, 0, "PB 4(1+λ)ρ_red");
        t.set(0, "PB 4(1+λ)ρ_red", Cell::Num(pb + 1.0, 1));
    });
    rejects("FIG8", |t| (0..t.len()).for_each(|i| tight_pb(t, i)));
    rejects("FIG9", |t| tight_pb(t, t.len() - 1));

    rejects("FIG10", |t| t.set(0, "SB MSOe", Cell::Num(18.5, 1)));
    rejects("FIG10", |t| {
        let pb = num(t, 0, "PB MSOg");
        t.set(0, "PB MSOe", Cell::Num(pb + 0.5, 1));
    });
    rejects("FIG10", |t| {
        let pb = num(t, 0, "PB MSOe");
        t.set(0, "SB MSOe", Cell::Num(pb + 0.1, 1));
    });
    rejects("FIG11", |t| {
        let pb = num(t, 0, "PB ASO");
        t.set(0, "SB ASO", Cell::Num(pb, 2));
    });

    rejects("FIG12", |t| {
        let (sb0, sb1) = (num(t, 0, "SB %"), num(t, 1, "SB %"));
        let pb0 = num(t, 0, "PB %");
        t.set(0, "SB %", Cell::Num(pb0, 1));
        t.set(1, "SB %", Cell::Num(sb0 + sb1 - pb0, 1));
    });
    rejects("FIG12", |t| t.set(1, "PB %", Cell::Num(0.0, 1)));

    rejects("FIG13", |t| {
        let sb = num(t, 0, "SB MSOe");
        t.set(0, "AB MSOe", Cell::Num(sb + 0.5, 1));
    });
    rejects("FIG13", |t| {
        let bound = 1.6 * num(t, 1, "2D+2");
        t.set(1, "SB MSOe", Cell::Num(bound + 1.0, 1));
        t.set(1, "AB MSOe", Cell::Num(bound + 0.5, 1));
    });
    rejects("FIG13", |t| {
        let sb = num(t, 0, "SB MSOe");
        t.set(0, "native MSOe", Cell::Num(sb, 1));
    });
    rejects("FIG13", |t| {
        let (sb, bound) = (num(t, 1, "SB MSOe"), num(t, 1, "D²+3D"));
        t.set(1, "native MSOe", Cell::Num(bound.max(sb) + 1.0, 1));
    });

    rejects("FIG14", |t| {
        let native = num(t, 0, "nat E[pen]");
        t.set(0, "PA E[pen]", Cell::Num(native * 1.01, 3));
    });
    rejects("FIG14", |t| {
        let expected = num(t, 0, "PA E[pen]");
        t.set(0, "PA CVaR", Cell::Num(expected * 0.9, 2));
    });

    rejects("TAB2", |t| t.set(0, "ε=1.5", Cell::Num(0.0, 0)));
    rejects("TAB2", |t| t.set(0, "max ε", Cell::Num(1.5, 2)));
    rejects("TAB2", |t| {
        for i in 0..t.len() {
            for h in ["original", "ε=1.2", "ε=1.5", "ε=2.0"] {
                t.set(i, h, Cell::Num(100.0, 0));
            }
            t.set(i, "max ε", Cell::Num(1.0, 2));
        }
    });

    let last = table("TAB3").len() - 1;
    rejects("TAB3", |t| t.set(last, "outcome", "timeout".into()));
    rejects("TAB3", |t| {
        t.set(last, "cost / optimal", Cell::Num(28.5, 2))
    });
    rejects("TAB3", |t| {
        let native = num(t, 1, "cost / optimal");
        t.set(last, "cost / optimal", Cell::Num(native, 2));
    });

    rejects("TAB4", |t| t.set(0, "max penalty", Cell::Num(0.5, 2)));
    rejects("TAB4", |t| t.set(0, "max penalty", Cell::Num(12.0, 2)));

    rejects("JOB", |t| t.set(2, "MSOe", Cell::Num(10.5, 1)));
    rejects("JOB", |t| {
        let sb = num(t, 2, "MSOe");
        t.set(0, "MSOe", Cell::Num(2.0 * sb, 1));
    });

    rejects("THM46", |t| t.set(0, "SB MSOe", Cell::Num(1.5, 2)));
    rejects("THM46", |t| t.set(1, "SB MSOe", Cell::Num(18.5, 2)));

    rejects("POP", |t| {
        let sb = num(t, 0, "SB MSOe");
        t.set(0, "POP MSOe", Cell::Num(sb, 1));
    });
    rejects("POP", |t| t.set(0, "SB MSOe", Cell::Num(10.5, 1)));

    rejects("ABL1", |t| {
        let bound = num(t, 0, "SB guarantee");
        t.set(0, "SB MSOe", Cell::Num(bound + 0.5, 2));
    });
    rejects("ABL1", |t| t.set(1, "SB guarantee", Cell::Num(10.5, 2)));

    rejects("ABL2", |t| {
        let (rho, lambda) = (num(t, 0, "ρ_red") + 1.0, num(t, 1, "λ"));
        t.set(1, "ρ_red", Cell::Num(rho, 0));
        t.set(
            1,
            "PB 4(1+λ)ρ_red",
            Cell::Num(4.0 * (1.0 + lambda) * rho, 1),
        );
    });
    rejects("ABL2", |t| {
        let bound = num(t, 0, "PB 4(1+λ)ρ_red");
        t.set(0, "PB MSOe", Cell::Num(bound + 0.5, 1));
    });

    rejects("ABL3", |t| t.set(0, "SB MSOe", Cell::Num(18.5, 1)));
    rejects("ABL3", |t| {
        let bound = 4.8 * num(t, 0, "ρ_red");
        t.set(0, "PB MSOe", Cell::Num(bound + 0.5, 1));
    });
}

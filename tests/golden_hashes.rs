//! Golden hashes: the physics bits and the model's census, pinned.
//!
//! Two code paths agreeing with each other cannot catch a change that
//! moves both; these pins can. A host optimization — kernel fusion, a
//! cached coefficient, a carried flux — must reproduce them exactly:
//!
//! * the `quickstart` preset (16×12×16, 5 steps), all six code versions at
//!   1 and 2 ranks: every rank's state hash, kernel-launch count and model
//!   wall-clock bits (the Tables I/II and Figs. 2–4 inputs);
//! * `BENCH_7.json`'s deck (quickstart at 20×16×24, 10 steps, no
//!   diagnostics), all six versions at 1 and 2 ranks, whose folded rank
//!   hashes are that file's `state_hash`.

use mas::config::GridCfg;
use mas::prelude::*;
use mas_bench::baseline::fold_hashes;

/// Per-rank state hashes of the 5-step quickstart run (version
/// independent: versions change the cost model, never the numerics).
const QUICKSTART_HASHES: [&[u64]; 2] = [
    &[0x7269324283b3f515],
    &[0x80f604d01e535181, 0xb5d0d9b2460001bc],
];

/// One rank's kernel launches and model wall clock (`f64::to_bits`).
type RankModel = (u64, u64);

/// Per (version, ranks): each rank's model census after the 5-step
/// quickstart run.
const QUICKSTART_MODEL: [(CodeVersion, usize, &[RankModel]); 12] = [
    (CodeVersion::A, 1, &[(998, 0x40c6df71ef86a393)]),
    (
        CodeVersion::A,
        2,
        &[(1006, 0x40c70c0fceacd596), (1006, 0x40c70c0fceacd59e)],
    ),
    (CodeVersion::Ad, 1, &[(998, 0x40d370422bf07cd4)]),
    (
        CodeVersion::Ad,
        2,
        &[(1006, 0x40d396f768bbfacc), (1006, 0x40d396f768bbface)],
    ),
    (CodeVersion::Adu, 1, &[(998, 0x4103f7a419d3d347)]),
    (
        CodeVersion::Adu,
        2,
        &[(1006, 0x41042094f68ddc95), (1006, 0x41042094f68ddc96)],
    ),
    (CodeVersion::Ad2xu, 1, &[(998, 0x4103f7a89c8615a8)]),
    (
        CodeVersion::Ad2xu,
        2,
        &[(1006, 0x4104209749922ae6), (1006, 0x4104209749922ae7)],
    ),
    (CodeVersion::D2xu, 1, &[(998, 0x4103f7a8cea1ca4c)]),
    (
        CodeVersion::D2xu,
        2,
        &[(1006, 0x41042097629ffbba), (1006, 0x41042097629ffbbb)],
    ),
    (CodeVersion::D2xad, 1, &[(1118, 0x40d4b5b9c4344dc4)]),
    (
        CodeVersion::D2xad,
        2,
        &[(1126, 0x40d4dc860d498534), (1126, 0x40d4dcc40e1e90cb)],
    ),
];

/// `BENCH_7.json`'s folded state hash at 1 and 2 ranks.
const BENCH7_HASHES: [&str; 2] = ["9b8592cc36c27c36", "2b32f96fdc8359f1"];

fn run(deck: &Deck, version: CodeVersion, ranks: usize) -> Vec<RunReport> {
    mas::mhd::run_multi_rank(deck, version, DeviceSpec::a100_40gb(), ranks, 1, false).ranks
}

#[test]
fn quickstart_hashes_and_model_are_pinned() {
    let deck = Deck::preset_quickstart();
    let mut mismatches = Vec::new();
    for &(version, ranks, model) in &QUICKSTART_MODEL {
        let reports = run(&deck, version, ranks);
        let hashes: Vec<u64> = reports.iter().map(|r| r.state_hash).collect();
        let got: Vec<RankModel> = reports
            .iter()
            .map(|r| (r.kernel_launches, r.wall_us.to_bits()))
            .collect();
        if hashes != QUICKSTART_HASHES[ranks - 1] || got != model {
            let hashes: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
            let got: Vec<String> = got
                .iter()
                .map(|(n, w)| format!("({n}, {w:#018x})"))
                .collect();
            mismatches.push(format!(
                "{version:?} x{ranks}: hashes [{}], (launches, wall_us bits) [{}]",
                hashes.join(", "),
                got.join(", ")
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "quickstart drifted from its golden values:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn bench7_deck_hashes_are_pinned() {
    let mut deck = Deck::preset_quickstart();
    deck.grid = GridCfg {
        nr: 20,
        nt: 16,
        np: 24,
        rmax: 10.0,
    };
    deck.time.n_steps = 10;
    deck.output.hist_interval = 0;
    for version in CodeVersion::ALL {
        for (ranks, &want) in [1, 2].into_iter().zip(&BENCH7_HASHES) {
            let hashes: Vec<u64> = run(&deck, version, ranks)
                .iter()
                .map(|r| r.state_hash)
                .collect();
            assert_eq!(
                fold_hashes(&hashes),
                want,
                "BENCH_7 deck, {version:?} at {ranks} rank(s)"
            );
        }
    }
}

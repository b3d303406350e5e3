//! Reproducibility: every layer of the stack is deterministic given its
//! seeds, which is what makes the experiment tables in EXPERIMENTS.md
//! regenerable bit-for-bit.

use cdrw_repro::prelude::*;

#[test]
fn generators_are_deterministic_and_seed_sensitive() {
    let gnp = GnpParams::new(300, 0.05).unwrap();
    assert_eq!(
        generate_gnp(&gnp, 5).unwrap(),
        generate_gnp(&gnp, 5).unwrap()
    );
    assert_ne!(
        generate_gnp(&gnp, 5).unwrap(),
        generate_gnp(&gnp, 6).unwrap()
    );

    let ppm = PpmParams::new(300, 3, 0.2, 0.01).unwrap();
    assert_eq!(
        generate_ppm(&ppm, 8).unwrap(),
        generate_ppm(&ppm, 8).unwrap()
    );

    let sbm = SbmParams::symmetric(300, 3, 0.2, 0.01).unwrap();
    assert_eq!(
        generate_sbm(&sbm, 9).unwrap(),
        generate_sbm(&sbm, 9).unwrap()
    );
}

#[test]
fn full_detection_pipeline_is_deterministic() {
    let params = PpmParams::new(256, 2, 0.25, 0.005).unwrap();
    let (graph, _) = generate_ppm(&params, 21).unwrap();
    let config = CdrwConfig::builder().seed(13).delta(0.1).build();

    let run = || Cdrw::new(config).detect_all(&graph).unwrap();
    assert_eq!(run(), run());

    let congest = || {
        CongestCdrw::new(CongestConfig::new(config))
            .detect_all(&graph)
            .unwrap()
    };
    assert_eq!(congest(), congest());

    let kmachine = || {
        KMachineEngine::new(KMachineConfig::new(4).with_congest(CongestConfig::new(config)))
            .unwrap()
            .run(&graph)
            .unwrap()
    };
    let (a, b) = (kmachine(), kmachine());
    assert_eq!(a.result, b.result);
    assert_eq!(a.conformance, b.conformance);
}

#[test]
fn baselines_are_deterministic() {
    let params = PpmParams::new(200, 2, 0.25, 0.01).unwrap();
    let (graph, _) = generate_ppm(&params, 31).unwrap();

    let lpa = || label_propagation(&graph, &LpaConfig::default()).unwrap();
    assert_eq!(lpa(), lpa());

    let avg = || averaging_dynamics(&graph, &AveragingConfig::default()).unwrap();
    assert_eq!(avg(), avg());

    let spectral = || spectral_partition(&graph, &SpectralConfig::default()).unwrap();
    assert_eq!(spectral(), spectral());

    let wt = || walktrap(&graph, &WalktrapConfig::default()).unwrap();
    assert_eq!(wt(), wt());
}

#[test]
fn different_algorithm_seeds_change_only_the_seed_order_not_the_quality() {
    let params = PpmParams::new(512, 2, 0.2, 0.002).unwrap();
    let (graph, truth) = generate_ppm(&params, 17).unwrap();
    let delta = params.expected_block_conductance().clamp(0.01, 1.0);
    let mut scores = Vec::new();
    for seed in 0..4u64 {
        let config = CdrwConfig::builder().seed(seed).delta(delta).build();
        let result = Cdrw::new(config).detect_all(&graph).unwrap();
        scores.push(f_score(result.partition(), &truth).f_score);
    }
    for score in &scores {
        assert!(*score > 0.85, "scores across seeds: {scores:?}");
    }
}

//! Golden digests of the live phase timeline, the offline k-means
//! outputs and the analyze artifacts. Every update's `/phases` JSON,
//! phase count and stable-window count, the final per-step labels and the
//! stability latch of a replay are folded into one 64-bit FNV-1a digest
//! per profile, as are the SSE bits of an offline `kmeans::sweep` and the
//! result of a `kmeans::run`. The bytes of the Chrome trace, the phase CSV
//! and the per-step operator CSV are digested for three phase sets per
//! profile (OLS, k-means and DBSCAN with a noise phase), together with the
//! phase sets themselves and their checkpoint association. A performance
//! change to k-means, the streaming analyzer or the analyze writers must
//! leave every digest as it is: the expected values pin the exact output.

use tpupoint::analyzer::features::MAX_DIMS;
use tpupoint::analyzer::{
    kmeans, Analyzer, FeatureMatrix, KmeansConfig, PhaseSet, StreamingAnalyzer, StreamingConfig,
    STREAM_CADENCE,
};
use tpupoint::prelude::*;

/// 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn profile_of(id: WorkloadId, scale: f64) -> Profile {
    let config = build(
        id,
        TpuGeneration::V2,
        &BuildOptions {
            scale,
            seed: 7,
            ..BuildOptions::default()
        },
    );
    let tp = TpuPoint::builder().analyzer(false).build();
    tp.profile(config).unwrap().profile
}

/// Replays `profile` in [`STREAM_CADENCE`] batches, as `replay` does,
/// digesting the observable state after every update and the final
/// labels and latch. Returns the digest and the number of updates.
fn timeline_digest(profile: &Profile, config: StreamingConfig) -> (u64, u64) {
    let n_ops = profile.op_names.len();
    let mut analyzer = StreamingAnalyzer::new(config);
    let mut digest = Digest::new();
    let mut stable_at_step = None;
    for chunk in profile.steps.chunks(STREAM_CADENCE) {
        analyzer.observe_seal(chunk, n_ops);
        digest.bytes(analyzer.report().to_json().as_bytes());
        digest.u64(analyzer.phase_count() as u64);
        digest.u64(analyzer.stable_windows());
        digest.u64(analyzer.steps_assigned());
        if stable_at_step.is_none() && analyzer.is_stable() {
            stable_at_step = Some(chunk.last().expect("non-empty chunk").step);
        }
    }
    for (&step, &label) in analyzer.assignments() {
        digest.u64(step);
        digest.u64(label as u64);
    }
    digest.u64(stable_at_step.map_or(u64::MAX, |s| s));
    (digest.0, analyzer.updates())
}

#[test]
fn streaming_timelines_match_their_golden_digests() {
    let cases = [
        (
            WorkloadId::ResnetImagenet,
            0.008,
            MAX_DIMS,
            0xd43a_6d85_3629_3879,
        ),
        (
            WorkloadId::DcganMnist,
            0.04,
            MAX_DIMS,
            0x67fb_12e8_4a2a_2c40,
        ),
        (
            WorkloadId::BertMnli,
            0.0125,
            MAX_DIMS,
            0xee68_1c15_caff_90fe,
        ),
        (WorkloadId::DcganMnist, 0.01, 3, 0xb096_9479_b1e7_21a7),
    ];
    let mut longest = 0;
    let mut got = Vec::new();
    for (id, scale, pca_dims, _) in cases {
        let profile = profile_of(id, scale);
        longest = longest.max(profile.steps.len());
        let config = StreamingConfig {
            pca_dims,
            ..StreamingConfig::default()
        };
        let (digest, updates) = timeline_digest(&profile, config);
        eprintln!(
            "{id:?} scale {scale} pca_dims {pca_dims}: {} steps, {updates} updates, digest {digest:#018x}",
            profile.steps.len()
        );
        got.push(digest);
    }
    assert!(
        longest > StreamingConfig::default().reservoir,
        "one replay must overflow the reservoir so eviction runs ({longest} steps)"
    );
    let expected: Vec<u64> = cases.iter().map(|c| c.3).collect();
    assert_eq!(got, expected, "streaming timeline digests changed");
}

#[test]
fn offline_kmeans_matches_its_golden_digests() {
    let profile = profile_of(WorkloadId::ResnetImagenet, 0.008);
    let matrix = FeatureMatrix::from_profile(&profile).reduced(MAX_DIMS);

    let mut warm = Digest::new();
    for (k, sse) in kmeans::sweep(&matrix, 1..=15, &KmeansConfig::default()) {
        warm.u64(k as u64);
        warm.f64(sse);
    }
    let cold_config = KmeansConfig {
        warm_start: false,
        ..KmeansConfig::default()
    };
    let mut cold = Digest::new();
    for (k, sse) in kmeans::sweep(&matrix, 1..=15, &cold_config) {
        cold.u64(k as u64);
        cold.f64(sse);
    }
    let result = kmeans::run(&matrix, &KmeansConfig::default());
    let mut run = Digest::new();
    for &label in &result.assignments {
        run.u64(label as u64);
    }
    for centroid in &result.centroids {
        for &v in centroid {
            run.f64(v);
        }
    }
    run.f64(result.sse);

    let got = [warm.0, cold.0, run.0];
    eprintln!(
        "offline digests: {:#018x} {:#018x} {:#018x}",
        got[0], got[1], got[2]
    );
    assert_eq!(
        got,
        [
            0x4c70_e33d_b1f1_dfa3,
            0xd7f5_f19d_5988_de68,
            0x6b18_5664_5ae1_0377
        ],
        "offline k-means digests changed"
    );
}

/// Digests a phase set, its checkpoint association and the bytes of the
/// three analyze artifacts written for it.
fn artifacts_digest(analyzer: &Analyzer<'_>, set: &PhaseSet) -> u64 {
    let mut digest = Digest::new();
    for phase in &set.phases {
        digest.u64(phase.id as u64);
        digest.u64(phase.steps.len() as u64);
        for &step in &phase.steps {
            digest.u64(step);
        }
        digest.u64(phase.total_time.as_micros());
        digest.u64(u64::from(phase.is_noise));
    }
    digest.u64(set.total_time.as_micros());
    for checkpoint in analyzer.checkpoints_for(set) {
        match checkpoint {
            Some(c) => {
                digest.u64(c.checkpoint_step);
                digest.u64(c.distance);
            }
            None => digest.u64(u64::MAX),
        }
    }
    let mut trace = Vec::new();
    analyzer.write_chrome_trace(set, &mut trace).unwrap();
    digest.bytes(&trace);
    let mut phases_csv = Vec::new();
    analyzer.write_phase_csv(set, &mut phases_csv).unwrap();
    digest.bytes(&phases_csv);
    let mut steps_csv = Vec::new();
    analyzer.write_step_csv(&mut steps_csv).unwrap();
    digest.bytes(&steps_csv);
    digest.0
}

#[test]
fn analyze_artifacts_match_their_golden_digests() {
    // (workload, scale, [OLS 0.7, k-means k = 5, DBSCAN min-samples 30]).
    let cases = [
        (
            WorkloadId::ResnetImagenet,
            0.008,
            [
                0xfb18_4e87_61d4_1ebc,
                0x03ee_3e7f_f55a_1a0b,
                0xc7e4_7249_1266_c589,
            ],
        ),
        (
            WorkloadId::DcganMnist,
            0.04,
            [
                0x9fbe_50e5_4a63_c2fa,
                0xf30f_fd21_ef98_3a7c,
                0xa9db_a398_1d56_2ed1,
            ],
        ),
        (
            WorkloadId::BertMnli,
            0.0125,
            [
                0xb9ab_4317_1156_98b7,
                0xf869_ec7f_de8c_1489,
                0xcbe0_fd93_3602_8429,
            ],
        ),
    ];
    let mut got = Vec::new();
    for (id, scale, _) in cases {
        let profile = profile_of(id, scale);
        let analyzer = Analyzer::new(&profile);
        let ols = analyzer.ols_phases(0.7);
        let kmeans = analyzer.kmeans_phases(5);
        let dbscan = analyzer.dbscan_phases(30).expect("within limits");
        assert!(
            kmeans
                .phases
                .iter()
                .any(|p| p.steps.windows(2).any(|w| w[1] != w[0] + 1)),
            "{id:?}: a k-means phase must be non-contiguous"
        );
        assert!(
            dbscan.phases.iter().any(|p| p.is_noise),
            "{id:?}: the DBSCAN set must have a noise phase"
        );
        let digests = [
            artifacts_digest(&analyzer, &ols),
            artifacts_digest(&analyzer, &kmeans),
            artifacts_digest(&analyzer, &dbscan),
        ];
        eprintln!(
            "{id:?} scale {scale}: {} steps, ols/kmeans/dbscan digests {:#018x} {:#018x} {:#018x}",
            profile.steps.len(),
            digests[0],
            digests[1],
            digests[2]
        );
        got.push(digests);
    }
    let expected: Vec<[u64; 3]> = cases.iter().map(|c| c.2).collect();
    assert_eq!(got, expected, "analyze artifact digests changed");
}

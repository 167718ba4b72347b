//! Golden digests of `profile.json`. The bytes `Profile::save_json`
//! writes for three paper models are folded into one 64-bit FNV-1a
//! digest each, and must also equal `serde_json::to_string` of the same
//! profile. A performance change to the writer must leave every digest as
//! it is: the expected values pin the exact output.

use tpupoint::prelude::*;

/// 64-bit FNV-1a.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

#[test]
fn profile_json_matches_its_golden_digests() {
    let cases = [
        (WorkloadId::ResnetImagenet, 0.008, 0xb481_95a4_e20e_5c12),
        (WorkloadId::DcganMnist, 0.04, 0xbff8_a4c2_1f4d_5368),
        (WorkloadId::BertMnli, 0.0125, 0x2ca7_4a7b_50b0_f731),
    ];
    let mut got = Vec::new();
    for (id, scale, _) in cases {
        let profile = profile_of(id, scale);
        let mut bytes = Vec::new();
        profile.save_json(&mut bytes).unwrap();
        assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            serde_json::to_string(&profile).unwrap(),
            "{id:?}: save_json diverged from serde_json"
        );
        assert_eq!(Profile::load_json(bytes.as_slice()).unwrap(), profile);
        let d = digest(&bytes);
        eprintln!(
            "{id:?} scale {scale}: {} steps, {} bytes, digest {d:#018x}",
            profile.steps.len(),
            bytes.len()
        );
        got.push(d);
    }
    let want: Vec<u64> = cases.iter().map(|c| c.2).collect();
    assert_eq!(got, want, "profile.json bytes moved");
}

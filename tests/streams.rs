//! Known-answer values of the workspace's seeded streams.
//!
//! Every stochastic input of the reproduction (the CF sampler and ALS
//! init, the workload generator, the fault, adversary, traffic and
//! control-plane injectors) draws from a seeded [`SplitMix`] stream. These
//! tests pin the first outputs of each seeding and of each mapping onto
//! ranges, slices and distributions for three seeds, so a change that
//! moves any draw (and with it every figure downstream) fails here
//! first, naming the stream. Floats are compared by bit pattern.

use powermed_units::rng::SplitMix;

const SEEDS: [u64; 3] = [0, 42, 0x5EED_CAFE_F00D];

/// A channel tag (the fault injector's knob channel).
const TAG: u64 = 0xA001;

/// `draw` applied to each seed of [`SEEDS`].
fn per_seed<T>(draw: impl Fn(u64) -> Vec<T>) -> Vec<Vec<T>> {
    SEEDS.iter().map(|&s| draw(s)).collect()
}

/// The first `n` raw outputs of `rng`.
fn raw(mut next: impl FnMut() -> u64, n: usize) -> Vec<u64> {
    (0..n).map(|_| next()).collect()
}

#[test]
fn the_plain_seeding() {
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s);
        raw(|| r.next_u64(), 4)
    });
    assert_eq!(
        got,
        [
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec
            ],
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394
            ],
            [
                0x9dbb_fc04_614f_78c0,
                0x3f37_f264_a00a_8b55,
                0xe095_91e0_dbe8_d555,
                0xe5c7_d05d_7e40_b474
            ],
        ]
    );
}

#[test]
fn the_xor_tagged_seeding() {
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s ^ TAG);
        raw(|| r.next_u64(), 4)
    });
    assert_eq!(
        got,
        [
            [
                0xd805_1644_12bb_4e73,
                0x53e0_7590_fcc0_85c4,
                0xe36f_3b60_138c_c64e,
                0xce76_5f3b_f822_7157
            ],
            [
                0x0206_8bb3_a8ba_6f2a,
                0xb7fe_8f45_560f_aa98,
                0x7ee9_268c_37a1_e3cd,
                0x2efa_4731_b7fc_4ba7
            ],
            [
                0x92da_2223_f52b_d63e,
                0xd438_afd9_ff5d_cc35,
                0xa179_4e51_18e0_656a,
                0x0518_8c30_123a_a404
            ],
        ]
    );
}

#[test]
fn the_gamma_tagged_seeding() {
    let got = per_seed(|s| {
        let mut r = SplitMix::channel(s, 0x0A00);
        raw(|| r.next_u64(), 4)
    });
    assert_eq!(
        got,
        [
            [
                0xc156_bc1b_eebe_f320,
                0x128e_aca1_0cd3_9f4f,
                0x1e5a_cb48_bf45_6e8a,
                0x459f_0027_53e5_b942
            ],
            [
                0x1278_41d1_db4f_f22b,
                0x093d_75b0_4972_4e0d,
                0x376b_5812_51e6_7d81,
                0x6372_a290_bec3_eaac
            ],
            [
                0x584f_38f5_865d_c060,
                0x156e_74ee_db75_c7f7,
                0x62e9_d1e7_0fd0_2a47,
                0xdd3f_ad31_a429_77eb
            ],
        ]
    );
}

#[test]
fn tag_zero_of_the_gamma_seeding_is_the_plain_seeding() {
    for s in SEEDS {
        let mut tagged = SplitMix::channel(s, 0);
        let mut plain = SplitMix::new(s);
        assert_eq!(raw(|| tagged.next_u64(), 16), raw(|| plain.next_u64(), 16));
    }
}

#[test]
fn integer_ranges_take_the_draw_modulo_the_span() {
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s);
        vec![
            r.below(3),
            r.below(u64::from(u32::MAX)),
            r.below(3),
            r.below(8),
        ]
    });
    assert_eq!(
        got,
        [
            [1, 271713375, 1, 4],
            [1, 3679900726, 0, 4],
            [2, 3745676729, 0, 4],
        ]
    );
}

#[test]
fn float_ranges_scale_the_unit_draw() {
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s);
        vec![
            r.next_f64().to_bits(),
            r.uniform(-0.02, 0.02).to_bits(),
            r.uniform(-0.3, 0.3).to_bits(),
            r.uniform(0.0, 600.0).to_bits(),
        ]
    });
    assert_eq!(
        got,
        [
            [
                0x3fec_4415_072f_63b9,
                0xbf66_6fd9_111c_8360,
                0xbfd2_2f58_6f86_6503,
                0x4082_343b_c656_5f1a
            ],
            [
                0x3fe7_bae6_44c5_fd6d,
                0xbf8b_dc32_2ce5_a19f,
                0xbfc1_00e0_ff7a_481f,
                0x4069_d076_35b9_2ff0
            ],
            [
                0x3fe3_b77f_808c_29ef,
                0xbf84_bae5_a25c_2597,
                0x3fcc_f9ab_c375_2c3e,
                0x4080_d462_82d8_ff3d
            ],
        ]
    );
}

#[test]
fn shuffle_is_a_fixed_fisher_yates() {
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s);
        let mut items: Vec<u64> = (0..10).collect();
        r.shuffle(&mut items);
        items
    });
    assert_eq!(
        got,
        [
            [6, 3, 2, 9, 8, 1, 4, 7, 0, 5],
            [0, 9, 5, 8, 6, 4, 7, 2, 1, 3],
            [6, 1, 3, 0, 7, 2, 4, 9, 5, 8],
        ]
    );
}

#[test]
fn choose_picks_the_draw_modulo_the_length() {
    let items: Vec<u64> = (0..7).collect();
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s);
        let mut picks: Vec<u64> = (0..4).map(|_| *r.choose(&items).unwrap()).collect();
        picks.push(u64::from(r.choose(&[0u64; 0]).is_none()));
        picks
    });
    assert_eq!(got, [[2, 1, 2, 4, 1], [5, 5, 0, 2, 1], [1, 3, 1, 4, 1]]);
}

#[test]
fn choose_multiple_is_a_partial_fisher_yates() {
    let items: Vec<u64> = (0..12).collect();
    let got = per_seed(|s| {
        let mut r = SplitMix::new(s);
        let mut picks: Vec<u64> = r.choose_multiple(&items, 2).into_iter().copied().collect();
        picks.extend(r.choose_multiple(&items[..3], 20).into_iter().copied());
        picks.extend(r.choose_multiple(&items, 2).into_iter().copied());
        picks
    });
    assert_eq!(
        got,
        [
            [7, 11, 1, 0, 2, 6, 3],
            [1, 6, 0, 1, 2, 6, 8],
            [8, 6, 0, 1, 2, 2, 5],
        ]
    );
}

#[test]
fn the_box_muller_normal() {
    let got = per_seed(|s| {
        let mut tagged = SplitMix::channel(s, TAG);
        let mut channel = SplitMix::new(s ^ TAG);
        vec![
            tagged.normal().to_bits(),
            tagged.normal().to_bits(),
            channel.normal().to_bits(),
            channel.normal().to_bits(),
        ]
    });
    assert_eq!(
        got,
        [
            [
                0x3fce_87d0_45ce_b092,
                0xbfc8_59d2_af7a_6112,
                0xbfec_e796_893e_399d,
                0x3fe7_4ab4_fecf_5f16
            ],
            [
                0xc001_fb5b_c8e2_8a1b,
                0xbfde_1f57_d634_e5fa,
                0xbf99_32b5_c1f9_5835,
                0x3fde_6310_daf3_21e1
            ],
            [
                0x3fc2_2047_dc0b_76fe,
                0xbfaf_dfd9_a799_769f,
                0x3fe3_e588_543b_3202,
                0x3ff6_68bb_2756_c60e
            ],
        ]
    );
}

#[test]
fn exponential_and_poisson_draws() {
    let got = per_seed(|s| {
        let mut r = SplitMix::channel(s, 5);
        vec![
            r.exp(3.0).to_bits(),
            r.poisson(4.0),
            r.poisson(200.0),
            r.poisson(0.0),
            r.exp(0.5).to_bits(),
        ]
    });
    assert_eq!(
        got,
        [
            [0x3ff3_081e_a333_2af0, 4, 176, 0, 0x3fd9_ebfd_b953_b025],
            [0x3fe5_1ff5_ce99_9720, 7, 187, 0, 0x3ff2_9ff6_7e32_c6c3],
            [0x4022_f09e_3c96_d06e, 2, 217, 0, 0x3ffc_09c3_1b61_c523],
        ]
    );
}

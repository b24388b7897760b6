//! FDTD synthesis pinned bit for bit at paper geometry.
//!
//! Each test hashes the bit patterns of the gathers (FNV-1a over
//! `to_bits`). The digests were recorded from the plain per-cell loop the
//! stencil kernel replaced, so a changed accumulation order, a fused
//! multiply-add, a lost damped cell or a reordered shot fails here even
//! when the traces still agree to 1e-15. A deliberate numeric change must
//! re-record them.

use qugeo_geodata::curved::CurvedLayerGenerator;
use qugeo_geodata::{Dataset, DatasetConfig, FlatLayerGenerator};
use qugeo_tensor::Array2;
use qugeo_wavesim::{model_shots, Grid, RickerWavelet, SpaceOrder, Survey};

fn bits_digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The paper's 70 × 70 grid of 10 m cells at 1 ms, cut to 400 steps: long
/// enough for the direct wave to cross the side and bottom sponges.
fn paper_grid() -> Grid {
    Grid::new(70, 70, 10.0, 0.001, 400).unwrap()
}

/// Digests of `model_shots` with the paper survey (5 sources, 70
/// receivers) for each stencil order.
fn order_digests(velocity: &Array2) -> [u64; 3] {
    let grid = paper_grid();
    let wavelet = RickerWavelet::new(15.0, grid.dt()).unwrap();
    [SpaceOrder::Order2, SpaceOrder::Order4, SpaceOrder::Order8].map(|order| {
        let cube =
            model_shots(velocity, &grid, &Survey::openfwi_default(), &wavelet, order).unwrap();
        assert_eq!(cube.shape(), (5, 400, 70));
        bits_digest(cube.as_slice())
    })
}

#[test]
fn layered_model_shots_are_pinned_bit_for_bit() {
    let model = FlatLayerGenerator::new(70, 70).unwrap().sample(11);
    assert_eq!(
        order_digests(model.map()),
        [
            0x6bdd_c46f_8156_bb94,
            0x61c9_f048_aa29_9254,
            0x035a_8707_63e8_6188
        ],
        "Order2, Order4, Order8 gathers of a flat-layer model"
    );
}

#[test]
fn curved_model_shots_are_pinned_bit_for_bit() {
    let model = CurvedLayerGenerator::new(70, 70, 6).unwrap().sample(5);
    assert_eq!(
        order_digests(model.map()),
        [
            0x0490_4713_9e8d_8d8f,
            0x7c44_5d51_550a_c34e,
            0x2ddf_e18f_3872_4774
        ],
        "Order2, Order4, Order8 gathers of a curved-layer model"
    );
}

#[test]
fn dataset_generation_is_pinned_bit_for_bit() {
    // Three samples of five shots: 15 (sample, shot) items, so on a host
    // of a few cores a worker models shots of more than one sample and
    // the per-sample stacking order is exercised.
    let config = DatasetConfig {
        num_samples: 3,
        grid: paper_grid(),
        ..DatasetConfig::openfwi_flatvel_a(3, 23).unwrap()
    };
    let dataset = Dataset::generate(&config).unwrap();
    assert_eq!(dataset.len(), 3);
    let seismic: Vec<u64> = dataset
        .iter()
        .map(|s| {
            assert_eq!(s.seismic.shape(), (5, 400, 70));
            bits_digest(s.seismic.as_slice())
        })
        .collect();
    assert_eq!(
        seismic,
        [
            0xed37_d50c_b2ef_b37b,
            0xf90b_75a0_5cf1_bb34,
            0xc6b2_b213_2026_6a12
        ],
        "per-sample seismic cubes"
    );
}

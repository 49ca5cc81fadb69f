//! Crate smoke test: the test-chip sensor preset programs 16
//! overlapping sensors.

use psa_array::sensors::SensorBank;

#[test]
fn sensor_bank_smoke() {
    let bank = SensorBank::date24_default();
    assert_eq!(bank.len(), 16);
    let s0 = bank.sensor(0).unwrap();
    let s1 = bank.sensor(1).unwrap();
    let (a, b) = (s0.footprint(), s1.footprint());
    let overlap = (a.max().x.min(b.max().x) - a.min().x.max(b.min().x))
        * (a.max().y.min(b.max().y) - a.min().y.max(b.min().y));
    assert!((overlap / s0.footprint().area() - 0.33).abs() < 0.05);
}

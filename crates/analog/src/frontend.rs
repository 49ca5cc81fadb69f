//! The composed measurement chain: sensor EMF → op-amp → ADC.
//!
//! One `Sensor{1..4}±` channel of the test-chip PCB: the differential
//! coil output enters a THS4504 stage and is digitized. Noise enters as
//! sensor-referred RMS (coil thermal + ambient, supplied by the caller,
//! since it depends on which probe geometry is in use) plus the
//! amplifier's own input noise.

use crate::adc::Adc;
use crate::error::AnalogError;
use crate::opamp::OpAmp;
use psa_field::noise::GaussianNoise;

/// The per-channel analog front end.
///
/// # Example
///
/// ```
/// use psa_analog::frontend::AnalogFrontEnd;
///
/// let fe = AnalogFrontEnd::date24(42);
/// let v = vec![1.0e-5; 4096];
/// let out = fe.capture(&v, 264.0e6, 0.0)?;
/// assert_eq!(out.len(), 4096);
/// # Ok::<(), psa_analog::AnalogError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalogFrontEnd {
    amp: OpAmp,
    adc: Adc,
    seed: u64,
}

impl AnalogFrontEnd {
    /// The test-chip PCB chain: THS4504 + RASC-class ADC.
    pub fn date24(seed: u64) -> Self {
        AnalogFrontEnd {
            amp: OpAmp::ths4504(),
            adc: Adc::rasc(),
            seed,
        }
    }

    /// The ICR HH100 probe set's chain: its own wide-band low-noise
    /// preamp (30 dB, 1.5 GHz GBW) into the RASC-class ADC.
    pub fn icr_hh100(seed: u64) -> Self {
        AnalogFrontEnd {
            amp: OpAmp {
                dc_gain: 31.62, // 30 dB
                gbw_hz: 1.5e9,
                vout_max: 3.3,
                input_noise_v_per_rthz: 1.5e-9,
            },
            adc: Adc::rasc(),
            seed,
        }
    }

    /// Builds a custom chain.
    pub fn new(amp: OpAmp, adc: Adc, seed: u64) -> Self {
        AnalogFrontEnd { amp, adc, seed }
    }

    /// The amplifier stage.
    pub fn amp(&self) -> &OpAmp {
        &self.amp
    }

    /// The ADC stage.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// Captures one record: adds sensor-referred noise
    /// (`sensor_noise_vrms`, from the probe model) and amplifier input
    /// noise, amplifies, and quantizes. Deterministic per
    /// `(seed, record_index)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::EmptyInput`] for an empty record or
    /// [`AnalogError::InvalidParameter`] for a non-positive sample rate
    /// or a negative or non-finite `sensor_noise_vrms`.
    pub fn capture(
        &self,
        sensor_v: &[f64],
        fs_hz: f64,
        sensor_noise_vrms: f64,
    ) -> Result<Vec<f64>, AnalogError> {
        self.capture_record(sensor_v, fs_hz, sensor_noise_vrms, 0)
    }

    /// Like [`capture`](Self::capture) but with an explicit record index
    /// so repeated acquisitions see fresh (yet reproducible) noise.
    ///
    /// # Errors
    ///
    /// Same as [`capture`](Self::capture).
    pub fn capture_record(
        &self,
        sensor_v: &[f64],
        fs_hz: f64,
        sensor_noise_vrms: f64,
        record_index: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        let mut out = Vec::new();
        self.capture_record_into(sensor_v, fs_hz, sensor_noise_vrms, record_index, &mut out)?;
        Ok(out)
    }

    /// [`capture_record`](Self::capture_record) into a caller-owned
    /// buffer (cleared first). Draws the record's noise, then applies it
    /// through [`capture_shared_into`](Self::capture_shared_into), so
    /// both share one arithmetic body; the draw is a fresh allocation
    /// per call, so loops should hold a [`UnitNoise`] and call that
    /// method instead. Bit-identical to
    /// [`capture_record`](Self::capture_record).
    ///
    /// # Errors
    ///
    /// Same as [`capture`](Self::capture).
    pub fn capture_record_into(
        &self,
        sensor_v: &[f64],
        fs_hz: f64,
        sensor_noise_vrms: f64,
        record_index: u64,
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError> {
        self.capture_shared_into(
            sensor_v,
            fs_hz,
            sensor_noise_vrms,
            record_index,
            &mut UnitNoise::default(),
            out,
        )
    }

    /// The seed of record `record_index`'s noise stream. It depends on
    /// the front end's seed and the record index only, not on the
    /// sensor or the noise level, so front ends built with one seed
    /// draw the same unit-normal stream for a record.
    pub fn noise_seed(&self, record_index: u64) -> u64 {
        self.seed ^ record_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// [`capture_record_into`](Self::capture_record_into) with the
    /// record's unit-normal draw taken from `noise`, which draws it only
    /// when its seed or length changed. A sensor sweep passes one
    /// `noise` to every sensor of a record, so the Box–Muller stream
    /// runs once per record however many sensors apply it. Each sample
    /// is `v + z·σ` with `σ = sqrt(sensor² + amplifier²)`; the unit draw
    /// `z` is exactly `r·cos θ` (or `r·sin θ`), so `z·σ` is the same
    /// product a σ-scaled stream returns. A σ = 0 record passes through
    /// untouched. The buffer is reused, so a per-worker acquisition
    /// context performs zero allocations per record after warm-up.
    ///
    /// # Errors
    ///
    /// Same as [`capture`](Self::capture).
    pub fn capture_shared_into(
        &self,
        sensor_v: &[f64],
        fs_hz: f64,
        sensor_noise_vrms: f64,
        record_index: u64,
        noise: &mut UnitNoise,
        out: &mut Vec<f64>,
    ) -> Result<(), AnalogError> {
        if sensor_v.is_empty() {
            return Err(AnalogError::EmptyInput);
        }
        if fs_hz <= 0.0 {
            return Err(AnalogError::InvalidParameter {
                what: "sample rate must be positive",
            });
        }
        if !sensor_noise_vrms.is_finite() || sensor_noise_vrms < 0.0 {
            return Err(AnalogError::InvalidParameter {
                what: "sensor noise must be finite and non-negative",
            });
        }
        let amp_noise = self.amp.input_noise_vrms(fs_hz / 2.0);
        let sigma = (sensor_noise_vrms * sensor_noise_vrms + amp_noise * amp_noise).sqrt();
        out.clear();
        if sigma > 0.0 {
            let z = noise.draw(self.noise_seed(record_index), sensor_v.len());
            out.extend(sensor_v.iter().zip(z).map(|(&v, &z)| v + z * sigma));
        } else {
            out.extend_from_slice(sensor_v);
        }
        self.amp.amplify_in_place(out, fs_hz);
        self.adc.quantize_in_place(out);
        Ok(())
    }
}

/// One record's unit-normal (σ = 1) front-end noise, kept between
/// captures. The draw is a pure function of its seed
/// ([`AnalogFrontEnd::noise_seed`]) and length, so it is redrawn only
/// when either changes.
#[derive(Debug, Clone, Default)]
pub struct UnitNoise {
    /// Seed and length of the draw in `z`, once there is one.
    drawn: Option<(u64, usize)>,
    z: Vec<f64>,
}

impl UnitNoise {
    /// The first `n` samples of the unit-normal stream seeded `seed`.
    fn draw(&mut self, seed: u64, n: usize) -> &[f64] {
        if self.drawn != Some((seed, n)) {
            self.z.resize(n, 0.0);
            GaussianNoise::new(1.0, seed).fill(&mut self.z);
            self.drawn = Some((seed, n));
        }
        &self.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn chain_amplifies_tone() {
        // Project the output onto the tone phasor (Goertzel-style) so
        // amplifier noise and quantization don't bias the gain estimate.
        let fe = AnalogFrontEnd::date24(1);
        let fs = 264.0e6;
        let f0 = 48.0e6;
        let n = 16384;
        let a_in = 2.0e-3;
        let x: Vec<f64> = (0..n)
            .map(|i| a_in * (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect();
        let y = fe.capture(&x, fs, 0.0).unwrap();
        let mut re = 0.0;
        let mut im = 0.0;
        for (i, &v) in y.iter().enumerate().skip(n / 4) {
            let ph = 2.0 * PI * f0 * i as f64 / fs;
            re += v * ph.cos();
            im += v * ph.sin();
        }
        let count = (n - n / 4) as f64;
        let a_out = 2.0 * re.hypot(im) / count;
        let gain = a_out / a_in;
        let expected = fe.amp().gain_at_hz(f0);
        assert!(
            (gain / expected - 1.0).abs() < 0.35,
            "gain {gain} vs expected {expected}"
        );
    }

    #[test]
    fn noise_floor_present_with_zero_signal() {
        let fe = AnalogFrontEnd::date24(2);
        let x = vec![0.0; 8192];
        let y = fe.capture(&x, 264.0e6, 1.0e-5).unwrap();
        let rms = (y.iter().map(|v| v * v).sum::<f64>() / y.len() as f64).sqrt();
        assert!(rms > 0.0, "noise must appear at the output");
    }

    #[test]
    fn records_differ_but_are_reproducible() {
        let fe = AnalogFrontEnd::date24(3);
        let x = vec![0.0; 1024];
        let a = fe.capture_record(&x, 264.0e6, 1e-5, 0).unwrap();
        let b = fe.capture_record(&x, 264.0e6, 1e-5, 1).unwrap();
        let a2 = fe.capture_record(&x, 264.0e6, 1e-5, 0).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn validates_inputs() {
        let fe = AnalogFrontEnd::date24(4);
        assert!(fe.capture(&[], 264.0e6, 0.0).is_err());
        assert!(fe.capture(&[0.0], 0.0, 0.0).is_err());
    }

    #[test]
    fn capture_into_reuses_buffer_and_matches() {
        let fe = AnalogFrontEnd::date24(6);
        let x: Vec<f64> = (0..2048).map(|i| 1e-4 * (i as f64 * 0.03).sin()).collect();
        let mut buf = Vec::new();
        for idx in 0..3u64 {
            fe.capture_record_into(&x, 264.0e6, 1e-5, idx, &mut buf)
                .unwrap();
            let fresh = fe.capture_record(&x, 264.0e6, 1e-5, idx).unwrap();
            assert_eq!(buf, fresh, "record {idx}");
        }
        assert!(fe
            .capture_record_into(&[], 264.0e6, 0.0, 0, &mut buf)
            .is_err());
    }

    #[test]
    fn rejects_bad_sensor_noise() {
        let fe = AnalogFrontEnd::date24(7);
        let x = vec![1e-5; 64];
        let mut buf = Vec::new();
        for bad in [f64::NAN, -1e-6, f64::INFINITY, f64::NEG_INFINITY] {
            let err = fe.capture_record_into(&x, 264.0e6, bad, 0, &mut buf);
            assert!(
                matches!(err, Err(AnalogError::InvalidParameter { .. })),
                "noise {bad}: {err:?}"
            );
        }
        assert!(fe
            .capture_record_into(&x, 264.0e6, 0.0, 0, &mut buf)
            .is_ok());
    }

    /// The capture as it was before the unit draw was shared: the
    /// σ-scaled Box–Muller stream added sample by sample.
    fn reference_capture(
        fe: &AnalogFrontEnd,
        seed: u64,
        sensor_v: &[f64],
        fs_hz: f64,
        sensor_noise_vrms: f64,
        record_index: u64,
    ) -> Vec<f64> {
        let amp_noise = fe.amp().input_noise_vrms(fs_hz / 2.0);
        let sigma = (sensor_noise_vrms * sensor_noise_vrms + amp_noise * amp_noise).sqrt();
        let mut out = sensor_v.to_vec();
        if sigma > 0.0 {
            let mut g =
                GaussianNoise::new(sigma, seed ^ record_index.wrapping_mul(0x9E3779B97F4A7C15));
            for v in out.iter_mut() {
                *v += g.next();
            }
        }
        fe.amp().amplify_in_place(&mut out, fs_hz);
        fe.adc().quantize_in_place(&mut out);
        out
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shared_draw_matches_streaming_reference_bitwise() {
        let fs = 264.0e6;
        let seed = 0x5EED ^ 0xFE;
        let silent_amp = OpAmp {
            input_noise_v_per_rthz: 0.0,
            ..OpAmp::ths4504()
        };
        let front_ends = [
            AnalogFrontEnd::date24(seed),
            AnalogFrontEnd::icr_hh100(seed),
            AnalogFrontEnd::new(silent_amp, Adc::rasc(), seed),
        ];
        // One UnitNoise shared by every front end, sensor noise and
        // length, as a sweep shares it across sensors.
        let mut noise = UnitNoise::default();
        let mut out = Vec::new();
        for n in [1, 2, 7, 1024, 1031] {
            // Signed zeros must survive a σ = 0 capture untouched.
            let x: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => 3e-4 * (i as f64 * 0.07).sin(),
                })
                .collect();
            for rec in [0u64, 1, 9] {
                for fe in &front_ends {
                    for sensor_noise in [0.0, 2e-6, 4e-5] {
                        let want = reference_capture(fe, seed, &x, fs, sensor_noise, rec);
                        fe.capture_shared_into(&x, fs, sensor_noise, rec, &mut noise, &mut out)
                            .unwrap();
                        let ctx = format!("n {n} rec {rec} noise {sensor_noise} {:?}", fe.amp());
                        assert_eq!(bits(&out), bits(&want), "shared: {ctx}");
                        fe.capture_record_into(&x, fs, sensor_noise, rec, &mut out)
                            .unwrap();
                        assert_eq!(bits(&out), bits(&want), "one-shot: {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn silent_chain_draws_no_noise() {
        let amp = OpAmp {
            input_noise_v_per_rthz: 0.0,
            ..OpAmp::ths4504()
        };
        let fe = AnalogFrontEnd::new(amp, Adc::rasc(), 3);
        let mut noise = UnitNoise::default();
        let mut out = Vec::new();
        fe.capture_shared_into(&[-0.0, 1e-4], 264.0e6, 0.0, 0, &mut noise, &mut out)
            .unwrap();
        assert!(noise.drawn.is_none(), "a σ = 0 capture draws nothing");
    }

    #[test]
    fn output_is_quantized() {
        let fe = AnalogFrontEnd::date24(5);
        let x: Vec<f64> = (0..512).map(|i| 1e-4 * (i as f64 * 0.05).sin()).collect();
        let y = fe.capture(&x, 264.0e6, 0.0).unwrap();
        let lsb = fe.adc().lsb();
        for v in y {
            let steps = v / lsb;
            assert!((steps - steps.round()).abs() < 1e-9);
        }
    }
}

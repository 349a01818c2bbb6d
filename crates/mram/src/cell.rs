//! Complementary two-MTJ memory cell with voltage-divider sensing.
//!
//! Each RIL-Block LUT memory cell stores its bit in a *pair* of MTJs held in
//! opposite states (paper Section III-B): `MTJ_i` and `!MTJ_i`. The read
//! path stacks the two devices between `V+` and `V−`; the midpoint voltage
//! swings far above or below `V/2` depending on which device is AP, giving
//! a wide sense margin without a reference cell — and, because the series
//! resistance `R_P + R_AP` is the same for both stored values, a
//! data-independent read current (the P-SCA symmetry the paper exploits).

use crate::mtj::{Mtj, MtjParams, MtjState};

/// Electrical operating point of the cell's peripheral circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCircuit {
    /// Read supply across the divider (V).
    pub v_read: f64,
    /// Write driver supply (V).
    pub v_write: f64,
    /// Read pulse width (ns).
    pub t_read_ns: f64,
    /// Write pulse width (ns).
    pub t_write_ns: f64,
    /// Series resistance of the read-enable pass gates (Ω) on the `O` path.
    pub r_access: f64,
    /// Mobility mismatch of the complementary pull path: the `O` path is
    /// this factor times `r_access` when the cell reads logic 1 (the tiny
    /// 0-vs-1 asymmetry seen in Table IV).
    pub pull_asymmetry: f64,
    /// Write-driver series resistance (Ω).
    pub r_driver: f64,
    /// Midpoint sense threshold margin (V): a read is reliable only if the
    /// divider midpoint deviates from `V/2` by at least this much.
    pub sense_threshold: f64,
    /// Standby (non-volatile retention) power in nW.
    pub standby_nw: f64,
}

impl Default for CellCircuit {
    fn default() -> CellCircuit {
        CellCircuit {
            v_read: 0.8,
            v_write: 1.2,
            t_read_ns: 0.2300,
            t_write_ns: 0.94,
            r_access: 1000.0,
            pull_asymmetry: 0.976,
            r_driver: 73_000.0,
            sense_threshold: 0.05,
            standby_nw: 0.00738,
        }
    }
}

/// Result of one read operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSample {
    /// Sensed logic value.
    pub value: bool,
    /// Divider midpoint voltage (V).
    pub v_mid: f64,
    /// Read current through the divider (µA).
    pub current_ua: f64,
    /// Instantaneous read power (µW).
    pub power_uw: f64,
    /// Energy of the read pulse (fJ).
    pub energy_fj: f64,
    /// Whether the sense margin was wide enough for a reliable read.
    pub reliable: bool,
}

/// Result of one write operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSample {
    /// Whether both MTJs reached their target states.
    pub success: bool,
    /// Write current (µA).
    pub current_ua: f64,
    /// Energy of the write pulse (fJ), both complementary devices.
    pub energy_fj: f64,
}

/// A complementary 2-MTJ memory cell.
///
/// # Examples
///
/// ```
/// use ril_mram::cell::ComplementaryCell;
///
/// let mut cell = ComplementaryCell::with_defaults();
/// let w = cell.write(true);
/// assert!(w.success);
/// let r = cell.read();
/// assert!(r.value && r.reliable);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComplementaryCell {
    main: Mtj,
    complement: Mtj,
    circuit: CellCircuit,
}

impl ComplementaryCell {
    /// Creates a cell storing logic 0 with the given device/circuit
    /// parameters. The two MTJs may carry distinct (process-varied)
    /// parameters.
    pub fn new(main_params: MtjParams, comp_params: MtjParams, circuit: CellCircuit) -> Self {
        let mut cell = ComplementaryCell {
            main: Mtj::new(main_params),
            complement: Mtj::new(comp_params),
            circuit,
        };
        // Initialize complementary: stored 0 ⇒ main = P, complement = AP.
        cell.main.set_state(MtjState::Parallel);
        cell.complement.set_state(MtjState::AntiParallel);
        cell
    }

    /// Creates a cell with default parameters.
    pub fn with_defaults() -> Self {
        ComplementaryCell::new(
            MtjParams::default(),
            MtjParams::default(),
            CellCircuit::default(),
        )
    }

    /// The circuit operating point.
    pub fn circuit(&self) -> &CellCircuit {
        &self.circuit
    }

    /// The main MTJ (for inspection).
    pub fn main(&self) -> &Mtj {
        &self.main
    }

    /// The complement MTJ (for inspection).
    pub fn complement(&self) -> &Mtj {
        &self.complement
    }

    /// The logically stored bit according to device states (`main` = AP
    /// means 1). If the devices are *not* complementary (after a failed
    /// write), the main device defines the bit.
    pub fn stored(&self) -> bool {
        self.main.state() == MtjState::AntiParallel
    }

    /// Writes `value` into the cell: both MTJs receive anti-phase STT
    /// pulses driven from `BL`/`SL` (paper Fig. 4).
    pub fn write(&mut self, value: bool) -> WriteSample {
        let main_target = if value {
            MtjState::AntiParallel
        } else {
            MtjState::Parallel
        };
        // Drive current: supply over driver + device resistance (worst of
        // the two states during switching — use the mean).
        let r_main = (self.main.params().r_parallel() + self.main.params().r_antiparallel()) / 2.0;
        let r_comp = (self.complement.params().r_parallel()
            + self.complement.params().r_antiparallel())
            / 2.0;
        let i_main = self.circuit.v_write / (self.circuit.r_driver + r_main) * 1e6; // µA
        let i_comp = self.circuit.v_write / (self.circuit.r_driver + r_comp) * 1e6;
        let ok_main = self
            .main
            .write(main_target, i_main, self.circuit.t_write_ns);
        let ok_comp = self
            .complement
            .write(main_target.flipped(), i_comp, self.circuit.t_write_ns);
        // Energy: V·I·t for both pulses; AP-target pulses burn slightly more
        // (higher critical current sustained longer).
        // µW · ns = fJ, so V (V) × I (µA) × t (ns) is already femtojoules.
        let asym = if value { 1.014 } else { 1.0 };
        let energy_fj = self.circuit.v_write * (i_main + i_comp) * self.circuit.t_write_ns * asym;
        WriteSample {
            success: ok_main && ok_comp,
            current_ua: i_main.max(i_comp),
            energy_fj,
        }
    }

    /// Reads the cell through the complementary voltage divider.
    pub fn read(&self) -> ReadSample {
        let r_top = self.main.resistance();
        let r_bot = self.complement.resistance();
        let value_guess = self.stored();
        let r_pull = self.circuit.r_access
            * if value_guess {
                self.circuit.pull_asymmetry
            } else {
                1.0
            };
        let r_total = r_top + r_bot + r_pull;
        let current_a = self.circuit.v_read / r_total;
        // Midpoint between the two MTJs.
        let v_mid = self.circuit.v_read * (r_bot + r_pull / 2.0) / r_total;
        let margin = v_mid - self.circuit.v_read / 2.0;
        // main = AP (stored 1) ⇒ more resistance on top ⇒ midpoint low?
        // v_mid uses bottom share: stored 1 ⇒ r_top = R_AP ⇒ midpoint
        // pulled low ⇒ sense amp outputs 1 on the inverted rail. Map sign
        // to the stored convention:
        let value = margin < 0.0;
        let reliable = margin.abs() >= self.circuit.sense_threshold;
        let power_uw = self.circuit.v_read * current_a * 1e6;
        let energy_fj = power_uw * self.circuit.t_read_ns; // µW·ns = fJ
        ReadSample {
            value,
            v_mid,
            current_ua: current_a * 1e6,
            power_uw,
            energy_fj,
            reliable,
        }
    }

    /// Standby energy over `duration_ns` (aJ) — near zero thanks to
    /// non-volatility.
    pub fn standby_energy_aj(&self, duration_ns: f64) -> f64 {
        self.circuit.standby_nw * duration_ns
    }
}

#[cfg(test)]
impl ComplementaryCell {
    /// Whether the two devices hold opposite states (cell invariant).
    fn is_complementary(&self) -> bool {
        self.main.state() != self.complement.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut cell = ComplementaryCell::with_defaults();
        for v in [true, false, true, true, false] {
            let w = cell.write(v);
            assert!(w.success, "write {v}");
            assert!(cell.is_complementary());
            let r = cell.read();
            assert_eq!(r.value, v);
            assert!(r.reliable);
        }
    }

    #[test]
    fn read_current_is_data_independent() {
        // The series R_P + R_AP is identical for 0 and 1 — the paper's
        // P-SCA symmetry. Only the tiny pull-path asymmetry remains.
        let mut cell = ComplementaryCell::with_defaults();
        cell.write(false);
        let r0 = cell.read();
        cell.write(true);
        let r1 = cell.read();
        let rel = (r0.current_ua - r1.current_ua).abs() / r0.current_ua;
        assert!(rel < 0.005, "relative current asymmetry {rel}");
    }

    #[test]
    fn read_energy_near_paper_values() {
        // Table IV: read ≈ 12.5 fJ per LUT read. One cell divider carries
        // that read; allow a loose band (the LUT adds the select tree).
        let mut cell = ComplementaryCell::with_defaults();
        cell.write(false);
        let r = cell.read();
        assert!(
            r.energy_fj > 5.0 && r.energy_fj < 25.0,
            "read {} fJ",
            r.energy_fj
        );
    }

    #[test]
    fn write_energy_exceeds_read_energy() {
        let mut cell = ComplementaryCell::with_defaults();
        let w = cell.write(true);
        let r = cell.read();
        assert!(w.energy_fj > r.energy_fj);
    }

    #[test]
    fn standby_energy_is_attojoule_scale() {
        let cell = ComplementaryCell::with_defaults();
        let aj = cell.standby_energy_aj(1.0);
        assert!(aj > 0.001 && aj < 1000.0, "standby {aj} aJ");
    }

    #[test]
    fn sense_margin_is_wide() {
        let mut cell = ComplementaryCell::with_defaults();
        cell.write(true);
        let r = cell.read();
        // With TMR = 150 % the midpoint swings far from V/2.
        assert!((r.v_mid - cell.circuit().v_read / 2.0).abs() > 0.1);
    }

    #[test]
    fn degraded_device_reports_unreliable() {
        // Nearly-equal resistances (TMR collapse) ⇒ unreliable read.
        let weak = MtjParams {
            tmr: 0.001,
            ..MtjParams::default()
        };
        let cell = ComplementaryCell::new(weak.clone(), weak, CellCircuit::default());
        let r = cell.read();
        assert!(!r.reliable);
    }
}

//! Behavioural STT-MTJ device model.
//!
//! A Magnetic Tunnel Junction is two ferromagnetic layers around a thin
//! oxide barrier; the relative magnetization angle sets its resistance:
//! Parallel (P, low resistance) or Anti-Parallel (AP, high resistance).
//! Spin-Transfer-Torque switching flips the free layer when a bidirectional
//! charge current exceeds the critical current for long enough.
//!
//! Device parameters are adopted from the technology-agnostic STT-MRAM
//! model of Kim et al. (CICC 2015) that the paper uses (\[20\]); see
//! DESIGN.md §2 for the HSPICE → behavioural-model substitution note.

use std::fmt;

/// Magnetization state of an MTJ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MtjState {
    /// Parallel: low resistance, logic convention `0` resistance state.
    #[default]
    Parallel,
    /// Anti-parallel: high resistance.
    AntiParallel,
}

impl MtjState {
    /// The opposite state.
    pub fn flipped(self) -> MtjState {
        match self {
            MtjState::Parallel => MtjState::AntiParallel,
            MtjState::AntiParallel => MtjState::Parallel,
        }
    }
}

impl fmt::Display for MtjState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtjState::Parallel => f.write_str("P"),
            MtjState::AntiParallel => f.write_str("AP"),
        }
    }
}

/// Physical/electrical MTJ parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MtjParams {
    /// Free-layer diameter in nm (circular junction).
    pub diameter_nm: f64,
    /// Resistance-area product in Ω·µm².
    pub ra_ohm_um2: f64,
    /// Tunnel magneto-resistance ratio (1.5 = 150 %).
    pub tmr: f64,
    /// Critical switching current in µA (AP→P magnitude; P→AP scaled by
    /// the usual ~1.3 asymmetry factor internally).
    pub critical_current_ua: f64,
    /// Minimum switching pulse width in ns at the critical current.
    pub switch_time_ns: f64,
}

impl Default for MtjParams {
    fn default() -> MtjParams {
        MtjParams {
            diameter_nm: 40.0,
            ra_ohm_um2: 4.0,
            tmr: 1.5,
            critical_current_ua: 5.0,
            switch_time_ns: 0.45,
        }
    }
}

impl MtjParams {
    /// Junction area in µm².
    pub fn area_um2(&self) -> f64 {
        let r_um = self.diameter_nm / 2000.0;
        std::f64::consts::PI * r_um * r_um
    }

    /// Parallel-state resistance in Ω.
    pub fn r_parallel(&self) -> f64 {
        self.ra_ohm_um2 / self.area_um2()
    }

    /// Anti-parallel-state resistance in Ω.
    pub fn r_antiparallel(&self) -> f64 {
        self.r_parallel() * (1.0 + self.tmr)
    }
}

/// An STT-MTJ instance: parameters plus current magnetization state.
///
/// # Examples
///
/// ```
/// use ril_mram::mtj::{Mtj, MtjParams, MtjState};
///
/// let mut mtj = Mtj::new(MtjParams::default());
/// assert_eq!(mtj.state(), MtjState::Parallel);
/// let r_p = mtj.resistance();
/// // A strong, long-enough pulse switches it.
/// assert!(mtj.write(MtjState::AntiParallel, 90.0, 1.0));
/// assert!(mtj.resistance() > r_p);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mtj {
    params: MtjParams,
    state: MtjState,
}

impl Mtj {
    /// Creates an MTJ in the parallel state.
    pub fn new(params: MtjParams) -> Mtj {
        Mtj {
            params,
            state: MtjState::Parallel,
        }
    }

    /// Device parameters.
    pub fn params(&self) -> &MtjParams {
        &self.params
    }

    /// Current magnetization state.
    pub fn state(&self) -> MtjState {
        self.state
    }

    /// Forces the state (test/configuration helper; physical switching goes
    /// through [`Mtj::write`]).
    pub fn set_state(&mut self, state: MtjState) {
        self.state = state;
    }

    /// Present resistance in Ω.
    pub fn resistance(&self) -> f64 {
        match self.state {
            MtjState::Parallel => self.params.r_parallel(),
            MtjState::AntiParallel => self.params.r_antiparallel(),
        }
    }

    /// The critical current (µA) required to switch *into* `target`.
    /// P→AP switching needs ~1.3× the AP→P current (spin-torque
    /// asymmetry).
    pub fn critical_current_into(&self, target: MtjState) -> f64 {
        match target {
            MtjState::Parallel => self.params.critical_current_ua,
            MtjState::AntiParallel => self.params.critical_current_ua * 1.3,
        }
    }

    /// Attempts an STT write toward `target` with the given pulse
    /// (`current_ua` magnitude in µA, `duration_ns` in ns). Returns `true`
    /// if the device ends in `target`.
    ///
    /// The pulse succeeds when the current exceeds the critical current for
    /// `target` and the duration covers the (current-dependent) switching
    /// time `t_sw = t0 · Ic / (I − Ic) + t0` capped below by `t0`.
    pub fn write(&mut self, target: MtjState, current_ua: f64, duration_ns: f64) -> bool {
        if self.state == target {
            return true; // already there; redundant pulses are harmless
        }
        let ic = self.critical_current_into(target);
        if current_ua <= ic {
            return false;
        }
        let t0 = self.params.switch_time_ns;
        let overdrive = current_ua / ic - 1.0;
        let t_switch = t0 * (1.0 + 1.0 / overdrive).min(10.0);
        if duration_ns >= t_switch {
            self.state = target;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
impl MtjParams {
    /// Parameters of a Spin-Hall-Effect-assisted (SHE/SOT) device — the
    /// three-terminal alternative the paper's Section IV-E points to as a
    /// lower-write-energy successor to conventional STT cells: the write
    /// current flows through a low-resistance heavy-metal strap instead of
    /// the tunnel barrier, cutting the critical current and the switching
    /// time while read-path characteristics stay unchanged.
    fn she_assisted() -> MtjParams {
        MtjParams {
            critical_current_ua: 2.0,
            switch_time_ns: 0.2,
            ..MtjParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resistances_are_sane() {
        let p = MtjParams::default();
        let rp = p.r_parallel();
        let rap = p.r_antiparallel();
        assert!(rp > 1000.0 && rp < 10_000.0, "R_P = {rp}");
        assert!((rap / rp - (1.0 + p.tmr)).abs() < 1e-9);
    }

    #[test]
    fn state_tracks_resistance() {
        let mut mtj = Mtj::new(MtjParams::default());
        let rp = mtj.resistance();
        mtj.set_state(MtjState::AntiParallel);
        let rap = mtj.resistance();
        assert!(rap > rp);
        assert_eq!(mtj.state().flipped(), MtjState::Parallel);
    }

    #[test]
    fn weak_pulse_fails_to_switch() {
        let mut mtj = Mtj::new(MtjParams::default());
        assert!(!mtj.write(MtjState::AntiParallel, 4.0, 5.0));
        assert_eq!(mtj.state(), MtjState::Parallel);
    }

    #[test]
    fn short_pulse_fails_to_switch() {
        let mut mtj = Mtj::new(MtjParams::default());
        assert!(!mtj.write(MtjState::AntiParallel, 90.0, 0.05));
        assert_eq!(mtj.state(), MtjState::Parallel);
    }

    #[test]
    fn strong_long_pulse_switches_both_ways() {
        let mut mtj = Mtj::new(MtjParams::default());
        assert!(mtj.write(MtjState::AntiParallel, 120.0, 2.0));
        assert_eq!(mtj.state(), MtjState::AntiParallel);
        assert!(mtj.write(MtjState::Parallel, 120.0, 2.0));
        assert_eq!(mtj.state(), MtjState::Parallel);
    }

    #[test]
    fn p_to_ap_needs_more_current() {
        let mtj = Mtj::new(MtjParams::default());
        assert!(
            mtj.critical_current_into(MtjState::AntiParallel)
                > mtj.critical_current_into(MtjState::Parallel)
        );
    }

    #[test]
    fn redundant_write_succeeds_without_current() {
        let mut mtj = Mtj::new(MtjParams::default());
        assert!(mtj.write(MtjState::Parallel, 0.0, 0.0));
    }

    #[test]
    fn she_preset_switches_faster_at_lower_current() {
        let stt = MtjParams::default();
        let she = MtjParams::she_assisted();
        assert!(she.critical_current_ua < stt.critical_current_ua);
        assert!(she.switch_time_ns < stt.switch_time_ns);
        // Read path identical: same resistances.
        assert_eq!(she.r_parallel(), stt.r_parallel());
        // And a pulse too weak for STT switches the SHE device.
        let mut dev = Mtj::new(she);
        assert!(dev.write(MtjState::AntiParallel, 4.0, 2.0));
        assert_eq!(dev.state(), MtjState::AntiParallel);
    }

    #[test]
    fn display_states() {
        assert_eq!(MtjState::Parallel.to_string(), "P");
        assert_eq!(MtjState::AntiParallel.to_string(), "AP");
    }
}

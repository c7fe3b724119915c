use crate::corner::Corner;
use crate::mismatch::{MismatchDeltas, MismatchStream, Pelgrom};
use kato_mna::{lut_for, DeviceModel, MosModel, SquareLaw};

/// Which DC device-model backend a [`TechNode`] answers device queries
/// with. Part of the node card (and therefore of serving cache keys): the
/// same design evaluated under different backends yields different metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Closed-form EKV square-law model, evaluated directly. The reference
    /// model.
    #[default]
    SquareLaw,
    /// gm/ID lookup tables ([`kato_mna::DeviceLut`]) generated from the
    /// closed-form model per `(model, temperature, length-range)` on first
    /// use, trilinearly interpolated.
    Lut,
}

impl Backend {
    /// Parses the wire/CLI spelling (`"square_law"` or `"lut"`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "square_law" => Some(Backend::SquareLaw),
            "lut" => Some(Backend::Lut),
            _ => None,
        }
    }

    /// The wire/CLI spelling of this backend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::SquareLaw => "square_law",
            Backend::Lut => "lut",
        }
    }
}

/// Technology-node parameter card: the PDK substitute.
///
/// Two cards are provided, loosely modelled on textbook long-channel 180 nm
/// and short-channel 40 nm CMOS data. For the transfer-learning experiments
/// the exact values matter less than the qualitative relationships the real
/// nodes exhibit:
///
/// * 40 nm has a lower supply (1.1 V vs 1.8 V), lower `Vth`, higher `KP`,
///   and drastically worse channel-length modulation (lower intrinsic gain
///   per stage) — so optima shift but the design landscape stays correlated,
///   which is precisely the setting KAT-GP exploits.
#[derive(Debug, Clone, PartialEq)]
pub struct TechNode {
    /// Short display name ("180nm", "40nm").
    pub(crate) name: &'static str,
    /// Supply voltage, V.
    pub(crate) vdd: f64,
    /// NMOS model card.
    pub nmos: MosModel,
    /// PMOS model card.
    pub pmos: MosModel,
    /// Minimum channel length, m.
    pub(crate) l_min: f64,
    /// Maximum practical channel length for the sizing space, m.
    pub(crate) l_max: f64,
    /// Output load capacitance the amplifiers must drive, F.
    pub(crate) c_load: f64,
    /// Ambient temperature the testbenches evaluate at, °C. `27.0` on the
    /// nominal cards; `TechNode::at_corner` overrides it.
    pub temp_c: f64,
    /// Device-model backend the testbenches evaluate with.
    pub(crate) backend: Backend,
    /// Pelgrom local-mismatch coefficients of this node (see
    /// [`Pelgrom`]). Only consulted when a [`MismatchStream`] is
    /// attached; the nominal card evaluates unperturbed.
    pub(crate) pelgrom: Pelgrom,
    /// Monte-Carlo mismatch sample this card evaluates under, or `None`
    /// for the nominal (unperturbed) card. Attached via
    /// [`TechNode::with_mismatch`]; when present, every instance-routed
    /// device query (`mos_iv`, `mos_cgg`, `vgs_for_id`) is remapped by
    /// that device's Pelgrom draw.
    pub(crate) mismatch: Option<MismatchStream>,
}

impl TechNode {
    /// The 180 nm card (VDD = 1.8 V).
    #[must_use]
    pub fn n180() -> Self {
        TechNode {
            name: "180nm",
            vdd: 1.8,
            nmos: MosModel {
                kp: 170e-6,
                vth: 0.50,
                lambda_l: 0.02e-6,
                n_sub: 1.35,
                cox: 8.5e-3,
                vth_tc: -1.0e-3,
            },
            pmos: MosModel {
                kp: 60e-6,
                vth: 0.50,
                lambda_l: 0.04e-6,
                n_sub: 1.40,
                cox: 8.5e-3,
                vth_tc: -1.2e-3,
            },
            l_min: 0.18e-6,
            l_max: 2.0e-6,
            c_load: 5e-12,
            temp_c: 27.0,
            backend: Backend::SquareLaw,
            // Textbook 180 nm matching: A_Vth ≈ 5 mV·µm, A_KP ≈ 1 %·µm.
            pelgrom: Pelgrom {
                a_vth: 5e-9,
                a_kp: 1e-8,
            },
            mismatch: None,
        }
    }

    /// The 40 nm card (VDD = 1.1 V).
    #[must_use]
    pub fn n40() -> Self {
        TechNode {
            name: "40nm",
            vdd: 1.1,
            nmos: MosModel {
                kp: 420e-6,
                vth: 0.35,
                lambda_l: 0.055e-6,
                n_sub: 1.45,
                cox: 17e-3,
                vth_tc: -0.8e-3,
            },
            pmos: MosModel {
                kp: 190e-6,
                vth: 0.35,
                lambda_l: 0.085e-6,
                n_sub: 1.50,
                cox: 17e-3,
                vth_tc: -1.0e-3,
            },
            l_min: 0.04e-6,
            l_max: 0.6e-6,
            c_load: 5e-12,
            temp_c: 27.0,
            backend: Backend::SquareLaw,
            // Thinner oxide improves per-area matching (A_Vth ≈ 2.5 mV·µm),
            // but the far smaller minimum devices mean larger σ in practice.
            pelgrom: Pelgrom {
                a_vth: 2.5e-9,
                a_kp: 1.2e-8,
            },
            mismatch: None,
        }
    }

    /// Looks a nominal card up by its display name (`"180nm"`, `"40nm"`).
    #[must_use]
    pub(crate) fn by_name(name: &str) -> Option<Self> {
        match name {
            "180nm" => Some(TechNode::n180()),
            "40nm" => Some(TechNode::n40()),
            _ => None,
        }
    }

    /// This card shifted to a PVT corner: every MOS model's `KP` is scaled
    /// and `Vth` shifted per [`crate::corner::Process`], and the evaluation
    /// temperature is set to the corner's. The supply voltage and geometry
    /// limits are unchanged (supply corners are a testbench property, not a
    /// device-card one).
    #[must_use]
    pub(crate) fn at_corner(&self, corner: &Corner) -> Self {
        let shift = |m: &MosModel| MosModel {
            kp: m.kp * corner.process.kp_scale(),
            vth: m.vth + corner.process.vth_shift(),
            ..*m
        };
        TechNode {
            nmos: shift(&self.nmos),
            pmos: shift(&self.pmos),
            temp_c: corner.temp_c,
            ..self.clone()
        }
    }

    /// This card with a different device-model [`Backend`].
    #[must_use]
    pub(crate) fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// This card evaluating under Monte-Carlo mismatch sample `stream`:
    /// every instance-routed device query is remapped by the device's
    /// Pelgrom draw. Bitwise-deterministic: the perturbed card is a pure
    /// function of `(stream, device identity, geometry)`.
    #[must_use]
    pub fn with_mismatch(mut self, stream: MismatchStream) -> Self {
        self.mismatch = Some(stream);
        self
    }

    /// Polarity tag for the mismatch sub-stream: NMOS and PMOS devices of
    /// one sample draw independently, but the *same* physical device
    /// queried repeatedly sees one consistent draw.
    fn device_tag(&self, model: &MosModel) -> u64 {
        if *model == self.nmos {
            1
        } else if *model == self.pmos {
            2
        } else {
            // A model card that is neither polarity of this node (tests,
            // exotic callers): identify it by its own bit pattern.
            model.kp.to_bits() ^ model.vth.to_bits().rotate_left(17)
        }
    }

    /// The local-mismatch perturbation this card applies to queries of
    /// `model` at geometry `(w, l)` — no perturbation on nominal cards.
    /// Exposed so tests and wrappers can reason about the exact remap the
    /// routing below performs.
    #[must_use]
    pub fn local_deltas(&self, model: &MosModel, w: f64, l: f64) -> MismatchDeltas {
        match &self.mismatch {
            None => MismatchDeltas::none(),
            Some(stream) => stream.deltas(self.device_tag(model), w, l, &self.pelgrom),
        }
    }

    /// Runs `query` against the backend that answers for the *nominal*
    /// `model` on this card, at the card's temperature — the one backend
    /// dispatch every device query goes through. Mismatch remapping
    /// happens in the public queries around it.
    fn device<R>(&self, model: &MosModel, query: impl FnOnce(&dyn DeviceModel) -> R) -> R {
        match self.backend {
            Backend::SquareLaw => query(&SquareLaw::new(*model, self.temp_c)),
            Backend::Lut => query(&*lut_for(model, self.temp_c, self.l_min, self.l_max)),
        }
    }

    fn raw_iv(&self, model: &MosModel, w: f64, l: f64, vgs: f64, vds: f64) -> (f64, f64, f64) {
        self.device(model, |dev| dev.iv(w, l, vgs, vds))
    }

    /// Backend-routed `(id, gm, gds)` at bias `(vgs, vds)`, evaluated at
    /// the card's temperature.
    ///
    /// When a mismatch sample is attached, the device's Pelgrom draw is
    /// applied as an exact query remap: the model family depends on `vgs`
    /// only through `vgs − vth` and is linear in `KP`, so the perturbed
    /// answer is the nominal model queried at `vgs − ΔVth` with all three
    /// outputs scaled by the `KP` ratio — identical physics to perturbing
    /// the card, without generating per-sample LUTs.
    #[must_use]
    pub fn mos_iv(&self, model: &MosModel, w: f64, l: f64, vgs: f64, vds: f64) -> (f64, f64, f64) {
        if self.mismatch.is_none() {
            return self.raw_iv(model, w, l, vgs, vds);
        }
        let d = self.local_deltas(model, w, l);
        let (id, gm, gds) = self.raw_iv(model, w, l, vgs - d.dvth, vds);
        (id * d.kp_ratio, gm * d.kp_ratio, gds * d.kp_ratio)
    }

    /// Backend-routed total gate capacitance at gate bias `vgs`, F. A
    /// mismatch sample shifts the query by the device's ΔVth (`Cgg`
    /// depends on `vgs` only through `vgs − vth`; `KP` does not enter).
    #[must_use]
    pub(crate) fn mos_cgg(&self, model: &MosModel, w: f64, l: f64, vgs: f64) -> f64 {
        let vgs = vgs - self.local_deltas(model, w, l).dvth;
        self.device(model, |dev| dev.cgg(w, l, vgs))
    }

    /// Backend-routed operating-point inversion: the `vgs` at which the
    /// device carries `id_target`, clamped to the search bracket edge when
    /// the target is unreachable.
    ///
    /// Under mismatch the remap runs in reverse: solve the nominal model
    /// for `id_target / kp_ratio`, then shift the answer by `+ΔVth`.
    #[must_use]
    pub fn vgs_for_id(&self, model: &MosModel, w: f64, l: f64, vds: f64, id_target: f64) -> f64 {
        let d = self.local_deltas(model, w, l);
        let target = id_target / d.kp_ratio;
        self.device(model, |dev| dev.vgs_for_id(w, l, vds, target)) + d.dvth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_mna::DeviceError;

    #[test]
    fn node_cards_are_distinct_and_physical() {
        let n180 = TechNode::n180();
        let n40 = TechNode::n40();
        assert!(n40.vdd < n180.vdd);
        assert!(n40.nmos.vth < n180.nmos.vth);
        assert!(n40.nmos.kp > n180.nmos.kp);
        assert!(n40.l_min < n180.l_min);
        // Worse CLM per metre of length at the short node.
        assert!(n40.nmos.lambda_l > n180.nmos.lambda_l);
    }

    #[test]
    fn corner_cards_shift_as_specified() {
        use crate::corner::{Corner, Process};
        let nom = TechNode::n180();
        let ss_hot = nom.at_corner(&Corner::new(Process::Ss, 125.0));
        assert!(ss_hot.nmos.vth > nom.nmos.vth);
        assert!(ss_hot.nmos.kp < nom.nmos.kp);
        assert_eq!(ss_hot.temp_c, 125.0);
        assert_eq!(ss_hot.vdd, nom.vdd);
        let tt = nom.at_corner(&Corner::tt());
        assert_eq!(tt, nom);
    }

    #[test]
    fn by_name_finds_both_cards() {
        assert_eq!(TechNode::by_name("180nm").unwrap().name, "180nm");
        assert_eq!(TechNode::by_name("40nm").unwrap().name, "40nm");
        assert!(TechNode::by_name("7nm").is_none());
    }

    #[test]
    fn unreachable_vgs_inversion_errors_cleanly_and_clamps() {
        let sq = SquareLaw::new(TechNode::n180().nmos, 27.0);
        // 1 A through a tiny device: unreachable even at vgs = 3 V.
        let err = sq
            .try_vgs_for_id(1e-6, 1e-6, 0.9, 1.0)
            .expect_err("1 A must be unreachable");
        assert!(matches!(err, DeviceError::TargetAboveRange { .. }));
        assert!(!err.to_string().is_empty());
        // The infallible path clamps to the bracket edge.
        let vgs = sq.vgs_for_id(1e-6, 1e-6, 0.9, 1.0);
        assert_eq!(vgs, 3.0);
        // A target below leakage clamps to 0 V.
        let err = sq
            .try_vgs_for_id(1e-6, 1e-6, 0.9, 1e-30)
            .expect_err("below leakage");
        assert!(matches!(err, DeviceError::TargetBelowRange { .. }));
        assert_eq!(sq.vgs_for_id(1e-6, 1e-6, 0.9, 1e-30), 0.0);
    }

    #[test]
    fn backend_parses_and_defaults_to_square_law() {
        assert_eq!(Backend::parse("square_law"), Some(Backend::SquareLaw));
        assert_eq!(Backend::parse("lut"), Some(Backend::Lut));
        assert_eq!(Backend::parse("spice"), None);
        assert_eq!(Backend::default().name(), "square_law");
        let n = TechNode::n180();
        assert_eq!(n.backend, Backend::SquareLaw);
        let lut = n.clone().with_backend(Backend::Lut);
        assert_eq!(lut.backend, Backend::Lut);
        assert_ne!(lut, n);
        // Corner shifts preserve the selected backend.
        assert_eq!(
            lut.at_corner(&Corner::new(crate::corner::Process::Ss, 125.0))
                .backend,
            Backend::Lut
        );
    }

    #[test]
    fn lut_backend_tracks_square_law_closely() {
        let sq = TechNode::n180();
        let lut = sq.clone().with_backend(Backend::Lut);
        let (w, l, vds) = (20e-6, 0.5e-6, 0.9);
        for vgs in [0.4, 0.65, 0.9, 1.2] {
            let (id_s, gm_s, gds_s) = sq.mos_iv(&sq.nmos, w, l, vgs, vds);
            let (id_l, gm_l, gds_l) = lut.mos_iv(&lut.nmos, w, l, vgs, vds);
            assert!(
                (id_l - id_s).abs() <= 0.05 * id_s.abs() + 1e-9,
                "id @ {vgs}"
            );
            assert!(
                (gm_l - gm_s).abs() <= 0.05 * gm_s.abs() + 1e-9,
                "gm @ {vgs}"
            );
            assert!(
                (gds_l - gds_s).abs() <= 0.08 * gds_s.abs() + 1e-9,
                "gds @ {vgs}"
            );
        }
        // Inversion consistency: the LUT's vgs-for-id answers its own iv.
        let vgs = lut.vgs_for_id(&lut.nmos, w, l, vds, 50e-6);
        let (id, _, _) = lut.mos_iv(&lut.nmos, w, l, vgs, vds);
        assert!((id - 50e-6).abs() / 50e-6 < 1e-6, "lut id {id:.3e}");
    }

    #[test]
    fn mismatch_remap_matches_perturbed_model_card() {
        use crate::mismatch::MismatchStream;
        let nom = TechNode::n180();
        let card = nom.clone().with_mismatch(MismatchStream::from_key(99));
        let (w, l, vgs, vds) = (20e-6, 0.5e-6, 0.9, 0.9);
        let d = card.local_deltas(&card.nmos, w, l);
        assert!(d.dvth != 0.0 && d.kp_ratio != 1.0, "{d:?}");
        // The query remap must equal evaluating the explicitly perturbed
        // model card directly (same physics, different algebra → allow ulps).
        let (id_r, gm_r, gds_r) = card.mos_iv(&card.nmos, w, l, vgs, vds);
        let pert = card.nmos.perturbed(d.dvth, d.kp_ratio);
        let (id_p, gm_p, gds_p) = SquareLaw::new(pert, card.temp_c).iv(w, l, vgs, vds);
        assert!((id_r - id_p).abs() <= 1e-12 * id_p.abs(), "{id_r} {id_p}");
        assert!((gm_r - gm_p).abs() <= 1e-12 * gm_p.abs(), "{gm_r} {gm_p}");
        assert!(
            (gds_r - gds_p).abs() <= 1e-12 * gds_p.abs(),
            "{gds_r} {gds_p}"
        );
        // Inversion round-trips through the perturbed device.
        let vgs_inv = card.vgs_for_id(&card.nmos, w, l, vds, 50e-6);
        let (id, _, _) = card.mos_iv(&card.nmos, w, l, vgs_inv, vds);
        assert!((id - 50e-6).abs() / 50e-6 < 1e-3, "{id:.3e}");
        // The nominal card is untouched.
        let (id_n, _, _) = nom.mos_iv(&nom.nmos, w, l, vgs, vds);
        assert_ne!(id_r, id_n);
        assert_eq!(nom.local_deltas(&nom.nmos, w, l), MismatchDeltas::none());
    }

    #[test]
    fn mismatch_survives_corner_shift_and_lut_backend() {
        use crate::corner::{Corner, Process};
        use crate::mismatch::MismatchStream;
        let stream = MismatchStream::from_key(3);
        let card = TechNode::n180().with_mismatch(stream);
        let at_ss = card.at_corner(&Corner::new(Process::Ss, 125.0));
        assert_eq!(at_ss.mismatch, Some(stream));
        assert_eq!(at_ss.pelgrom, card.pelgrom);
        // The LUT backend applies the same remap around its nominal table:
        // close to the square-law answer, and != its own nominal answer.
        let lut = card.clone().with_backend(Backend::Lut);
        let (w, l, vgs, vds) = (20e-6, 0.5e-6, 0.9, 0.9);
        let (id_sq, _, _) = card.mos_iv(&card.nmos, w, l, vgs, vds);
        let (id_lut, _, _) = lut.mos_iv(&lut.nmos, w, l, vgs, vds);
        assert!(
            (id_lut - id_sq).abs() <= 0.05 * id_sq.abs(),
            "{id_lut} {id_sq}"
        );
        let nominal_lut = TechNode::n180().with_backend(Backend::Lut);
        let (id_lut_nom, _, _) = nominal_lut.mos_iv(&nominal_lut.nmos, w, l, vgs, vds);
        assert_ne!(id_lut, id_lut_nom);
    }

    #[test]
    fn vgs_inversion_matches_forward_model() {
        let n = TechNode::n180();
        let sq = SquareLaw::new(n.nmos, 27.0);
        let vgs = sq.vgs_for_id(20e-6, 0.5e-6, 0.9, 50e-6);
        let (id, _, _) = sq.iv(20e-6, 0.5e-6, vgs, 0.9);
        assert!((id - 50e-6).abs() / 50e-6 < 1e-3, "id {id:.3e}");
        assert!(vgs > n.nmos.vth, "should be above threshold for 50 µA");
    }
}

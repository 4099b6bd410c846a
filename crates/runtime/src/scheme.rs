//! What a code contributes to the query path.
//!
//! The protocol of paper Sec. II-D — preprocess, distribute, compute,
//! recover — is one flow, written once in [`Cluster`](crate::Cluster).
//! The codes it can run differ in three things only, and [`CodeScheme`]
//! is exactly those three:
//!
//! | scheme (`S`) | share layout | sufficiency rule | decoder | result |
//! |---|---|---|---|---|
//! | [`CodeDesign`] (base, Eq. 8) | plain [`DeviceShare`], rows in device order | every enrolled device | `m` subtractions | `Vector<F>` |
//! | [`StragglerCode`] | [`StragglerShare`], rows carry global tags | any devices covering `m + r` rows | subtractions if all base rows came, else one solve | [`QuorumResult`] |
//! | [`TPrivateCode`] | plain [`DeviceShare`] carrying the `t`-private payload | every enrolled device | mixer solve + `m` corrections | `Vector<F>` |
//!
//! A new code — a rateless "decode from any sufficient set" code, a
//! tunable-load polynomial code — is one more impl here, not one more
//! cluster.

use scec_coding::{
    decode, CodeDesign, DeviceShare, StragglerCode, StragglerShare, TPrivateCode, TaggedResponse,
};
use scec_linalg::{Matrix, Scalar, Vector};

use crate::error::Result;
use crate::message::ToDevice;

mod sealed {
    pub trait Sealed {}
    impl Sealed for scec_coding::CodeDesign {}
    impl<F> Sealed for scec_coding::StragglerCode<F> {}
    impl<F> Sealed for scec_coding::TPrivateCode<F> {}
}

/// The part of the query path that depends on the code: how a share is
/// installed, which sets of answers suffice, how they decode, and what a
/// finished query hands back. Everything else — launch, broadcast,
/// collect, accounting, spans, deadlines, shutdown — is
/// [`Cluster`](crate::Cluster)'s and is shared by every scheme.
///
/// Sealed: the three impls in this module are the schemes the runtime
/// serves.
pub trait CodeScheme<F: Scalar>: sealed::Sealed {
    /// One device's share, as the scheme's encoder hands it out.
    type Share;
    /// What a finished vector query returns.
    type Output;
    /// The `cluster` label on this scheme's metrics.
    const LABEL: &'static str;

    /// The (1-based) device a share is for.
    fn device(share: &Self::Share) -> usize;

    /// The coded rows the share holds (`rows × l`).
    fn coded(share: &Self::Share) -> &Matrix<F>;

    /// The message that installs the share on its device.
    fn install(share: Self::Share) -> ToDevice<F>;

    /// The progress a collect must reach before decoding, on a roster
    /// of `devices`. The default is the all-responses rule: every
    /// enrolled device.
    fn needed(&self, devices: usize) -> usize {
        devices
    }

    /// How far one device's answer advances a collect toward
    /// [`needed`](Self::needed): the answer carries `rows` values (or
    /// panel rows), tagged with the global row indices `tags` — empty
    /// from an untagged share. `None` when no share of this scheme
    /// answers in that shape. The default is the all-responses rule: an
    /// untagged answer counts its device once.
    fn progress(tags: &[usize], _rows: usize) -> Option<usize> {
        tags.is_empty().then_some(1)
    }

    /// Decodes `y = A·x` from the answers that sufficed, stacked in
    /// roster order (`tags[i]` tagging `stacked[i]` when the scheme tags
    /// rows).
    ///
    /// # Errors
    ///
    /// The decoder's, wrapped in [`Error::Coding`](crate::Error::Coding).
    fn decode(&self, tags: &[usize], stacked: &Vector<F>) -> Result<Vector<F>>;

    /// [`decode`](Self::decode) for a panel: `stacked` holds one row per
    /// answered coded row and one column per query.
    ///
    /// # Errors
    ///
    /// The decoder's, wrapped in [`Error::Coding`](crate::Error::Coding).
    fn decode_panel(&self, tags: &[usize], stacked: &Matrix<F>) -> Result<Matrix<F>>;

    /// Wraps a decoded vector with what the collect observed: the
    /// devices whose answers were used, in arrival order, and how many
    /// enrolled devices were not waited for.
    fn output(value: Vector<F>, responders: Vec<usize>, left_behind: usize) -> Self::Output;
}

/// A decoded result plus completion statistics.
#[derive(Clone, PartialEq)]
pub struct QuorumResult<F> {
    /// The recovered `y = Ax`.
    pub value: Vector<F>,
    /// Devices whose responses were used (arrival order).
    pub responders: Vec<usize>,
    /// Devices still outstanding when decoding succeeded.
    pub stragglers_left_behind: usize,
}

impl<F: Scalar> std::fmt::Debug for QuorumResult<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumResult")
            .field("value", &self.value)
            .field("responders", &self.responders)
            .field("stragglers_left_behind", &self.stragglers_left_behind)
            .finish()
    }
}

/// The base protocol: Eq.-(8) shares, all responses, `m` subtractions.
impl<F: Scalar> CodeScheme<F> for CodeDesign {
    type Share = DeviceShare<F>;
    type Output = Vector<F>;
    const LABEL: &'static str = "local";

    fn device(share: &DeviceShare<F>) -> usize {
        share.device()
    }

    fn coded(share: &DeviceShare<F>) -> &Matrix<F> {
        share.coded()
    }

    fn install(share: DeviceShare<F>) -> ToDevice<F> {
        ToDevice::Install(Box::new(share))
    }

    fn decode(&self, _tags: &[usize], stacked: &Vector<F>) -> Result<Vector<F>> {
        Ok(decode::decode_fast(self, stacked)?)
    }

    fn decode_panel(&self, _tags: &[usize], stacked: &Matrix<F>) -> Result<Matrix<F>> {
        Ok(decode::decode_fast_batch(self, stacked)?)
    }

    fn output(value: Vector<F>, _responders: Vec<usize>, _left_behind: usize) -> Vector<F> {
        value
    }
}

/// The straggler-tolerant protocol: tagged shares (base + standby), any
/// `m + r` rows, slow devices left behind.
impl<F: Scalar> CodeScheme<F> for StragglerCode<F> {
    type Share = StragglerShare<F>;
    type Output = QuorumResult<F>;
    const LABEL: &'static str = "straggler";

    fn device(share: &StragglerShare<F>) -> usize {
        share.device()
    }

    fn coded(share: &StragglerShare<F>) -> &Matrix<F> {
        share.coded()
    }

    fn install(share: StragglerShare<F>) -> ToDevice<F> {
        ToDevice::InstallTagged(Box::new(share))
    }

    fn needed(&self, _devices: usize) -> usize {
        self.rows_needed()
    }

    fn progress(tags: &[usize], rows: usize) -> Option<usize> {
        (rows > 0 && tags.len() == rows).then_some(rows)
    }

    fn decode(&self, tags: &[usize], stacked: &Vector<F>) -> Result<Vector<F>> {
        let responses: Vec<TaggedResponse<F>> = tags
            .iter()
            .zip(stacked.as_slice())
            .map(|(&row, &value)| TaggedResponse { row, value })
            .collect();
        Ok(StragglerCode::decode(self, &responses)?)
    }

    fn decode_panel(&self, tags: &[usize], stacked: &Matrix<F>) -> Result<Matrix<F>> {
        Ok(StragglerCode::decode_panel(self, tags, stacked)?)
    }

    fn output(value: Vector<F>, responders: Vec<usize>, left_behind: usize) -> QuorumResult<F> {
        QuorumResult {
            value,
            responders,
            stragglers_left_behind: left_behind,
        }
    }
}

/// The collusion-resistant protocol. Devices are code-agnostic, so a
/// `t`-private share ships in the plain container and the scheme differs
/// from the base one only in its decoder: an LU-amortized mixer solve
/// plus `m` blinding corrections instead of `m` subtractions.
impl<F: Scalar> CodeScheme<F> for TPrivateCode<F> {
    type Share = DeviceShare<F>;
    type Output = Vector<F>;
    const LABEL: &'static str = "tprivate";

    fn device(share: &DeviceShare<F>) -> usize {
        share.device()
    }

    fn coded(share: &DeviceShare<F>) -> &Matrix<F> {
        share.coded()
    }

    fn install(share: DeviceShare<F>) -> ToDevice<F> {
        ToDevice::Install(Box::new(share))
    }

    fn decode(&self, _tags: &[usize], stacked: &Vector<F>) -> Result<Vector<F>> {
        Ok(TPrivateCode::decode(self, stacked)?)
    }

    fn decode_panel(&self, _tags: &[usize], stacked: &Matrix<F>) -> Result<Matrix<F>> {
        Ok(TPrivateCode::decode_panel(self, stacked)?)
    }

    fn output(value: Vector<F>, _responders: Vec<usize>, _left_behind: usize) -> Vector<F> {
        value
    }
}

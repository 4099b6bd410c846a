//! Wire-format implementations for coding-layer types.
//!
//! With these, a cloud can serialize each device's share and ship it over
//! any byte transport; devices deserialize, verify shapes, and serve
//! queries. See [`scec_wire`] for the codec itself.

use scec_linalg::{Matrix, Scalar, Vector};
use scec_wire::{Error as WireError, Reader, Result as WireResult, WireDecode, WireEncode};

use crate::collusion::TPrivateCode;
use crate::design::CodeDesign;
use crate::encode::DeviceShare;
use crate::straggler::{StragglerCode, StragglerShare, TaggedResponse};

/// A single query broadcast: one `l`-vector under a correlation id.
/// Framed with [`scec_wire::tag::QUERY`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMsg<F: Scalar> {
    /// Correlation id matching partials back to this query.
    pub request: u64,
    /// The query vector `x` (length `l`).
    pub query: Vector<F>,
}

/// A device's partial result for one query: its block of `B_j T x`.
/// Framed with [`scec_wire::tag::PARTIAL`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartialMsg<F: Scalar> {
    /// Correlation id of the query this answers.
    pub request: u64,
    /// 1-based device index of the responder.
    pub device: usize,
    /// The device's partial product rows.
    pub value: Vector<F>,
}

/// A device-side failure report: the networked analogue of an
/// in-process failure response, so collectors can distinguish "device
/// declined" from "link went quiet". Framed with
/// [`scec_wire::tag::FAILURE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureMsg {
    /// Correlation id of the request that failed.
    pub request: u64,
    /// 1-based device index of the reporter.
    pub device: usize,
    /// Numeric reason code (transport-defined).
    pub reason: u64,
}

/// Connection handshake: binds a socket to one `(tenant, device)` pair
/// so subsequent frames need no per-message routing fields. Framed with
/// [`scec_wire::tag::HELLO`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloMsg {
    /// Tenant id the connection serves.
    pub tenant: u64,
    /// 1-based device index within that tenant's fleet.
    pub device: usize,
}

/// A batched multi-query panel broadcast: `k` query columns stacked into
/// one `l × k` matrix, shipped under a single request id so every device
/// answers the whole window with one matmul. Framed with
/// [`scec_wire::tag::QUERY_PANEL`].
#[derive(Debug, Clone, PartialEq)]
pub struct PanelQueryMsg<F: Scalar> {
    /// Correlation id matching partials back to this panel.
    pub request: u64,
    /// The `l × k` panel of query columns.
    pub panel: Matrix<F>,
}

/// A device's partial result for a whole panel: a `rows × k` value block,
/// optionally tagged with global row indices for straggler-tolerant
/// assembly. Framed with [`scec_wire::tag::PANEL_PARTIAL`].
///
/// `rows` is either empty — a plain block partial whose rows are
/// assembled in device order — or exactly one global row index per value
/// row, letting the collector build the decode system without trusting
/// response order.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelPartialMsg<F: Scalar> {
    /// Correlation id of the panel this answers.
    pub request: u64,
    /// 1-based device index of the responder.
    pub device: usize,
    /// Global row tags (empty for untagged block partials).
    pub rows: Vec<usize>,
    /// The `rows × k` block of partial products.
    pub values: Matrix<F>,
}

impl<F: Scalar + WireEncode> WireEncode for QueryMsg<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request.encode(out);
        self.query.encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for QueryMsg<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let request = u64::decode(r)?;
        let query = Vector::<F>::decode(r)?;
        if query.is_empty() {
            return Err(WireError::Malformed("query must carry elements"));
        }
        Ok(QueryMsg { request, query })
    }
}

impl<F: Scalar + WireEncode> WireEncode for PartialMsg<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request.encode(out);
        self.device.encode(out);
        self.value.encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for PartialMsg<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let request = u64::decode(r)?;
        let device = usize::decode(r)?;
        let value = Vector::<F>::decode(r)?;
        if device == 0 {
            return Err(WireError::Malformed("device index must be 1-based"));
        }
        Ok(PartialMsg {
            request,
            device,
            value,
        })
    }
}

impl WireEncode for FailureMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request.encode(out);
        self.device.encode(out);
        self.reason.encode(out);
    }
}

impl WireDecode for FailureMsg {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let request = u64::decode(r)?;
        let device = usize::decode(r)?;
        let reason = u64::decode(r)?;
        if device == 0 {
            return Err(WireError::Malformed("device index must be 1-based"));
        }
        Ok(FailureMsg {
            request,
            device,
            reason,
        })
    }
}

impl WireEncode for HelloMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tenant.encode(out);
        self.device.encode(out);
    }
}

impl WireDecode for HelloMsg {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let tenant = u64::decode(r)?;
        let device = usize::decode(r)?;
        if device == 0 {
            return Err(WireError::Malformed("device index must be 1-based"));
        }
        Ok(HelloMsg { tenant, device })
    }
}

impl<F: Scalar + WireEncode> WireEncode for PanelQueryMsg<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request.encode(out);
        self.panel.encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for PanelQueryMsg<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let request = u64::decode(r)?;
        let panel = Matrix::<F>::decode(r)?;
        if panel.ncols() == 0 {
            return Err(WireError::Malformed("panel must carry at least one query"));
        }
        Ok(PanelQueryMsg { request, panel })
    }
}

impl<F: Scalar + WireEncode> WireEncode for PanelPartialMsg<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request.encode(out);
        self.device.encode(out);
        self.rows.encode(out);
        self.values.encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for PanelPartialMsg<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let request = u64::decode(r)?;
        let device = usize::decode(r)?;
        let rows = Vec::<usize>::decode(r)?;
        let values = Matrix::<F>::decode(r)?;
        if device == 0 {
            return Err(WireError::Malformed("device index must be 1-based"));
        }
        if !rows.is_empty() && rows.len() != values.nrows() {
            return Err(WireError::Malformed(
                "row tags do not match panel partial rows",
            ));
        }
        Ok(PanelPartialMsg {
            request,
            device,
            rows,
            values,
        })
    }
}

impl WireEncode for CodeDesign {
    fn encode(&self, out: &mut Vec<u8>) {
        self.data_rows().encode(out);
        self.random_rows().encode(out);
    }
}

impl WireDecode for CodeDesign {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let m = usize::decode(r)?;
        let rr = usize::decode(r)?;
        CodeDesign::new(m, rr).map_err(|_| WireError::Malformed("invalid code design parameters"))
    }
}

impl<F: Scalar + WireEncode> WireEncode for DeviceShare<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.device().encode(out);
        self.first_row().encode(out);
        self.coded().encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for DeviceShare<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let device = usize::decode(r)?;
        let first_row = usize::decode(r)?;
        let coded = Matrix::<F>::decode(r)?;
        if device == 0 {
            return Err(WireError::Malformed("device index must be 1-based"));
        }
        Ok(DeviceShare::from_parts(device, first_row, coded))
    }
}

impl<F: Scalar + WireEncode> WireEncode for StragglerCode<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.base().encode(out);
        self.extension().encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for StragglerCode<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let base = CodeDesign::decode(r)?;
        let extension = Matrix::<F>::decode(r)?;
        StragglerCode::from_parts(base, extension)
            .map_err(|_| WireError::Malformed("invalid straggler extension"))
    }
}

impl<F: Scalar + WireEncode> WireEncode for StragglerShare<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.device().encode(out);
        self.rows().len().encode(out);
        usize::encode_many(self.rows(), out);
        self.coded().encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for StragglerShare<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let device = usize::decode(r)?;
        let rows = Vec::<usize>::decode(r)?;
        let coded = Matrix::<F>::decode(r)?;
        if device == 0 {
            return Err(WireError::Malformed("device index must be 1-based"));
        }
        StragglerShare::from_parts(device, rows, coded)
            .map_err(|_| WireError::Malformed("row tags do not match payload rows"))
    }
}

impl<F: Scalar + WireEncode> WireEncode for TPrivateCode<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.data_rows().encode(out);
        self.threshold().encode(out);
        self.load_cap().encode(out);
        self.data_coeffs().encode(out);
        self.noise_mixer().encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for TPrivateCode<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let m = usize::decode(r)?;
        let t = usize::decode(r)?;
        let v = usize::decode(r)?;
        let data_coeffs = Matrix::<F>::decode(r)?;
        let noise_mixer = Matrix::<F>::decode(r)?;
        TPrivateCode::from_parts(m, t, v, data_coeffs, noise_mixer)
            .map_err(|_| WireError::Malformed("invalid t-private code parameters"))
    }
}

impl<F: Scalar + WireEncode> WireEncode for TaggedResponse<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.row.encode(out);
        self.value.encode(out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for TaggedResponse<F> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(TaggedResponse {
            row: usize::decode(r)?,
            value: F::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::{Fp61, Vector};
    use scec_wire::{decode_framed, encode_framed, tag};

    #[test]
    fn code_design_roundtrips() {
        let d = CodeDesign::new(7, 3).unwrap();
        let back = CodeDesign::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(d, back);
        // Invalid parameters are rejected at decode time.
        let mut bytes = Vec::new();
        0usize.encode(&mut bytes);
        1usize.encode(&mut bytes);
        assert!(CodeDesign::from_bytes(&bytes).is_err());
    }

    #[test]
    fn device_share_ships_and_still_computes() {
        let mut rng = StdRng::seed_from_u64(1);
        let design = CodeDesign::new(5, 2).unwrap();
        let a = Matrix::<Fp61>::random(5, 4, &mut rng);
        let store = Encoder::new(design).encode(&a, &mut rng).unwrap();
        let x = Vector::<Fp61>::random(4, &mut rng);
        for share in store.shares() {
            let frame = encode_framed(share, tag::DEVICE_SHARE);
            let back: DeviceShare<Fp61> = decode_framed(&frame, tag::DEVICE_SHARE).unwrap();
            assert_eq!(&back, share);
            assert_eq!(back.compute(&x).unwrap(), share.compute(&x).unwrap());
        }
    }

    #[test]
    fn zero_device_index_is_rejected() {
        let mut bytes = Vec::new();
        0usize.encode(&mut bytes); // device 0: invalid
        0usize.encode(&mut bytes);
        Matrix::<Fp61>::identity(2).encode(&mut bytes);
        assert!(DeviceShare::<Fp61>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn straggler_share_roundtrips() {
        use crate::straggler::StragglerCode;
        let mut rng = StdRng::seed_from_u64(3);
        let base = CodeDesign::new(5, 2).unwrap();
        let code = StragglerCode::<Fp61>::new(base, 3, &mut rng).unwrap();
        let a = Matrix::<Fp61>::random(5, 3, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        for share in store.shares() {
            let frame = encode_framed(share, tag::STRAGGLER_SHARE);
            let back: StragglerShare<Fp61> = decode_framed(&frame, tag::STRAGGLER_SHARE).unwrap();
            assert_eq!(&back, share);
        }
        // Mismatched tag counts are rejected.
        let mut bytes = Vec::new();
        1usize.encode(&mut bytes);
        vec![0usize, 1, 2].encode(&mut bytes); // 3 tags
        Matrix::<Fp61>::identity(2).encode(&mut bytes); // 2 rows
        assert!(StragglerShare::<Fp61>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn t_private_code_roundtrips_and_revalidates() {
        let mut rng = StdRng::seed_from_u64(13);
        let code = TPrivateCode::<Fp61>::new(5, 2, 2, &mut rng).unwrap();
        let back = TPrivateCode::<Fp61>::from_bytes(&code.to_bytes()).unwrap();
        assert_eq!(back.data_rows(), 5);
        assert_eq!(back.threshold(), 2);
        assert_eq!(back.data_coeffs(), code.data_coeffs());
        assert_eq!(back.noise_mixer(), code.noise_mixer());
        // The rebuilt code decodes identically.
        let a = Matrix::<Fp61>::random(5, 3, &mut rng);
        let x = Vector::<Fp61>::random(3, &mut rng);
        let store = code.encode(&a, &mut rng).unwrap();
        let mut btx = Vec::new();
        for share in store.shares() {
            btx.extend(share.compute(&x).unwrap().into_vec());
        }
        let btx = Vector::from_vec(btx);
        assert_eq!(back.decode(&btx).unwrap(), code.decode(&btx).unwrap());
        // A singular mixer is rejected on decode.
        let mut bytes = Vec::new();
        5usize.encode(&mut bytes);
        2usize.encode(&mut bytes);
        2usize.encode(&mut bytes);
        Matrix::<Fp61>::zeros(5, 4).encode(&mut bytes);
        Matrix::<Fp61>::zeros(4, 4).encode(&mut bytes); // singular
        assert!(TPrivateCode::<Fp61>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn straggler_code_roundtrips_and_revalidates() {
        use crate::straggler::StragglerCode;
        let mut rng = StdRng::seed_from_u64(9);
        let base = CodeDesign::new(6, 3).unwrap();
        let code = StragglerCode::<Fp61>::new(base.clone(), 4, &mut rng).unwrap();
        let back = StragglerCode::<Fp61>::from_bytes(&code.to_bytes()).unwrap();
        assert_eq!(back.base(), code.base());
        assert_eq!(back.extension(), code.extension());
        // A zeroed extension row is a pure-zero block — allowed by the
        // span check — but a DATA-aligned extension must be rejected.
        let mut evil = Matrix::<Fp61>::zeros(2, base.total_rows());
        evil.set(0, 0, Fp61::new(1)).unwrap(); // pure data row A_0
        let mut bytes = Vec::new();
        base.encode(&mut bytes);
        evil.encode(&mut bytes);
        assert!(StragglerCode::<Fp61>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn panel_messages_roundtrip_and_validate() {
        let mut rng = StdRng::seed_from_u64(17);
        let query = PanelQueryMsg {
            request: 42,
            panel: Matrix::<Fp61>::random(4, 3, &mut rng),
        };
        let frame = encode_framed(&query, tag::QUERY_PANEL);
        let back: PanelQueryMsg<Fp61> = decode_framed(&frame, tag::QUERY_PANEL).unwrap();
        assert_eq!(back, query);
        // A panel frame is not accepted under the single-query tag.
        assert!(decode_framed::<PanelQueryMsg<Fp61>>(&frame, tag::QUERY).is_err());
        // Zero-width panels are rejected: the frame must carry work.
        let empty = PanelQueryMsg {
            request: 1,
            panel: Matrix::<Fp61>::zeros(4, 0),
        };
        assert!(PanelQueryMsg::<Fp61>::from_bytes(&empty.to_bytes()).is_err());

        // Tagged partial: one global row index per value row.
        let partial = PanelPartialMsg {
            request: 42,
            device: 2,
            rows: vec![0, 5],
            values: Matrix::<Fp61>::random(2, 3, &mut rng),
        };
        let frame = encode_framed(&partial, tag::PANEL_PARTIAL);
        let back: PanelPartialMsg<Fp61> = decode_framed(&frame, tag::PANEL_PARTIAL).unwrap();
        assert_eq!(back, partial);
        // Untagged block partial: empty row tags are allowed.
        let block = PanelPartialMsg {
            request: 42,
            device: 1,
            rows: vec![],
            values: Matrix::<Fp61>::random(3, 3, &mut rng),
        };
        assert_eq!(
            PanelPartialMsg::<Fp61>::from_bytes(&block.to_bytes()).unwrap(),
            block
        );
        // Tag-count mismatch and zero device index are rejected.
        let mut bytes = Vec::new();
        42u64.encode(&mut bytes);
        2usize.encode(&mut bytes);
        vec![0usize, 1, 2].encode(&mut bytes); // 3 tags
        Matrix::<Fp61>::identity(2).encode(&mut bytes); // 2 rows
        assert!(PanelPartialMsg::<Fp61>::from_bytes(&bytes).is_err());
        let mut bytes = Vec::new();
        42u64.encode(&mut bytes);
        0usize.encode(&mut bytes); // device 0: invalid
        Vec::<usize>::new().encode(&mut bytes);
        Matrix::<Fp61>::identity(2).encode(&mut bytes);
        assert!(PanelPartialMsg::<Fp61>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn serving_messages_roundtrip_and_validate() {
        let mut rng = StdRng::seed_from_u64(23);
        let query = QueryMsg {
            request: 7,
            query: Vector::<Fp61>::random(5, &mut rng),
        };
        let frame = encode_framed(&query, tag::QUERY);
        assert_eq!(
            decode_framed::<QueryMsg<Fp61>>(&frame, tag::QUERY).unwrap(),
            query
        );
        // Empty queries carry no work and are rejected.
        let empty = QueryMsg {
            request: 7,
            query: Vector::<Fp61>::from_vec(vec![]),
        };
        assert!(QueryMsg::<Fp61>::from_bytes(&empty.to_bytes()).is_err());

        let partial = PartialMsg {
            request: 7,
            device: 3,
            value: Vector::<Fp61>::random(2, &mut rng),
        };
        let frame = encode_framed(&partial, tag::PARTIAL);
        assert_eq!(
            decode_framed::<PartialMsg<Fp61>>(&frame, tag::PARTIAL).unwrap(),
            partial
        );

        let failure = FailureMsg {
            request: 7,
            device: 3,
            reason: 2,
        };
        let frame = encode_framed(&failure, tag::FAILURE);
        assert_eq!(
            decode_framed::<FailureMsg>(&frame, tag::FAILURE).unwrap(),
            failure
        );

        let hello = HelloMsg {
            tenant: 12,
            device: 1,
        };
        let frame = encode_framed(&hello, tag::HELLO);
        assert_eq!(
            decode_framed::<HelloMsg>(&frame, tag::HELLO).unwrap(),
            hello
        );

        // Zero device indexes are rejected across the serving messages.
        let mut bytes = Vec::new();
        7u64.encode(&mut bytes);
        0usize.encode(&mut bytes);
        Vector::<Fp61>::random(2, &mut rng).encode(&mut bytes);
        assert!(PartialMsg::<Fp61>::from_bytes(&bytes).is_err());
        let mut bytes = Vec::new();
        7u64.encode(&mut bytes);
        0usize.encode(&mut bytes);
        2u64.encode(&mut bytes);
        assert!(FailureMsg::from_bytes(&bytes).is_err());
        let mut bytes = Vec::new();
        12u64.encode(&mut bytes);
        0usize.encode(&mut bytes);
        assert!(HelloMsg::from_bytes(&bytes).is_err());
    }

    #[test]
    fn tagged_responses_roundtrip() {
        let resp = TaggedResponse {
            row: 9,
            value: Fp61::new(12345),
        };
        let back = TaggedResponse::<Fp61>::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(back, resp);
        let many = vec![resp; 4];
        assert_eq!(
            Vec::<TaggedResponse<Fp61>>::from_bytes(&many.to_bytes()).unwrap(),
            many
        );
    }
}

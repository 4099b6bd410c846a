//! The typed wire protocol between the user and device actors.
//!
//! Messages are in-memory (`std::sync::mpsc` channels), but the shapes
//! mirror what a networked deployment would serialize: the user never
//! sends a device anything but its own share and blinded queries, and
//! devices never return anything but computed values.

use std::sync::Arc;

use scec_coding::{DeviceShare, StragglerShare, TaggedResponse};
use scec_linalg::{Matrix, Vector};
use scec_telemetry::TraceContext;

/// Messages from the user/cloud to an edge device.
#[derive(Clone)]
pub enum ToDevice<F> {
    /// Install (or replace) the device's coded share.
    Install(Box<DeviceShare<F>>),
    /// Install a straggler-tolerant tagged share.
    InstallTagged(Box<StragglerShare<F>>),
    /// Compute `B_j T · x` for the query with this correlation id.
    ///
    /// The payload is `Arc`-shared: a `k`-device broadcast clones one
    /// pointer per device instead of deep-copying `x` `k` times. (A
    /// networked transport would serialize per device anyway; in-memory,
    /// the share is free and the query stream is broadcast-bound.)
    Query {
        /// Correlation id echoed in the response.
        request: u64,
        /// The input vector, shared across the fan-out.
        x: Arc<Vector<F>>,
        /// Distributed-tracing context for this dispatch, if the cluster
        /// traces this tenant. `None` keeps the pre-tracing wire framing
        /// byte-identical.
        ctx: Option<TraceContext>,
    },
    /// Compute `B_j T · X` for a whole batch of query columns.
    QueryBatch {
        /// Correlation id echoed in the response.
        request: u64,
        /// The `l × n` matrix of query columns, shared across the fan-out.
        xs: Arc<Matrix<F>>,
        /// Distributed-tracing context for this dispatch, if traced.
        ctx: Option<TraceContext>,
    },
    /// Attach a telemetry handle: the actor starts recording per-query
    /// compute spans against it. (A networked deployment would ship an
    /// exporter endpoint instead of a shared handle.)
    Instrument(Arc<scec_telemetry::Telemetry>),
    /// Terminate the device thread.
    Shutdown,
}

/// Messages from an edge device back to the user.
#[derive(Clone)]
pub enum FromDevice<F> {
    /// A computed partial for a plain share.
    Partial {
        /// Correlation id of the query.
        request: u64,
        /// The responding device (1-based).
        device: usize,
        /// The values `B_j T · x`.
        values: Vector<F>,
    },
    /// A computed batch partial (`B_j T · X`).
    BatchPartial {
        /// Correlation id of the query.
        request: u64,
        /// The responding device (1-based).
        device: usize,
        /// The partial matrix.
        values: Matrix<F>,
    },
    /// A computed panel partial for a tagged (straggler) share
    /// (`B_j T · X` with the device's global row indices alongside, so
    /// the collector can assemble the decode system without trusting
    /// response order).
    TaggedBatch {
        /// Correlation id of the query.
        request: u64,
        /// The responding device (1-based).
        device: usize,
        /// Global row indices, one per row of `values`.
        rows: Vec<usize>,
        /// The partial panel, row `i` belonging to global row `rows[i]`.
        values: Matrix<F>,
    },
    /// A computed partial for a tagged (straggler) share.
    TaggedPartial {
        /// Correlation id of the query.
        request: u64,
        /// The responding device (1-based).
        device: usize,
        /// Row-tagged values.
        responses: Vec<TaggedResponse<F>>,
    },
    /// The device could not serve a query (e.g. no share installed or a
    /// shape mismatch); carries a printable reason.
    Failure {
        /// Correlation id of the query.
        request: u64,
        /// The responding device (1-based).
        device: usize,
        /// Human-readable cause.
        reason: String,
    },
}

impl<F: scec_linalg::Scalar> std::fmt::Debug for ToDevice<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToDevice::Install(s) => f.debug_tuple("Install").field(s).finish(),
            ToDevice::InstallTagged(s) => f.debug_tuple("InstallTagged").field(s).finish(),
            ToDevice::Query { request, x, ctx } => f
                .debug_struct("Query")
                .field("request", request)
                .field("x", x)
                .field("ctx", ctx)
                .finish(),
            ToDevice::QueryBatch { request, xs, ctx } => f
                .debug_struct("QueryBatch")
                .field("request", request)
                .field("xs", xs)
                .field("ctx", ctx)
                .finish(),
            ToDevice::Instrument(_) => f.write_str("Instrument"),
            ToDevice::Shutdown => f.write_str("Shutdown"),
        }
    }
}

impl<F: scec_linalg::Scalar> std::fmt::Debug for FromDevice<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FromDevice::Partial {
                request,
                device,
                values,
            } => f
                .debug_struct("Partial")
                .field("request", request)
                .field("device", device)
                .field("values", values)
                .finish(),
            FromDevice::BatchPartial {
                request,
                device,
                values,
            } => f
                .debug_struct("BatchPartial")
                .field("request", request)
                .field("device", device)
                .field("values", values)
                .finish(),
            FromDevice::TaggedBatch {
                request,
                device,
                rows,
                values,
            } => f
                .debug_struct("TaggedBatch")
                .field("request", request)
                .field("device", device)
                .field("rows", rows)
                .field("values", values)
                .finish(),
            FromDevice::TaggedPartial {
                request,
                device,
                responses,
            } => f
                .debug_struct("TaggedPartial")
                .field("request", request)
                .field("device", device)
                .field("responses", &responses.len())
                .finish(),
            FromDevice::Failure {
                request,
                device,
                reason,
            } => f
                .debug_struct("Failure")
                .field("request", request)
                .field("device", device)
                .field("reason", reason)
                .finish(),
        }
    }
}

impl<F: scec_linalg::Scalar> ToDevice<F> {
    /// For a query message, the number of query columns it asks a device
    /// to compute — 1 for a [`Query`](Self::Query), the panel width for
    /// a [`QueryBatch`](Self::QueryBatch) — and the trace context it
    /// carries; `None` for any other message.
    pub fn as_query(&self) -> Option<(usize, Option<TraceContext>)> {
        match self {
            ToDevice::Query { ctx, .. } => Some((1, *ctx)),
            ToDevice::QueryBatch { xs, ctx, .. } => Some((xs.ncols(), *ctx)),
            _ => None,
        }
    }
}

impl<F> FromDevice<F> {
    /// The correlation id this response answers.
    pub fn request(&self) -> u64 {
        match self {
            FromDevice::Partial { request, .. }
            | FromDevice::BatchPartial { request, .. }
            | FromDevice::TaggedBatch { request, .. }
            | FromDevice::TaggedPartial { request, .. }
            | FromDevice::Failure { request, .. } => *request,
        }
    }

    /// The responding device.
    pub fn device(&self) -> usize {
        match self {
            FromDevice::Partial { device, .. }
            | FromDevice::BatchPartial { device, .. }
            | FromDevice::TaggedBatch { device, .. }
            | FromDevice::TaggedPartial { device, .. }
            | FromDevice::Failure { device, .. } => *device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scec_linalg::Fp61;

    #[test]
    fn response_accessors() {
        let p: FromDevice<Fp61> = FromDevice::Partial {
            request: 7,
            device: 2,
            values: Vector::zeros(3),
        };
        assert_eq!(p.request(), 7);
        assert_eq!(p.device(), 2);
        let f: FromDevice<Fp61> = FromDevice::Failure {
            request: 9,
            device: 1,
            reason: "no share".into(),
        };
        assert_eq!(f.request(), 9);
        assert_eq!(f.device(), 1);
        let t: FromDevice<Fp61> = FromDevice::TaggedPartial {
            request: 4,
            device: 3,
            responses: vec![],
        };
        assert_eq!(t.request(), 4);
        assert_eq!(t.device(), 3);
        let b: FromDevice<Fp61> = FromDevice::TaggedBatch {
            request: 11,
            device: 4,
            rows: vec![0, 5],
            values: Matrix::zeros(2, 3),
        };
        assert_eq!(b.request(), 11);
        assert_eq!(b.device(), 4);
    }
}

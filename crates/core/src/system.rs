//! The end-to-end MCSCEC pipeline (Sec. II-D).

use rand::Rng;

use scec_allocation::{AllocationPlan, EdgeFleet};
use scec_coding::{decode, CodeDesign, DeviceShare, Encoder};
use scec_linalg::{Matrix, Scalar, Vector};

use crate::error::{Error, Result};
use crate::metrics::{ResourceUsage, SystemUsage};
use crate::strategy::AllocationStrategy;

/// A configured secure coded edge computing system: the cloud's view.
///
/// Holds the confidential data matrix `A`, the fleet description, the
/// chosen allocation plan and the matching code design. Call
/// [`distribute`](Self::distribute) to produce the runtime
/// [`Deployment`] (coded shares on devices).
///
/// See the [crate-level example](crate) for the full pipeline.
#[derive(Clone)]
pub struct ScecSystem<F> {
    data: Matrix<F>,
    fleet: EdgeFleet,
    strategy: AllocationStrategy,
    plan: AllocationPlan,
    design: CodeDesign,
}

impl<F: Scalar> std::fmt::Debug for ScecSystem<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScecSystem")
            .field("data", &self.data)
            .field("strategy", &self.strategy)
            .field("plan", &self.plan)
            .field("design", &self.design)
            .finish_non_exhaustive()
    }
}

impl<F: Scalar> ScecSystem<F> {
    /// Runs task allocation for `data` over `fleet` and fixes the code
    /// design.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyData`] when `data` has no rows or columns;
    /// * [`Error::Allocation`] when the fleet is invalid;
    /// * [`Error::Coding`] when the derived `(m, r)` cannot form a design
    ///   (cannot happen for feasible plans; kept for defense in depth).
    pub fn build<R: Rng + ?Sized>(
        data: Matrix<F>,
        fleet: EdgeFleet,
        strategy: AllocationStrategy,
        rng: &mut R,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(Error::EmptyData);
        }
        let plan = strategy.allocate(data.nrows(), &fleet, rng)?;
        let design = CodeDesign::new(data.nrows(), plan.random_rows())?;
        debug_assert_eq!(design.device_count(), plan.device_count());
        Ok(ScecSystem {
            data,
            fleet,
            strategy,
            plan,
            design,
        })
    }

    /// The confidential data matrix `A`.
    pub fn data(&self) -> &Matrix<F> {
        &self.data
    }

    /// The fleet the system allocates over.
    pub fn fleet(&self) -> &EdgeFleet {
        &self.fleet
    }

    /// The strategy used for allocation.
    pub fn strategy(&self) -> AllocationStrategy {
        self.strategy
    }

    /// The chosen allocation plan (loads and predicted cost).
    pub fn plan(&self) -> &AllocationPlan {
        &self.plan
    }

    /// The matching code design.
    pub fn design(&self) -> &CodeDesign {
        &self.design
    }

    /// Step 2 of the pipeline: blind `A` with fresh randomness and place
    /// one coded share per participating device.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] when encoding fails (shape mismatch —
    /// impossible for a system built by [`build`](Self::build)).
    pub fn distribute<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Deployment<F>> {
        let store = Encoder::new(self.design.clone()).encode(&self.data, rng)?;
        let devices = store
            .into_shares()
            .into_iter()
            .map(|share| EdgeDeviceRuntime { share })
            .collect();
        Ok(Deployment {
            design: self.design.clone(),
            width: self.data.ncols(),
            devices,
        })
    }
}

/// A single edge device at runtime: it stores its coded share and answers
/// compute requests. It never sees `A` itself.
#[derive(Clone)]
pub struct EdgeDeviceRuntime<F> {
    share: DeviceShare<F>,
}

impl<F: Scalar> std::fmt::Debug for EdgeDeviceRuntime<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeDeviceRuntime")
            .field("share", &self.share)
            .finish()
    }
}

impl<F: Scalar> EdgeDeviceRuntime<F> {
    /// The 1-based device index within the deployment.
    pub fn device(&self) -> usize {
        self.share.device()
    }

    /// The stored coded share `B_j T` (what a passive attacker on this
    /// device observes).
    pub fn share(&self) -> &DeviceShare<F> {
        &self.share
    }

    /// Step 3: the device-side computation `B_j T · x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] when `x` has the wrong length.
    pub fn compute(&self, x: &Vector<F>) -> Result<Vector<F>> {
        Ok(self.share.compute(x)?)
    }

    /// This device's per-query resource usage in Eq. (1) units.
    pub fn usage(&self, width: usize) -> ResourceUsage {
        ResourceUsage::for_device(self.share.load(), width)
    }
}

/// A live deployment: coded shares resident on `i` devices.
#[derive(Clone)]
pub struct Deployment<F> {
    design: CodeDesign,
    width: usize,
    devices: Vec<EdgeDeviceRuntime<F>>,
}

impl<F: Scalar> std::fmt::Debug for Deployment<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("design", &self.design)
            .field("width", &self.width)
            .field("devices", &self.devices)
            .finish()
    }
}

impl<F: Scalar> Deployment<F> {
    /// The code design in force.
    pub fn design(&self) -> &CodeDesign {
        &self.design
    }

    /// The width `l` of the data matrix (and of query vectors).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The participating devices, device 1 first.
    pub fn devices(&self) -> &[EdgeDeviceRuntime<F>] {
        &self.devices
    }

    /// Consumes the deployment, returning the coded shares, device 1
    /// first — what a launch installs on the fleet.
    pub fn into_shares(self) -> Vec<DeviceShare<F>> {
        self.devices.into_iter().map(|d| d.share).collect()
    }

    /// Step 3 for the whole fleet: every device computes its partial
    /// `B_j T · x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] when `x` has the wrong length.
    pub fn partials(&self, x: &Vector<F>) -> Result<Vec<Vector<F>>> {
        self.devices.iter().map(|d| d.compute(x)).collect()
    }

    /// Step 4: decode `y = Ax` from per-device responses (in device
    /// order).
    ///
    /// # Errors
    ///
    /// * [`Error::IncompleteResponses`] when the response count differs
    ///   from the device count;
    /// * [`Error::Coding`] when the stacked length is wrong.
    pub fn recover(&self, partials: &[Vector<F>]) -> Result<Vector<F>> {
        if partials.len() != self.devices.len() {
            return Err(Error::IncompleteResponses {
                expected: self.devices.len(),
                got: partials.len(),
            });
        }
        let btx = decode::stack_partials(partials);
        Ok(decode::decode_fast(&self.design, &btx)?)
    }

    /// Steps 3 + 4 in one call: the full secure query `y = Ax`.
    ///
    /// # Errors
    ///
    /// Propagates [`Deployment::partials`] and [`Deployment::recover`]
    /// failures.
    pub fn query(&self, x: &Vector<F>) -> Result<Vector<F>> {
        let partials = self.partials(x)?;
        self.recover(&partials)
    }

    /// Batched query: computes `Y = A·X` for a whole matrix of query
    /// columns in one protocol round (Sec. II-A's matrix–matrix case).
    ///
    /// `xs` is `l × n` (one query per column); the result is `m × n`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Coding`] when `xs` has the wrong row count.
    pub fn query_batch(&self, xs: &Matrix<F>) -> Result<Matrix<F>> {
        if xs.nrows() != self.width {
            return Err(Error::Coding(scec_coding::Error::PayloadShape {
                what: "query batch",
                expected: (self.width, xs.ncols()),
                got: xs.shape(),
            }));
        }
        let partials: Vec<Matrix<F>> = self
            .devices
            .iter()
            .map(|d| {
                Ok(d.share()
                    .coded()
                    .matmul(xs)
                    .map_err(scec_coding::Error::from)?)
            })
            .collect::<Result<_>>()?;
        let btx = decode::stack_partial_matrices(&partials)?;
        Ok(decode::decode_fast_batch(&self.design, &btx)?)
    }

    /// Measured per-query resource usage across the deployment.
    pub fn usage(&self) -> SystemUsage {
        SystemUsage {
            per_device: self.devices.iter().map(|d| d.usage(self.width)).collect(),
            decode_subtractions: decode::fast_decode_op_count(&self.design),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scec_linalg::Fp61;

    fn fleet() -> EdgeFleet {
        EdgeFleet::from_unit_costs(vec![1.0, 1.5, 2.0, 3.0, 10.0]).unwrap()
    }

    fn build_fp(m: usize, l: usize, seed: u64) -> (Matrix<Fp61>, ScecSystem<Fp61>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        let sys =
            ScecSystem::build(a.clone(), fleet(), AllocationStrategy::Mcscec, &mut rng).unwrap();
        (a, sys, rng)
    }

    #[test]
    fn end_to_end_exact_recovery() {
        let (a, sys, mut rng) = build_fp(8, 5, 1);
        let deployment = sys.distribute(&mut rng).unwrap();
        for _ in 0..5 {
            let x = Vector::<Fp61>::random(5, &mut rng);
            assert_eq!(deployment.query(&x).unwrap(), a.matvec(&x).unwrap());
        }
    }

    #[test]
    fn end_to_end_f64() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::<f64>::random(6, 4, &mut rng);
        let sys =
            ScecSystem::build(a.clone(), fleet(), AllocationStrategy::MaxNode, &mut rng).unwrap();
        let deployment = sys.distribute(&mut rng).unwrap();
        let x = Vector::<f64>::random(4, &mut rng);
        let y = deployment.query(&x).unwrap();
        let want = a.matvec(&x).unwrap();
        for p in 0..6 {
            assert!((y.at(p) - want.at(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn plan_and_design_are_consistent() {
        let (_, sys, _) = build_fp(12, 3, 3);
        assert_eq!(sys.design().data_rows(), 12);
        assert_eq!(sys.design().random_rows(), sys.plan().random_rows());
        assert_eq!(sys.design().device_count(), sys.plan().device_count());
        assert_eq!(sys.strategy(), AllocationStrategy::Mcscec);
        assert_eq!(sys.fleet().len(), 5);
        assert_eq!(sys.data().nrows(), 12);
    }

    #[test]
    fn deployment_matches_plan_loads() {
        let (_, sys, mut rng) = build_fp(12, 3, 4);
        let deployment = sys.distribute(&mut rng).unwrap();
        let loads: Vec<usize> = deployment
            .devices()
            .iter()
            .map(|d| d.share().load())
            .collect();
        assert_eq!(loads.as_slice(), sys.plan().loads());
        for (idx, d) in deployment.devices().iter().enumerate() {
            assert_eq!(d.device(), idx + 1);
        }
    }

    #[test]
    fn recover_rejects_wrong_response_count() {
        let (_, sys, mut rng) = build_fp(6, 2, 5);
        let deployment = sys.distribute(&mut rng).unwrap();
        let x = Vector::<Fp61>::random(2, &mut rng);
        let mut partials = deployment.partials(&x).unwrap();
        partials.pop();
        assert!(matches!(
            deployment.recover(&partials),
            Err(Error::IncompleteResponses { .. })
        ));
    }

    #[test]
    fn query_rejects_wrong_width() {
        let (_, sys, mut rng) = build_fp(6, 2, 6);
        let deployment = sys.distribute(&mut rng).unwrap();
        let bad = Vector::<Fp61>::zeros(7);
        assert!(matches!(deployment.query(&bad), Err(Error::Coding(_))));
    }

    #[test]
    fn usage_totals_match_plan_shape() {
        let (_, sys, mut rng) = build_fp(10, 4, 7);
        let deployment = sys.distribute(&mut rng).unwrap();
        let usage = deployment.usage();
        assert_eq!(usage.per_device.len(), sys.plan().device_count());
        assert_eq!(usage.decode_subtractions, 10);
        let total = usage.device_total();
        let rows = sys.plan().total_rows();
        assert_eq!(total.values_transferred, rows);
        assert_eq!(total.multiplications, rows * 4);
    }

    #[test]
    fn batched_query_matches_columnwise_queries() {
        let (a, sys, mut rng) = build_fp(7, 4, 10);
        let deployment = sys.distribute(&mut rng).unwrap();
        let xs = Matrix::<Fp61>::random(4, 6, &mut rng);
        let batched = deployment.query_batch(&xs).unwrap();
        assert_eq!(batched, a.matmul(&xs).unwrap());
        for c in 0..6 {
            let x = xs.col(c);
            let single = deployment.query(&x).unwrap();
            assert_eq!(batched.col(c).as_slice(), single.as_slice());
        }
    }

    #[test]
    fn batched_query_rejects_wrong_row_count() {
        let (_, sys, mut rng) = build_fp(5, 3, 11);
        let deployment = sys.distribute(&mut rng).unwrap();
        let bad = Matrix::<Fp61>::zeros(4, 2);
        assert!(matches!(
            deployment.query_batch(&bad),
            Err(Error::Coding(_))
        ));
    }

    #[test]
    fn empty_data_is_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let empty = Matrix::<Fp61>::zeros(0, 4);
        assert!(matches!(
            ScecSystem::build(empty, fleet(), AllocationStrategy::Mcscec, &mut rng),
            Err(Error::EmptyData)
        ));
    }

    #[test]
    fn fresh_randomness_per_distribution() {
        let (_, sys, mut rng) = build_fp(6, 3, 9);
        let d1 = sys.distribute(&mut rng).unwrap();
        let d2 = sys.distribute(&mut rng).unwrap();
        // Device 1 holds the raw random rows; two distributions must differ.
        assert_ne!(
            d1.devices()[0].share().coded(),
            d2.devices()[0].share().coded()
        );
    }
}

//! Discrete-event simulation of the four-step SCEC protocol.
//!
//! The paper's cost model prices resources but abstracts time away;
//! Remark 1 notes that capping each device's load at `r` also bounds the
//! completion time. This module makes that claim measurable: it executes
//! the protocol — broadcast `x`, per-device compute, result upload, user
//! decode — over a network model with per-device link latency, per-value
//! transfer time, and per-operation compute time, using a proper
//! event-queue engine.
//!
//! # Example
//!
//! ```
//! use scec_coding::CodeDesign;
//! use scec_sim::event::{DeviceProfile, NetworkModel, ProtocolSimulator};
//!
//! let design = CodeDesign::new(8, 4)?; // 3 devices
//! let model = NetworkModel::homogeneous(3, DeviceProfile::default_edge(), 1e-9)?;
//! let report = ProtocolSimulator::new(model).simulate(&design, 128)?;
//! assert!(report.completion_time > 0.0);
//! assert_eq!(report.per_device.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use scec_coding::CodeDesign;

use crate::error::{Error, Result};

/// Timing characteristics of one edge device and its link to the user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// One-way link latency, seconds.
    pub latency: f64,
    /// Transfer time per field element, seconds (inverse bandwidth).
    pub per_value_time: f64,
    /// Time per scalar multiply-accumulate, seconds.
    pub per_op_time: f64,
}

impl DeviceProfile {
    /// A plausible edge device: 5 ms latency, ~10 M values/s link,
    /// ~1 GFLOP/s sustained.
    pub fn default_edge() -> Self {
        DeviceProfile {
            latency: 5e-3,
            per_value_time: 1e-7,
            per_op_time: 1e-9,
        }
    }

    /// Validates that all timings are finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTiming`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        for (what, value) in [
            ("latency", self.latency),
            ("per_value_time", self.per_value_time),
            ("per_op_time", self.per_op_time),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(Error::InvalidTiming { what, value });
            }
        }
        Ok(())
    }

    /// Draws a jittered variant: each timing scaled by a uniform factor in
    /// `[1 − jitter, 1 + jitter]`. Models fleet heterogeneity.
    ///
    /// # Panics
    ///
    /// Panics when `jitter` is not within `[0, 1)`.
    pub fn jittered<R: Rng + ?Sized>(&self, jitter: f64, rng: &mut R) -> DeviceProfile {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        let mut scale = |v: f64| v * rng.gen_range(1.0 - jitter..=1.0 + jitter);
        DeviceProfile {
            latency: scale(self.latency),
            per_value_time: scale(self.per_value_time),
            per_op_time: scale(self.per_op_time),
        }
    }
}

/// The network as the protocol sees it: one profile per participating
/// device plus the user's decode speed.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    devices: Vec<DeviceProfile>,
    user_per_op_time: f64,
}

impl NetworkModel {
    /// A fleet of `n` identical devices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTiming`] for invalid profiles or decode
    /// speed.
    pub fn homogeneous(n: usize, profile: DeviceProfile, user_per_op_time: f64) -> Result<Self> {
        NetworkModel::heterogeneous(vec![profile; n], user_per_op_time)
    }

    /// A fleet with explicit per-device profiles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTiming`] for invalid profiles or decode
    /// speed.
    pub fn heterogeneous(devices: Vec<DeviceProfile>, user_per_op_time: f64) -> Result<Self> {
        for p in &devices {
            p.validate()?;
        }
        if !user_per_op_time.is_finite() || user_per_op_time < 0.0 {
            return Err(Error::InvalidTiming {
                what: "user_per_op_time",
                value: user_per_op_time,
            });
        }
        Ok(NetworkModel {
            devices,
            user_per_op_time,
        })
    }

    /// Number of devices in the model.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the model has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The profile of device `j` (1-based).
    ///
    /// # Panics
    ///
    /// Panics when `j` is outside `1..=len`.
    pub fn device(&self, j: usize) -> &DeviceProfile {
        &self.devices[j - 1]
    }
}

/// What happened on one device during a simulated query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceTimeline {
    /// Device index (1-based).
    pub device: usize,
    /// Coded rows processed (`V(B_j)`).
    pub load: usize,
    /// When the query vector finished arriving.
    pub input_arrived: f64,
    /// When the device finished computing its partial.
    pub compute_done: f64,
    /// When the partial finished arriving back at the user.
    pub result_arrived: f64,
}

/// One entry of the chronological event trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedEvent {
    /// Simulation time, seconds.
    pub time: f64,
    /// The device concerned (1-based).
    pub device: usize,
    /// What happened.
    pub kind: LoggedEventKind,
}

/// Kinds of logged protocol events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedEventKind {
    /// The query vector finished arriving at the device.
    InputArrived,
    /// The device finished its matvec.
    ComputeDone,
    /// The device's partial finished arriving at the user.
    ResultArrived,
}

/// Full timing of one simulated query.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionReport {
    /// Per-device timelines, device 1 first.
    pub per_device: Vec<DeviceTimeline>,
    /// When the last partial arrived.
    pub last_result: f64,
    /// When the user finished decoding (`last_result + m·t_sub`).
    pub completion_time: f64,
    /// The chronological event trace (ties broken by scheduling order).
    pub events: Vec<LoggedEvent>,
}

impl CompletionReport {
    /// The slowest device (the straggler), by result arrival.
    pub fn straggler(&self) -> Option<&DeviceTimeline> {
        self.per_device
            .iter()
            .max_by(|a, b| a.result_arrived.total_cmp(&b.result_arrived))
    }

    /// The earliest time at which the cumulative rows received from
    /// completed devices reach `needed` — i.e. when a quorum decoder
    /// ([`scec_coding::straggler`]) could start, ignoring stragglers.
    ///
    /// Returns `None` when even all devices together hold fewer than
    /// `needed` rows.
    pub fn time_to_rows(&self, needed: usize) -> Option<f64> {
        let mut arrivals: Vec<(f64, usize)> = self
            .per_device
            .iter()
            .map(|tl| (tl.result_arrived, tl.load))
            .collect();
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut have = 0;
        for (t, load) in arrivals {
            have += load;
            if have >= needed {
                return Some(t);
            }
        }
        None
    }
}

/// Event kinds of the protocol simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// The query vector has fully arrived at a device.
    InputArrived { device: usize },
    /// A device finished its matvec.
    ComputeDone { device: usize },
    /// A device's partial fully arrived back at the user.
    ResultArrived { device: usize },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: usize,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Executes the protocol over a [`NetworkModel`] with an event queue.
#[derive(Debug, Clone)]
pub struct ProtocolSimulator {
    model: NetworkModel,
}

impl ProtocolSimulator {
    /// Creates a simulator over a network model.
    pub fn new(model: NetworkModel) -> Self {
        ProtocolSimulator { model }
    }

    /// The network model in force.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Simulates one query for `design` with data width `width` and
    /// returns the full timing report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DeviceCountMismatch`] when the model has fewer
    /// devices than the design requires.
    pub fn simulate(&self, design: &CodeDesign, width: usize) -> Result<CompletionReport> {
        let loads: Vec<usize> = (1..=design.device_count())
            .map(|j| design.device_load(j).expect("j in range"))
            .collect();
        self.simulate_loads(&loads, design.data_rows(), width)
    }

    /// Simulates one query over explicit per-device loads (coded rows per
    /// device) — used for straggler-extended deployments whose standby
    /// devices are not part of a plain [`CodeDesign`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::DeviceCountMismatch`] when the model has fewer
    /// devices than loads given.
    pub fn simulate_loads(
        &self,
        loads: &[usize],
        data_rows: usize,
        width: usize,
    ) -> Result<CompletionReport> {
        let i = loads.len();
        if self.model.len() < i {
            return Err(Error::DeviceCountMismatch {
                model: self.model.len(),
                design: i,
            });
        }
        let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0;
        let mut push = |q: &mut BinaryHeap<Reverse<Event>>, time: f64, kind: EventKind| {
            q.push(Reverse(Event { time, seq, kind }));
            seq += 1;
        };

        // t = 0: the user starts broadcasting x (width values) to every
        // participating device in parallel.
        for j in 1..=i {
            let p = self.model.device(j);
            let arrive = p.latency + width as f64 * p.per_value_time;
            push(&mut queue, arrive, EventKind::InputArrived { device: j });
        }

        let mut events: Vec<LoggedEvent> = Vec::with_capacity(3 * i);
        let mut timelines: Vec<DeviceTimeline> = (1..=i)
            .map(|j| DeviceTimeline {
                device: j,
                load: loads[j - 1],
                input_arrived: 0.0,
                compute_done: 0.0,
                result_arrived: 0.0,
            })
            .collect();
        let mut last_result = 0.0f64;

        while let Some(Reverse(event)) = queue.pop() {
            match event.kind {
                EventKind::InputArrived { device } => {
                    events.push(LoggedEvent {
                        time: event.time,
                        device,
                        kind: LoggedEventKind::InputArrived,
                    });
                    let tl = &mut timelines[device - 1];
                    tl.input_arrived = event.time;
                    let p = self.model.device(device);
                    // V·l multiplies + V·(l−1) adds, one per_op each.
                    let ops = tl.load * width + tl.load * width.saturating_sub(1);
                    let done = event.time + ops as f64 * p.per_op_time;
                    push(&mut queue, done, EventKind::ComputeDone { device });
                }
                EventKind::ComputeDone { device } => {
                    events.push(LoggedEvent {
                        time: event.time,
                        device,
                        kind: LoggedEventKind::ComputeDone,
                    });
                    let tl = &mut timelines[device - 1];
                    tl.compute_done = event.time;
                    let p = self.model.device(device);
                    let arrive = event.time + p.latency + tl.load as f64 * p.per_value_time;
                    push(&mut queue, arrive, EventKind::ResultArrived { device });
                }
                EventKind::ResultArrived { device } => {
                    events.push(LoggedEvent {
                        time: event.time,
                        device,
                        kind: LoggedEventKind::ResultArrived,
                    });
                    let tl = &mut timelines[device - 1];
                    tl.result_arrived = event.time;
                    last_result = last_result.max(event.time);
                }
            }
        }

        // Step 4: m subtractions on the user device.
        let decode = data_rows as f64 * self.model.user_per_op_time;
        Ok(CompletionReport {
            per_device: timelines,
            last_result,
            completion_time: last_result + decode,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn flat_profile() -> DeviceProfile {
        DeviceProfile {
            latency: 1.0,
            per_value_time: 0.1,
            per_op_time: 0.01,
        }
    }

    #[test]
    fn homogeneous_completion_matches_closed_form() {
        // m=4, r=2 → i=3 devices, loads [2,2,2]; width 5.
        let design = CodeDesign::new(4, 2).unwrap();
        let model = NetworkModel::homogeneous(3, flat_profile(), 0.001).unwrap();
        let report = ProtocolSimulator::new(model).simulate(&design, 5).unwrap();
        let input = 1.0 + 5.0 * 0.1; // latency + l values
        let ops = 2 * 5 + 2 * 4; // V·l + V·(l−1)
        let compute = input + ops as f64 * 0.01;
        let back = compute + 1.0 + 2.0 * 0.1;
        for tl in &report.per_device {
            assert!((tl.input_arrived - input).abs() < 1e-12);
            assert!((tl.compute_done - compute).abs() < 1e-12);
            assert!((tl.result_arrived - back).abs() < 1e-12);
        }
        assert!((report.last_result - back).abs() < 1e-12);
        assert!((report.completion_time - (back + 4.0 * 0.001)).abs() < 1e-12);
    }

    #[test]
    fn straggler_is_the_slowest_device() {
        let mut profiles = vec![flat_profile(); 3];
        profiles[1].per_op_time = 1.0; // device 2 is very slow
        let model = NetworkModel::heterogeneous(profiles, 0.0).unwrap();
        let design = CodeDesign::new(4, 2).unwrap();
        let report = ProtocolSimulator::new(model).simulate(&design, 3).unwrap();
        assert_eq!(report.straggler().unwrap().device, 2);
        assert!((report.completion_time - report.last_result).abs() < 1e-12);
    }

    #[test]
    fn unequal_last_device_load_shows_up() {
        // m=5, r=2 → i=4, loads [2,2,2,1]: device 4 computes less.
        let design = CodeDesign::new(5, 2).unwrap();
        let model = NetworkModel::homogeneous(4, flat_profile(), 0.0).unwrap();
        let report = ProtocolSimulator::new(model).simulate(&design, 4).unwrap();
        assert!(report.per_device[3].compute_done < report.per_device[0].compute_done);
        assert_eq!(report.per_device[3].load, 1);
    }

    #[test]
    fn device_count_mismatch_is_rejected() {
        let design = CodeDesign::new(4, 2).unwrap(); // needs 3 devices
        let model = NetworkModel::homogeneous(2, flat_profile(), 0.0).unwrap();
        assert!(matches!(
            ProtocolSimulator::new(model).simulate(&design, 3),
            Err(Error::DeviceCountMismatch {
                model: 2,
                design: 3
            })
        ));
    }

    #[test]
    fn invalid_timings_are_rejected() {
        let mut p = flat_profile();
        p.latency = -1.0;
        assert!(matches!(
            NetworkModel::homogeneous(2, p, 0.0),
            Err(Error::InvalidTiming {
                what: "latency",
                ..
            })
        ));
        assert!(matches!(
            NetworkModel::homogeneous(2, flat_profile(), f64::NAN),
            Err(Error::InvalidTiming {
                what: "user_per_op_time",
                ..
            })
        ));
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = flat_profile();
        for _ in 0..100 {
            let j = base.jittered(0.2, &mut rng);
            assert!(j.latency >= 0.8 && j.latency <= 1.2);
            assert!(j.per_value_time >= 0.08 && j.per_value_time <= 0.12);
            j.validate().unwrap();
        }
    }

    #[test]
    fn larger_r_fewer_devices_longer_compute() {
        // With homogeneous devices, concentrating load (larger r) cannot
        // finish faster: per-device work grows.
        let model = NetworkModel::homogeneous(10, flat_profile(), 0.0).unwrap();
        let sim = ProtocolSimulator::new(model);
        let m = 12;
        let mut last = 0.0;
        for r in [2usize, 3, 4, 6, 12] {
            let design = CodeDesign::new(m, r).unwrap();
            let report = sim.simulate(&design, 8).unwrap();
            assert!(
                report.completion_time >= last - 1e-12,
                "r={r}: {} < {last}",
                report.completion_time
            );
            last = report.completion_time;
        }
    }

    #[test]
    fn event_trace_is_chronological_and_complete() {
        let design = CodeDesign::new(5, 2).unwrap(); // 4 devices
        let model = NetworkModel::homogeneous(4, flat_profile(), 0.0).unwrap();
        let report = ProtocolSimulator::new(model).simulate(&design, 3).unwrap();
        // 3 events per device.
        assert_eq!(report.events.len(), 12);
        // Non-decreasing timestamps.
        for w in report.events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Per device: InputArrived < ComputeDone < ResultArrived.
        for j in 1..=4 {
            let times: Vec<(LoggedEventKind, f64)> = report
                .events
                .iter()
                .filter(|e| e.device == j)
                .map(|e| (e.kind, e.time))
                .collect();
            assert_eq!(times.len(), 3);
            assert_eq!(times[0].0, LoggedEventKind::InputArrived);
            assert_eq!(times[1].0, LoggedEventKind::ComputeDone);
            assert_eq!(times[2].0, LoggedEventKind::ResultArrived);
            assert!(times[0].1 <= times[1].1 && times[1].1 < times[2].1);
        }
    }

    #[test]
    fn model_accessors() {
        let model = NetworkModel::homogeneous(3, flat_profile(), 0.5).unwrap();
        assert_eq!(model.len(), 3);
        assert!(!model.is_empty());
        assert_eq!(model.device(1), &flat_profile());
        let sim = ProtocolSimulator::new(model.clone());
        assert_eq!(sim.model(), &model);
    }

    #[test]
    fn default_edge_profile_is_valid() {
        DeviceProfile::default_edge().validate().unwrap();
    }
}

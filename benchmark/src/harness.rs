//! Measurement plumbing shared by every workload: the seeded query pool
//! with its precomputed truths, exact order statistics, the calibration
//! spin that reports the run's own noise floor, the host-speed gauge and the
//! one-CPU pin that keep a run's timings repeatable, peak RSS, and the
//! in-memory span recorder of the traced run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};

use scec_linalg::{Fp61, Matrix, Vector};

/// The repo's standard heterogeneous fleet (`scec-serve` pins the same
/// five unit costs for every Router tenant).
pub const FLEET_UNIT_COSTS: [f64; 5] = [1.0, 1.3, 1.6, 2.0, 2.5];

/// The data matrix and the query stream of one run, all derived from
/// `--seed`; the program under test only ever sees these values.
pub struct Inputs {
    /// The confidential data matrix `A` (`m × l`).
    pub a: Matrix<Fp61>,
    /// Distinct query vectors.
    pub xs: Vec<Vector<Fp61>>,
    /// `truths[i] = A · xs[i]`, computed by the harness before any timing.
    pub truths: Vec<Vector<Fp61>>,
}

impl Inputs {
    /// Generates `A` and a pool of `pool` queries with their truths.
    pub fn generate(seed: u64, m: usize, l: usize, pool: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Fp61>::random(m, l, &mut rng);
        let xs: Vec<Vector<Fp61>> = (0..pool).map(|_| Vector::random(l, &mut rng)).collect();
        let truths = xs
            .iter()
            .map(|x| a.matvec(x).expect("pool query has A's width"))
            .collect();
        Inputs { a, xs, truths }
    }

    /// The `i`-th query of the (cyclic) stream.
    pub fn x(&self, i: usize) -> &Vector<Fp61> {
        &self.xs[i % self.xs.len()]
    }

    /// The truth for the `i`-th query of the stream.
    pub fn truth(&self, i: usize) -> &Vector<Fp61> {
        &self.truths[i % self.truths.len()]
    }
}

/// A seeded generator for the harness's own draws (system builds and
/// launches take `&mut impl Rng`).
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Exact order statistic by linear interpolation on a sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` and returns its median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// Median nanoseconds of `reps` timed calls of `f`, after one warm-up call.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// A fixed integer spin (`steps` dependent xorshift rounds), timed: work
/// that is the same on every call, so its time reads the host's speed.
fn spin_ns(steps: u32) -> f64 {
    let t = Instant::now();
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..steps {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
    }
    std::hint::black_box(s);
    t.elapsed().as_nanos() as f64
}

/// The long spin (2²⁴ steps). Run before and after a traced run, it is the
/// run's noise floor: two spins of identical work that disagree say the box
/// was disturbed, whatever the workload did.
pub fn calibration_ns() -> f64 {
    spin_ns(1 << 24)
}

/// Steps of one speed-gauge spin.
const GAUGE_STEPS: u32 = 1 << 18;

/// Nanoseconds a gauge spin takes on the reference box at a middling speed
/// of its host, which was seen at 0.87 to 1.15 times this; the op counts in
/// `spec.rs` were sized there.
pub const GAUGE_REFERENCE_NS: f64 = 432_000.0;

/// How slow the host runs right now, as a multiple of the reference speed:
/// the fastest of three gauge spins (an interrupt can only lengthen one)
/// over [`GAUGE_REFERENCE_NS`]. The shared host changes its clock by up to
/// 30 % for seconds to minutes at a time, and every timing of a run follows
/// it; dividing a round's timings by the factor read beside it takes the
/// host's speed out of the result and leaves the program's.
pub fn host_slowness() -> f64 {
    let fastest = (0..3)
        .map(|_| spin_ns(GAUGE_STEPS))
        .fold(f64::INFINITY, f64::min);
    fastest / GAUGE_REFERENCE_NS
}

/// Pins the calling thread, and every thread it spawns from here on, to one
/// CPU: the highest one it is allowed to run on. Returns that CPU, or
/// `None` where the affinity calls are missing or refused (the run then
/// goes ahead unpinned).
///
/// A query of the small workloads is a chain of thread hand-offs with
/// microseconds of work between them. Spread over two virtual CPUs of a
/// shared host, each hand-off wakes an idle vCPU, which costs more than the
/// work and varies by a factor of two from round to round; on one CPU the
/// same run reads the program's own CPU time per query and repeats.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `bytes` long and outlives the call; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above, and the mask is only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// See the Linux version; elsewhere the run goes ahead unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Makes glibc's allocator keep what the run has touched; call before any
/// thread starts. Left to its defaults it decides by the order of the first
/// few frees, which differs from process to process, whether a large block
/// is mapped afresh on every allocation or reused, and each short-lived
/// thread gets an arena of its own that keeps what the thread freed. What a
/// run reads then depends on the draw: a set-up of the large shape takes
/// 2.7 or 5.8 ms for a whole run, and `router_small_panels` peaks anywhere
/// from 33 to 47 MiB for the same work. With one arena (no contention on
/// one CPU), every block below 32 MiB on the heap and the heap never
/// trimmed, memory is faulted in once and reused: 2.7 ms and 21 MiB on
/// every run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn settle_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: plain libc calls that take two integers each.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

/// See the glibc version; nothing to settle on other allocators.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn settle_allocator() {}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One completed span of the traced run.
#[derive(Clone, Copy)]
pub struct Span {
    /// Static span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Stream index of the query the span belongs to (`u64::MAX`: none).
    pub query: u64,
}

/// Per-name aggregate over every span of a run, kept exactly even when
/// the span list itself is capped.
#[derive(Clone, Copy, Default)]
pub struct SpanTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child spans).
    pub self_ns: u64,
}

/// Spans kept for the Chrome trace file; totals stay exact beyond it.
const SPAN_FILE_CAP: usize = 50_000;

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    query: u64,
    children_ns: u64,
    index: Option<u32>,
}

#[derive(Default)]
struct RecorderInner {
    spans: Vec<Span>,
    open: Vec<OpenSpan>,
    totals: Vec<(&'static str, SpanTotal)>,
    /// Time under spans that had no parent.
    root_ns: u64,
}

/// The benchmark's own span recorder: single driver thread, spans nest by
/// call structure, everything stays in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    inner: RefCell<RecorderInner>,
}

impl Recorder {
    /// A recorder whose time origin is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: RefCell::new(RecorderInner::default()),
        }
    }

    /// Runs `f` inside a span named `name` for stream query `query`.
    pub fn span<T>(&self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        {
            let mut inner = self.inner.borrow_mut();
            // Reserve the slot now so children can name their parent.
            let index = (inner.spans.len() < SPAN_FILE_CAP).then(|| {
                let parent = inner.open.last().and_then(|o| o.index);
                inner.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    query,
                });
                (inner.spans.len() - 1) as u32
            });
            inner.open.push(OpenSpan {
                name,
                start_ns,
                query,
                children_ns: 0,
                index,
            });
        }
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        let open = inner.open.pop().expect("span stack is balanced");
        debug_assert_eq!(open.name, name);
        debug_assert_eq!(open.query, query);
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.index {
            inner.spans[i as usize].end_ns = end_ns;
        }
        match inner.open.last_mut() {
            Some(parent) => parent.children_ns += dur,
            None => inner.root_ns += dur,
        }
        let slot = match inner.totals.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                inner.totals.push((name, SpanTotal::default()));
                inner.totals.len() - 1
            }
        };
        let total = &mut inner.totals[slot].1;
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.children_ns);
        out
    }

    /// The aggregate for `name` (zeros when no such span was recorded).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.inner
            .borrow()
            .totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(SpanTotal::default, |(_, t)| *t)
    }

    /// Total time under root spans: what the spans account for of a run.
    pub fn root_ns(&self) -> u64 {
        self.inner.borrow().root_ns
    }

    /// Renders the kept spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto): complete events on one thread lane, query id and parent
    /// index in `args`.
    pub fn render_chrome_trace(&self, workload: &str) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"scec-benchmark {workload}\"}}}}"
        );
        for (i, s) in inner.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if s.query != u64::MAX {
                let _ = write!(out, ",\"query\":{}", s.query);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_median_sorts() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
    }

    #[test]
    fn same_seed_same_inputs_and_truths_hold() {
        let a = Inputs::generate(3, 4, 6, 5);
        let b = Inputs::generate(3, 4, 6, 5);
        assert!(a.a == b.a && a.xs == b.xs && a.truths == b.truths);
        assert!(Inputs::generate(4, 4, 6, 5).a != a.a);
        assert_eq!(a.truth(7), &a.a.matvec(a.x(7)).unwrap());
    }

    #[test]
    fn recorder_nests_and_computes_self_time() {
        let rec = Recorder::new();
        rec.span("outer", 1, || {
            rec.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = rec.total("outer");
        let inner = rec.total("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.root_ns(), outer.total_ns);
        let trace = rec.render_chrome_trace("t");
        assert!(trace.contains("\"parent\":0") && trace.contains("\"query\":1"));
    }
}

//! The `scec` binary: argument parsing over [`scec_cli::commands`].

use std::path::PathBuf;
use std::process::ExitCode;

use scec_cli::commands;
use scec_cli::csv::parse_costs;
use scec_cli::Error;

const USAGE: &str = "\
scec — secure coded edge computing

USAGE:
  scec plan   --m <ROWS> --costs <C1,C2,...>
  scec deploy --data <A.csv> --costs <C1,C2,...> --out <DIR> [--seed N] [--redundancy S]
  scec deploy-private --data <A.csv> --out <DIR> --threshold T --load-cap V [--seed N]
  scec query  --shares <DIR> --input <x.csv> --output <y.csv> [--metrics-out PATH]
  scec audit  --shares <DIR> [--seed N] [--coalitions T]
  scec chaos  [--devices N] [--queries Q] [--intensity F] [--seed N]
              [--verbose true] [--metrics-out PATH]
  scec dst    [--seeds N] [--seed N] [--explore true] [--failure-out PATH]
              [--metrics-out PATH] [--trace-out PATH] [--scenario NAME]
              [--devices N] [--queries Q] [--list-scenarios true]
  scec metrics [--devices N] [--queries Q] [--seed N] [--format prometheus|json]
  scec serve  [--addr HOST:PORT] [--max-tenants N] [--once true]
              [--obs-addr HOST:PORT]
  scec load   [--addr HOST:PORT] [--tenants N] [--queries Q] [--panel W]
              [--window D] [--cap N] [--seed N] [--adaptive true]
              [--metrics-out PATH] [--obs-addr HOST:PORT]
              [--obs-linger SECS] [--trace-out PATH]

`scec serve` hosts a device fleet over TCP; `scec load` drives a
sharded multi-tenant query load against it (spawning an in-process
loopback server when --addr is omitted) and exits non-zero unless
every tenant's results match its own A·x. `--adaptive true` lets each
tenant re-plan over drift-scaled costs at a mid-stream checkpoint when
its cost ledger diverges from the MCSCEC prediction.
`--obs-addr` mounts a live observability plane on a second listener:
GET /metrics (Prometheus text), /trace (Chrome trace-event JSON), and
/slo (per-tenant burn rates). On `scec load` it also turns on
distributed tracing, so every query carries a wire-propagated trace
context and device compute spans stitch under the Router's dispatch
spans; `--obs-linger SECS` keeps the listener up after the run, and
`--trace-out PATH` writes the stitched Chrome trace without any
listener (open it in chrome://tracing or Perfetto).
`scec dst` honors SCEC_DST_SEED to replay a single seeded schedule.
`scec dst --scenario NAME` sweeps a named adversarial campaign at fleet
scale (`--list-scenarios true` prints the catalog).
`--metrics-out PATH` writes a scec-telemetry-v1 JSON snapshot: metrics,
query spans and lifecycle events, per-device predicted vs observed cost.

Data matrices and vectors are CSV files of integers in GF(2^61 - 1).
Share files use the framed scec-wire binary format.";

struct Args {
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, Error> {
        let mut flags = std::collections::HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(Error::Usage(format!("unexpected argument {flag:?}")));
            };
            let value = it
                .next()
                .ok_or_else(|| Error::Usage(format!("--{name} needs a value")))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Result<&str, Error> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| Error::Usage(format!("missing required --{name}")))
    }

    fn get_usize(&self, name: &str) -> Result<usize, Error> {
        self.get(name)?
            .parse()
            .map_err(|e| Error::Usage(format!("bad --{name}: {e}")))
    }

    fn seed(&self) -> Result<u64, Error> {
        match self.flags.get("seed") {
            None => Ok(2019),
            Some(v) => v
                .parse()
                .map_err(|e| Error::Usage(format!("bad --seed: {e}"))),
        }
    }
}

fn run() -> Result<(), Error> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return Err(Error::Usage("no command given".into()));
    };
    let args = Args::parse(rest)?;
    match command.as_str() {
        "plan" => {
            let m = args.get_usize("m")?;
            let costs = parse_costs(args.get("costs")?)?;
            print!("{}", commands::plan(m, &costs)?);
        }
        "deploy" => {
            let data = PathBuf::from(args.get("data")?);
            let costs = parse_costs(args.get("costs")?)?;
            let out = PathBuf::from(args.get("out")?);
            let redundancy = match args.flags.get("redundancy") {
                None => 0,
                Some(v) => v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --redundancy: {e}")))?,
            };
            print!(
                "{}",
                commands::deploy(&data, &costs, &out, args.seed()?, redundancy)?
            );
        }
        "deploy-private" => {
            let data = PathBuf::from(args.get("data")?);
            let out = PathBuf::from(args.get("out")?);
            let threshold = args.get_usize("threshold")?;
            let load_cap = args.get_usize("load-cap")?;
            print!(
                "{}",
                commands::deploy_private(&data, &out, args.seed()?, threshold, load_cap)?
            );
        }
        "query" => {
            let shares = PathBuf::from(args.get("shares")?);
            let input = PathBuf::from(args.get("input")?);
            let output = PathBuf::from(args.get("output")?);
            let metrics_out = args.flags.get("metrics-out").map(PathBuf::from);
            print!(
                "{}",
                commands::query(&shares, &input, &output, metrics_out.as_deref())?
            );
        }
        "audit" => {
            let shares = PathBuf::from(args.get("shares")?);
            let coalitions = match args.flags.get("coalitions") {
                None => 1,
                Some(v) => v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --coalitions: {e}")))?,
            };
            let (report, secure) = commands::audit(&shares, args.seed()?, coalitions)?;
            print!("{report}");
            if !secure {
                return Err(Error::Domain("audit found an insecure share".into()));
            }
        }
        "chaos" => {
            let devices = match args.flags.get("devices") {
                None => 6,
                Some(_) => args.get_usize("devices")?,
            };
            let queries = match args.flags.get("queries") {
                None => 8,
                Some(_) => args.get_usize("queries")?,
            };
            let intensity = match args.flags.get("intensity") {
                None => 0.4,
                Some(v) => v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --intensity: {e}")))?,
            };
            let verbose: bool = match args.flags.get("verbose") {
                None => false,
                Some(v) => v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --verbose: {e}")))?,
            };
            let verbosity = if verbose {
                scec_runtime::Verbosity::Verbose
            } else {
                scec_runtime::Verbosity::Normal
            };
            let metrics_out = args.flags.get("metrics-out").map(PathBuf::from);
            print!(
                "{}",
                commands::chaos(
                    devices,
                    queries,
                    intensity,
                    args.seed()?,
                    verbosity,
                    metrics_out.as_deref()
                )?
            );
        }
        "dst" => {
            let mut options = commands::DstOptions::sweep(
                match args.flags.get("seeds") {
                    None => 50,
                    Some(_) => args.get_usize("seeds")?,
                },
                args.seed()?,
            );
            options.pinned = scec_dst::seed_from_env();
            options.explore = match args.flags.get("explore") {
                None => false,
                Some(v) => v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --explore: {e}")))?,
            };
            options.scenario = args.flags.get("scenario").cloned();
            if args.flags.contains_key("devices") {
                options.devices = Some(args.get_usize("devices")?);
            }
            if args.flags.contains_key("queries") {
                options.queries = Some(args.get_usize("queries")?);
            }
            options.list_scenarios = match args.flags.get("list-scenarios") {
                None => false,
                Some(v) => v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --list-scenarios: {e}")))?,
            };
            options.failure_out = args.flags.get("failure-out").map(PathBuf::from);
            options.metrics_out = args.flags.get("metrics-out").map(PathBuf::from);
            options.trace_out = args.flags.get("trace-out").map(PathBuf::from);
            let (report, clean) = commands::dst(&options)?;
            print!("{report}");
            if !clean {
                return Err(Error::Domain("dst found an oracle violation".into()));
            }
        }
        "metrics" => {
            let devices = match args.flags.get("devices") {
                None => 5,
                Some(_) => args.get_usize("devices")?,
            };
            let queries = match args.flags.get("queries") {
                None => 8,
                Some(_) => args.get_usize("queries")?,
            };
            let json = match args.flags.get("format") {
                None => false,
                Some(v) if v == "prometheus" => false,
                Some(v) if v == "json" => true,
                Some(v) => {
                    return Err(Error::Usage(format!(
                        "bad --format {v:?}: expected prometheus or json"
                    )))
                }
            };
            print!(
                "{}",
                commands::metrics(devices, queries, args.seed()?, json)?
            );
        }
        "serve" => {
            let options = commands::ServeOptions {
                addr: args
                    .flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:4070".to_string()),
                max_tenants: match args.flags.get("max-tenants") {
                    None => u64::MAX,
                    Some(v) => v
                        .parse()
                        .map_err(|e| Error::Usage(format!("bad --max-tenants: {e}")))?,
                },
                once: match args.flags.get("once") {
                    None => false,
                    Some(v) => v
                        .parse()
                        .map_err(|e| Error::Usage(format!("bad --once: {e}")))?,
                },
                obs_addr: args.flags.get("obs-addr").cloned(),
            };
            print!("{}", commands::serve(&options)?);
        }
        "load" => {
            let mut options = commands::LoadOptions {
                seed: args.seed()?,
                ..commands::LoadOptions::default()
            };
            options.addr = args.flags.get("addr").cloned();
            if args.flags.contains_key("tenants") {
                options.tenants = args.get_usize("tenants")?;
            }
            if args.flags.contains_key("queries") {
                options.queries = args.get_usize("queries")?;
            }
            if args.flags.contains_key("panel") {
                options.panel = args.get_usize("panel")?;
            }
            if args.flags.contains_key("window") {
                options.window = args.get_usize("window")?;
            }
            if args.flags.contains_key("cap") {
                options.cap = args.get_usize("cap")?;
            }
            if let Some(v) = args.flags.get("adaptive") {
                options.adaptive = v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --adaptive: {e}")))?;
            }
            options.metrics_out = args.flags.get("metrics-out").map(PathBuf::from);
            options.obs_addr = args.flags.get("obs-addr").cloned();
            if let Some(v) = args.flags.get("obs-linger") {
                options.obs_linger_s = v
                    .parse()
                    .map_err(|e| Error::Usage(format!("bad --obs-linger: {e}")))?;
            }
            options.trace_out = args.flags.get("trace-out").map(PathBuf::from);
            print!("{}", commands::load(&options)?);
        }
        other => {
            return Err(Error::Usage(format!("unknown command {other:?}")));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

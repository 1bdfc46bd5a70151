//! The workloads, their shared serving geometry, and the seeded payload
//! pool with its sequential ground truth.

use std::sync::Arc;

use softermax::kernel::{KernelRegistry, ScratchBuffers, SoftmaxKernel};
use softermax_serve::{Priority, RoutePolicy, ServeConfig, ShardedRouter, Submission};
use softermax_wire::{SubmitRequest, WirePriority};

use crate::inputs::{self, Class, Rng, Spec};

/// The registry kernels every workload cycles through, in registry order.
pub const KERNELS: [&str; 8] = [
    "reference-e",
    "reference-2",
    "online-e",
    "online-2",
    "online-intmax",
    "fp16",
    "lut8",
    "softermax",
];

/// Serving geometry shared by the spawned server and the in-process
/// router: 2 shards (so work stealing and adaptive routing stay active)
/// of 1 worker each, 2 workers in all.
pub const SHARDS: usize = 2;
pub const THREADS_PER_SHARD: usize = 1;
pub const QUEUE_DEPTH: usize = 64;
/// The server's per-connection reply window (its default).
pub const SERVER_WINDOW: usize = 32;
/// Requests a closed loop keeps in flight.
pub const PIPELINE_WINDOW: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop over one Unix-socket connection to a spawned server.
    Remote,
    /// Closed loop against an in-process router.
    Local,
}

/// One payload pool: `count` seeded matrices of `rows × row_len`.
#[derive(Debug, Clone, Copy)]
pub struct PoolSpec {
    pub rows: usize,
    pub row_len: usize,
    pub count: usize,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub pool: PoolSpec,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "remote-small",
        kind: Kind::Remote,
        pool: PoolSpec {
            rows: 16,
            row_len: 128,
            count: 16,
        },
    },
    Workload {
        name: "local-long",
        kind: Kind::Local,
        pool: PoolSpec {
            rows: 8,
            row_len: 4096,
            count: 8,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The in-process router with the server's geometry.
pub fn local_router() -> softermax::Result<ShardedRouter> {
    let config = ServeConfig::new(THREADS_PER_SHARD).with_queue_depth(QUEUE_DEPTH);
    ShardedRouter::new(SHARDS, config, RoutePolicy::Adaptive)
}

pub struct Pool {
    pub row_len: usize,
    pub payloads: Vec<Vec<f64>>,
    /// `truth[payload][kernel]`: sequential `forward_into`, row by row.
    pub truth: Vec<Vec<Vec<f64>>>,
}

impl Pool {
    pub fn elems(&self) -> usize {
        self.payloads[0].len()
    }

    pub fn rows(&self) -> usize {
        self.elems() / self.row_len
    }
}

/// The kernels and the seeded payloads of one run, with ground truth.
pub struct Ctx {
    pub kernels: Vec<Arc<dyn SoftmaxKernel>>,
    pub pool: Pool,
}

impl Ctx {
    /// Generates the payloads from `seed` and precomputes ground truth.
    pub fn build(workload: &Workload, seed: u64) -> Result<Ctx, String> {
        let registry = KernelRegistry::global();
        let kernels = KERNELS
            .iter()
            .map(|name| {
                registry
                    .get(name)
                    .ok_or_else(|| format!("kernel '{name}' is not registered"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spec = workload.pool;
        let mut rng = Rng::stream(seed, 100);
        let payloads: Vec<Vec<f64>> = (0..spec.count)
            .map(|_| inputs::payload(&mut rng, spec.rows * spec.row_len))
            .collect();
        let truth = payloads
            .iter()
            .map(|p| {
                kernels
                    .iter()
                    .map(|k| ground_truth(k.as_ref(), p, spec.row_len))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pool = Pool {
            row_len: spec.row_len,
            payloads,
            truth,
        };
        Ok(Ctx { kernels, pool })
    }

    pub fn truth(&self, spec: &Spec) -> &[f64] {
        &self.pool.truth[spec.payload][spec.kernel]
    }

    /// The in-process request for `spec` (the payload is copied: the
    /// router takes ownership).
    pub fn submission(&self, spec: &Spec) -> Submission {
        let pool = &self.pool;
        let mut s = Submission::new(
            &self.kernels[spec.kernel],
            pool.payloads[spec.payload].clone(),
            pool.row_len,
        )
        .with_priority(match spec.class {
            Class::Interactive => Priority::Interactive,
            Class::Batch => Priority::Batch,
        });
        if let Some(chunk) = spec.stream_chunk {
            s = s.streamed(chunk);
        }
        if let Some(deadline) = spec.deadline {
            s = s.with_deadline(deadline);
        }
        s
    }

    /// The wire request for `spec`.
    pub fn wire_request(&self, spec: &Spec, id: u64) -> Result<SubmitRequest, String> {
        let pool = &self.pool;
        let mut r = SubmitRequest::build(
            id,
            KERNELS[spec.kernel],
            &pool.payloads[spec.payload],
            pool.row_len,
        )
        .map_err(|e| e.to_string())?
        .with_priority(match spec.class {
            Class::Interactive => WirePriority::Interactive,
            Class::Batch => WirePriority::Batch,
        });
        if let Some(chunk) = spec.stream_chunk {
            r = r.streamed(chunk).map_err(|e| e.to_string())?;
        }
        if let Some(deadline) = spec.deadline {
            r = r
                .with_deadline_ms(deadline.as_millis() as u64)
                .map_err(|e| e.to_string())?;
        }
        Ok(r)
    }
}

/// Sequential, row-by-row `forward_into`: the reference every reply is
/// bit-compared against.
fn ground_truth(
    kernel: &dyn SoftmaxKernel,
    rows: &[f64],
    row_len: usize,
) -> Result<Vec<f64>, String> {
    let mut out = vec![0.0; rows.len()];
    let mut scratch = ScratchBuffers::new();
    for (row, out_row) in rows
        .chunks_exact(row_len)
        .zip(out.chunks_exact_mut(row_len))
    {
        kernel
            .forward_into(row, out_row, &mut scratch)
            .map_err(|e| format!("ground truth for {}: {e}", kernel.name()))?;
    }
    Ok(out)
}

/// Bit-for-bit equality of two probability vectors.
pub fn bit_equal(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

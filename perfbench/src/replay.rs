//! Replays of the served traffic through single layers, after the timed
//! phase, on one thread: the kernels through `forward_batch_into` and
//! `stream_session`, and the wire codec through `encode_frame` and
//! `read_frame` on the workload's exact frames.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use softermax::kernel::BatchScratch;
use softermax_wire::{encode_frame, read_frame, Frame, SubmitReply};

use crate::inputs::Spec;
use crate::trace::Tracer;
use crate::workload::{bit_equal, Ctx, KERNELS};

/// Minimum replay time per (kernel, path) combination.
const KERNEL_REPLAY: Duration = Duration::from_millis(4);
/// Minimum codec replay time.
const WIRE_REPLAY: Duration = Duration::from_millis(100);
/// The codec replays the first this many requests of the plan.
const WIRE_FRAMES: usize = 32;

pub struct KernelCosts {
    /// Served-traffic-weighted ns per element, by kernel.
    pub ns_per_elem: [f64; KERNELS.len()],
    /// Estimated kernel time of all served requests: each combination's
    /// replayed ns per element times the elements it served.
    pub served_ns: f64,
}

/// Replays every served `(kernel, stream chunk)` combination and
/// bit-checks each replayed output.
pub fn kernels(
    ctx: &Ctx,
    served: &BTreeMap<(usize, Option<usize>), u64>,
    tracer: &mut Tracer,
) -> Result<KernelCosts, String> {
    let pool = &ctx.pool;
    let mut ns = [0.0; KERNELS.len()];
    let mut elems = [0.0; KERNELS.len()];
    let mut scratch = BatchScratch::new();
    for (combo, (&(k, chunk), &count)) in served.iter().enumerate() {
        let kernel = &ctx.kernels[k];
        let mut session = kernel.stream_session();
        let mut out = vec![0.0; pool.elems()];
        let (mut spent, mut done) = (Duration::ZERO, 0usize);
        while spent < KERNEL_REPLAY || done < pool.payloads.len() {
            let p = done % pool.payloads.len();
            let rows = &pool.payloads[p];
            let span = tracer.root(true, "kernel.replay", combo as u64, tracer.now_ns());
            let t0 = Instant::now();
            match chunk {
                None => kernel
                    .forward_batch_into(rows, pool.row_len, &mut out, &mut scratch)
                    .map_err(|e| e.to_string())?,
                Some(chunk) => {
                    for (row, out_row) in rows
                        .chunks_exact(pool.row_len)
                        .zip(out.chunks_exact_mut(pool.row_len))
                    {
                        session.reset(pool.row_len);
                        for piece in row.chunks(chunk) {
                            session.push_chunk(piece);
                        }
                        session.finish_into(out_row).map_err(|e| e.to_string())?;
                    }
                }
            }
            spent += t0.elapsed();
            tracer.close(span);
            if !bit_equal(&out, &pool.truth[p][k]) {
                return Err(format!("kernel replay of {} is not bit-exact", KERNELS[k]));
            }
            done += 1;
        }
        let per_elem = spent.as_nanos() as f64 / (done * pool.elems()) as f64;
        let served_elems = (count as usize * pool.elems()) as f64;
        ns[k] += per_elem * served_elems;
        elems[k] += served_elems;
    }
    let mut ns_per_elem = [0.0; KERNELS.len()];
    for k in 0..KERNELS.len() {
        if elems[k] > 0.0 {
            ns_per_elem[k] = ns[k] / elems[k];
        }
    }
    Ok(KernelCosts {
        ns_per_elem,
        served_ns: ns.iter().sum(),
    })
}

/// Codec cost and size of one request/reply pair, in µs and bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCosts {
    pub submit_encode_us: f64,
    pub submit_decode_us: f64,
    pub reply_encode_us: f64,
    pub reply_decode_us: f64,
    pub request_bytes: f64,
    pub reply_bytes: f64,
    /// Raw little-endian `f64` bytes of the scores one frame carries.
    pub payload_bytes: f64,
}

fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    req: u64,
    spent: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let span = tracer.root(true, name, req, tracer.now_ns());
    let t0 = Instant::now();
    let out = f();
    *spent += t0.elapsed();
    tracer.close(span);
    out
}

/// Replays the codec on the first [`WIRE_FRAMES`] requests of `plan`,
/// as the workload built them, for at least [`WIRE_REPLAY`]; returns the
/// mean per request.
pub fn wire(ctx: &Ctx, plan: &[Spec], tracer: &mut Tracer) -> Result<WireCosts, String> {
    let specs = &plan[..plan.len().min(WIRE_FRAMES)];
    let mut t = [Duration::ZERO; 4];
    let mut sum = WireCosts::default();
    let started = Instant::now();
    let mut frames = 0usize;
    while frames < specs.len() || started.elapsed() < WIRE_REPLAY {
        let spec = &specs[frames % specs.len()];
        let id = frames as u64;
        let request = ctx.wire_request(spec, id)?;
        let scores =
            softermax_wire::types::scores_from_f64(ctx.truth(spec)).map_err(|e| e.to_string())?;
        let submit = Frame::Submit(request);
        let reply = Frame::SubmitReply(SubmitReply {
            id,
            result: Ok(scores),
        });
        let bytes = timed(tracer, "wire.submit_encode", id, &mut t[0], || {
            encode_frame(&submit)
        })
        .map_err(|e| e.to_string())?;
        let decoded = timed(tracer, "wire.submit_decode", id, &mut t[1], || {
            read_frame(&mut bytes.as_slice())
        })
        .map_err(|e| e.to_string())?;
        let reply_bytes = timed(tracer, "wire.reply_encode", id, &mut t[2], || {
            encode_frame(&reply)
        })
        .map_err(|e| e.to_string())?;
        let reply_back = timed(tracer, "wire.reply_decode", id, &mut t[3], || {
            read_frame(&mut reply_bytes.as_slice())
        })
        .map_err(|e| e.to_string())?;
        if decoded != submit || reply_back != reply {
            return Err("wire replay did not round-trip".into());
        }
        sum.request_bytes += bytes.len() as f64;
        sum.reply_bytes += reply_bytes.len() as f64;
        frames += 1;
    }
    let n = frames as f64;
    Ok(WireCosts {
        submit_encode_us: t[0].as_nanos() as f64 / 1e3 / n,
        submit_decode_us: t[1].as_nanos() as f64 / 1e3 / n,
        reply_encode_us: t[2].as_nanos() as f64 / 1e3 / n,
        reply_decode_us: t[3].as_nanos() as f64 / 1e3 / n,
        request_bytes: sum.request_bytes / n,
        reply_bytes: sum.reply_bytes / n,
        payload_bytes: (ctx.pool.elems() * 8) as f64,
    })
}

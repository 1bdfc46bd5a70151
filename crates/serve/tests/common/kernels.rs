//! Purpose-built kernels the serving suites stage their scenarios with:
//! a gate that parks forward calls until released (so "A executes while
//! B is queued" is deterministic instead of timing-dependent), a kernel
//! that errors on NaN (the built-in kernels saturate or propagate NaN
//! instead), and a kernel that sleeps per row.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use softermax::kernel::{
    BaseKind, BufferedSession, KernelDescriptor, NormalizationKind, SoftmaxKernel, StreamSession,
    StreamingClass,
};
use softermax::{reference, Result, SoftmaxError};

/// A base-e three-pass descriptor named `name`.
pub fn descriptor(name: &str) -> KernelDescriptor {
    KernelDescriptor {
        name: name.to_string(),
        aliases: vec![],
        base: BaseKind::E,
        normalization: NormalizationKind::ThreePass,
        bitwidth: None,
        input_passes: 2,
        streaming: StreamingClass::Buffered,
        mass_tol_abs: 1e-9,
        mass_tol_per_element: 0.0,
    }
}

/// Parks forward calls until released.
#[derive(Debug, Default)]
pub struct Gate {
    inner: Mutex<GateInner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateInner {
    entered: usize,
    released: bool,
}

impl Gate {
    /// Forward calls that have entered the gate so far.
    pub fn entered(&self) -> usize {
        self.inner.lock().expect("gate").entered
    }

    /// Blocks until `n` forward calls have entered the gate.
    pub fn wait_entered(&self, n: usize) {
        let mut g = self.inner.lock().expect("gate");
        while g.entered < n {
            g = self.cv.wait(g).expect("gate");
        }
    }

    /// Lets every parked (and future) forward call through.
    pub fn release(&self) {
        let mut g = self.inner.lock().expect("gate");
        g.released = true;
        self.cv.notify_all();
    }

    /// Called from inside a kernel: announce entry, park until release.
    pub fn pass(&self) {
        let mut g = self.inner.lock().expect("gate");
        g.entered += 1;
        self.cv.notify_all();
        while !g.released {
            g = self.cv.wait(g).expect("gate");
        }
    }
}

/// Errors on rows holding a NaN score and serves the rest with the
/// exact base-e reference, so a test drives failures and successes from
/// the input alone. With a gate, every call first parks on it.
#[derive(Debug)]
pub struct NanRejectingKernel {
    descriptor: KernelDescriptor,
    gate: Option<Arc<Gate>>,
}

impl NanRejectingKernel {
    pub fn new() -> Self {
        Self {
            descriptor: descriptor("nan-rejecting"),
            gate: None,
        }
    }

    pub fn gated(gate: &Arc<Gate>) -> Self {
        Self {
            gate: Some(Arc::clone(gate)),
            ..Self::new()
        }
    }
}

impl SoftmaxKernel for NanRejectingKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        if row.iter().any(|v| v.is_nan()) {
            return Err(SoftmaxError::InvalidConfig("NaN score".to_string()));
        }
        reference::softmax(row)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

/// Sleeps per row — slow enough to hold an admission queue full while a
/// test probes backpressure.
#[derive(Debug)]
pub struct SlowKernel {
    descriptor: KernelDescriptor,
    per_row: Duration,
}

impl SlowKernel {
    pub fn new(per_row: Duration) -> Self {
        Self {
            descriptor: descriptor("slow"),
            per_row,
        }
    }
}

impl SoftmaxKernel for SlowKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        &self.descriptor
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>> {
        std::thread::sleep(self.per_row);
        reference::softmax(row)
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(BufferedSession::new(self))
    }
}

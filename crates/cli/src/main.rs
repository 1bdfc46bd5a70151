//! `softermax` — command-line interface to the reproduction.
//!
//! ```text
//! softermax softmax  [--backend <kernel-name>] 2 1 3
//! softermax compare  2 1 3            # every registered backend side by side
//! softermax kernels                   # list the SoftmaxKernel registry
//! softermax attention [--seq 64] [--streaming]   # tiled vs materialized; seq, dim <= 4096
//! softermax hw       [--width 16|32] [--seq 384]   # seq <= 2^20
//! softermax config                    # print the paper configuration
//! ```

// No unsafe code in this crate, enforced by the compiler; the
// workspace-wide unsafe audit lives in `softermax-analysis`.
#![forbid(unsafe_code)]

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}

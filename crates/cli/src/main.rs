//! `tpupoint` — command-line interface to the TPUPoint toolchain.
//!
//! ```text
//! tpupoint workloads
//! tpupoint profile  --workload dcgan-cifar10 --generation v2 --out out/
//! tpupoint analyze  out/records --threshold 0.7 --algorithm ols
//! tpupoint optimize --workload qanet-squad --naive
//! tpupoint audit    out/records
//! ```

mod args;
mod commands;
mod obs;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

//! `tpupoint` — command-line interface to the TPUPoint toolchain.
//!
//! ```text
//! tpupoint workloads
//! tpupoint profile  --workload dcgan-cifar10 --generation v2 --out out/
//! tpupoint analyze  out/records --threshold 0.7 --algorithm ols
//! tpupoint optimize --workload qanet-squad --naive
//! tpupoint audit    out/records
//! ```

use std::io::Write as _;
use std::process::ExitCode;

/// Writes formatted text to stdout. Every line the CLI prints goes
/// through here and returns the write's result: a reader that goes away
/// (`tpupoint analyze ... | head -1`) ends the command instead of
/// panicking it, as `print!` would.
fn write_out(text: std::fmt::Arguments) -> std::io::Result<()> {
    std::io::stdout().lock().write_fmt(text)
}

/// [`write_out`] with `print!`'s arguments.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_out(format_args!($($arg)*))
    };
}

/// [`write_out`] with `println!`'s arguments.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod obs;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader took what it wanted and left: not a failure.
        Err(commands::CliError::Output(err)) if err.kind() == std::io::ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

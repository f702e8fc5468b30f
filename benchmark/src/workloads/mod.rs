//! The four workloads. Each builds its inputs from the seed, measures for
//! the given time and verifies what the program returned.

mod map_hires;
mod place_suite;
mod serve_mix;
mod train_epochs;

use crate::run::{Report, RunArgs};
use crate::spec;

pub fn run(workload: &str, args: &RunArgs) -> Report {
    match workload {
        spec::PLACE => place_suite::run(args),
        spec::MAP => map_hires::run(args),
        spec::SERVE => serve_mix::run(args),
        spec::TRAIN => train_epochs::run(args),
        other => unreachable!("workload {other:?} passed CLI validation"),
    }
}

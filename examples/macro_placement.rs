//! The full Fig. 6 flow with stage-by-stage logging: cascade merging,
//! region-aware global placement, congestion prediction + instance
//! inflation, refinement and macro legalization — then verification that
//! every contest constraint holds.
//!
//! ```sh
//! cargo run --release --example macro_placement
//! ```

use mfaplace::fpga::design::DesignPreset;
use mfaplace::placer::flows::RudyPredictor;
use mfaplace::placer::gp::{GlobalPlacer, GpConfig};
use mfaplace::placer::inflate::{inflate_areas, InflationConfig};
use mfaplace::placer::legal::{legalize_cells, legalize_macros};
use mfaplace::placer::CongestionPredictor;

fn main() {
    let design = DesignPreset::design_190()
        .with_scale(256, 32, 16)
        .generate(11);
    println!(
        "flow for {}: {} movables ({} macros, {} cascades, {} regions)",
        design.name,
        design.movable_count(),
        design.netlist.macros().len(),
        design.cascades.len(),
        design.regions.len()
    );

    // Stage 0: cascade merging happens inside the placer constructor.
    let mut gp = GlobalPlacer::new(&design, 11);
    println!(
        "stage 0: cascade merging -> {} movable objects",
        gp.num_movables()
    );

    // Stage 1: region-aware global placement until the overflow targets
    // (Overflow_macro < 0.25, Overflow_cell < 0.15) are met.
    let cfg = GpConfig {
        iterations: 30,
        ..GpConfig::default()
    };
    let (iters, overflow) = gp.run_stage(&cfg);
    println!("stage 1: {iters} GP iterations, overflow {overflow:?}");

    // Stage 2: congestion prediction + instance inflation (Eqs. 11-13).
    let snapshot = gp.placement();
    let mut predictor = RudyPredictor::default();
    let congestion = predictor.predict(&design, &snapshot, 32, 32);
    println!(
        "stage 2: predicted congestion peak level {:.2}",
        congestion.max()
    );
    let stats = inflate_areas(
        &design,
        &snapshot,
        &congestion,
        gp.areas_mut(),
        &InflationConfig::default(),
    );
    println!(
        "         inflated {} instances by {:.1} site units (tau_cell {:.2})",
        stats.inflated_instances, stats.added_area, stats.tau_cell
    );
    let (_, overflow) = gp.run_stage(&GpConfig {
        iterations: 15,
        ..GpConfig::default()
    });
    println!("         refinement overflow {overflow:?}");

    // Stage 3: legalization.
    let mut placement = gp.placement();
    legalize_macros(&design, &mut placement).expect("macro legalization");
    legalize_cells(&design, &mut placement);

    // Verify every contest constraint.
    let mut cascade_ok = 0;
    for c in &design.cascades {
        let (x0, y0) = placement.pos(c.members[0].0 as usize);
        let ok = c.members.iter().enumerate().all(|(k, &m)| {
            let (x, y) = placement.pos(m.0 as usize);
            x == x0 && (y - (y0 + k as f32)).abs() < 1e-6
        });
        cascade_ok += usize::from(ok);
    }
    println!(
        "stage 3: legalized; {}/{} cascades on consecutive ordered sites",
        cascade_ok,
        design.cascades.len()
    );
    let mut region_ok = 0usize;
    let mut region_total = 0usize;
    for (ri, r) in design.regions.iter().enumerate() {
        for &m in &r.members {
            if design.region_of(m) != Some(ri) {
                continue;
            }
            region_total += 1;
            let (x, y) = placement.pos(m.0 as usize);
            region_ok += usize::from(r.rect.contains(x, y));
        }
    }
    println!("         {region_ok}/{region_total} region-bound instances inside their regions");
    println!("final HPWL = {:.0}", placement.hpwl(&design.netlist));
}

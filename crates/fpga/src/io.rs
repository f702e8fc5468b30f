//! Text interchange format for designs and placements (bookshelf-style).
//!
//! Real EDA flows exchange netlists and placements through text formats
//! (Bookshelf `.nodes/.nets/.pl`, the MLCAD contest's interface files).
//! This module provides an equivalent single-file format so designs
//! generated here can be inspected, diffed and re-loaded:
//!
//! ```text
//! mfaplace-netlist v1
//! arch <columns> <rows> <clb_luts> <clb_ffs>
//! colkind <x> <DSP|BRAM|URAM>          # non-CLB columns only
//! inst <kind> <movable>                # one per line, id = line order
//! net <id> <id> ...
//! cascade <DSP|BRAM|URAM> <id> ...
//! region <x0> <y0> <x1> <y1> <id> ...
//! anchor <id> <x> <y>
//! name <design name>
//! stats <luts> <ffs> <dsps> <brams>
//! ```
//!
//! Placements use `placement v1` followed by `pl <id> <x> <y>` lines.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::arch::{ClbCapacity, FpgaArch, SiteKind};
use crate::constraint::{CascadeShape, Rect, RegionConstraint};
use crate::design::Design;
use crate::netlist::{InstId, InstKind, Netlist};
use crate::placement::Placement;

/// Error parsing the interchange format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseDesignError {}

fn err(line: usize, message: impl Into<String>) -> ParseDesignError {
    ParseDesignError {
        line,
        message: message.into(),
    }
}

fn kind_name(kind: InstKind) -> &'static str {
    match kind {
        InstKind::Lut => "LUT",
        InstKind::Ff => "FF",
        InstKind::Dsp => "DSP",
        InstKind::Bram => "BRAM",
        InstKind::Uram => "URAM",
    }
}

fn parse_kind(s: &str, line: usize) -> Result<InstKind, ParseDesignError> {
    match s {
        "LUT" => Ok(InstKind::Lut),
        "FF" => Ok(InstKind::Ff),
        "DSP" => Ok(InstKind::Dsp),
        "BRAM" => Ok(InstKind::Bram),
        "URAM" => Ok(InstKind::Uram),
        _ => Err(err(line, format!("unknown instance kind {s:?}"))),
    }
}

fn parse_site_kind(s: &str, line: usize) -> Result<SiteKind, ParseDesignError> {
    match s {
        "CLB" => Ok(SiteKind::Clb),
        "DSP" => Ok(SiteKind::Dsp),
        "BRAM" => Ok(SiteKind::Bram),
        "URAM" => Ok(SiteKind::Uram),
        _ => Err(err(line, format!("unknown site kind {s:?}"))),
    }
}

fn parse_num<T: FromStr>(s: &str, line: usize, what: &str) -> Result<T, ParseDesignError> {
    s.parse()
        .map_err(|_| err(line, format!("invalid {what}: {s:?}")))
}

/// Serializes a design to the interchange text format.
pub fn write_design(design: &Design) -> String {
    let mut out = String::new();
    out.push_str("mfaplace-netlist v1\n");
    let cap = design.arch.clb_capacity();
    out.push_str(&format!(
        "arch {} {} {} {}\n",
        design.arch.columns(),
        design.arch.rows(),
        cap.luts,
        cap.ffs
    ));
    for x in 0..design.arch.columns() {
        let kind = design.arch.column_kind(x);
        if kind != SiteKind::Clb {
            out.push_str(&format!("colkind {x} {kind}\n"));
        }
    }
    for (_, inst) in design.netlist.instances() {
        out.push_str(&format!(
            "inst {} {}\n",
            kind_name(inst.kind),
            u8::from(inst.movable)
        ));
    }
    for (_, net) in design.netlist.nets() {
        out.push_str("net");
        for &p in &net.pins {
            out.push_str(&format!(" {}", p.0));
        }
        out.push('\n');
    }
    for c in &design.cascades {
        out.push_str(&format!("cascade {}", c.site_kind));
        for &m in &c.members {
            out.push_str(&format!(" {}", m.0));
        }
        out.push('\n');
    }
    for r in &design.regions {
        out.push_str(&format!(
            "region {} {} {} {}",
            r.rect.x0, r.rect.y0, r.rect.x1, r.rect.y1
        ));
        for &m in &r.members {
            out.push_str(&format!(" {}", m.0));
        }
        out.push('\n');
    }
    for &(id, x, y) in &design.io_anchors {
        out.push_str(&format!("anchor {} {x} {y}\n", id.0));
    }
    out.push_str(&format!("name {}\n", design.name));
    let (l, f, d, b) = design.paper_stats;
    out.push_str(&format!("stats {l} {f} {d} {b}\n"));
    out
}

/// Parses a design from the interchange text format.
///
/// # Errors
///
/// Returns [`ParseDesignError`] with a line number on any malformed input.
pub fn read_design(text: &str) -> Result<Design, ParseDesignError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty file"))?;
    if header.trim() != "mfaplace-netlist v1" {
        return Err(err(1, "missing `mfaplace-netlist v1` header"));
    }

    let mut arch: Option<(usize, usize, ClbCapacity)> = None;
    let mut col_overrides: Vec<(usize, SiteKind)> = Vec::new();
    let mut netlist = Netlist::new();
    let mut cascades = Vec::new();
    let mut regions = Vec::new();
    let mut io_anchors = Vec::new();
    let mut name = String::from("unnamed");
    let mut paper_stats = (0usize, 0usize, 0usize, 0usize);

    for (i, raw) in lines {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line");
        let rest: Vec<&str> = parts.collect();
        match tag {
            "arch" => {
                if rest.len() != 4 {
                    return Err(err(ln, "arch needs `columns rows clb_luts clb_ffs`"));
                }
                arch = Some((
                    parse_num(rest[0], ln, "columns")?,
                    parse_num(rest[1], ln, "rows")?,
                    ClbCapacity {
                        luts: parse_num(rest[2], ln, "clb luts")?,
                        ffs: parse_num(rest[3], ln, "clb ffs")?,
                    },
                ));
            }
            "colkind" => {
                if rest.len() != 2 {
                    return Err(err(ln, "colkind needs `x kind`"));
                }
                col_overrides.push((
                    parse_num(rest[0], ln, "column index")?,
                    parse_site_kind(rest[1], ln)?,
                ));
            }
            "inst" => {
                if rest.len() != 2 {
                    return Err(err(ln, "inst needs `kind movable`"));
                }
                let kind = parse_kind(rest[0], ln)?;
                let movable: u8 = parse_num(rest[1], ln, "movable flag")?;
                netlist.add_instance(kind, movable != 0);
            }
            "net" => {
                if rest.len() < 2 {
                    return Err(err(ln, "net needs at least two pins"));
                }
                let mut pins = Vec::with_capacity(rest.len());
                for p in &rest {
                    let id: u32 = parse_num(p, ln, "pin id")?;
                    if id as usize >= netlist.num_instances() {
                        return Err(err(ln, format!("pin id {id} out of range")));
                    }
                    pins.push(InstId(id));
                }
                netlist.add_net(pins);
            }
            "cascade" => {
                if rest.len() < 3 {
                    return Err(err(ln, "cascade needs `kind id id...`"));
                }
                let site_kind = parse_site_kind(rest[0], ln)?;
                let members = rest[1..]
                    .iter()
                    .map(|p| parse_num::<u32>(p, ln, "cascade member").map(InstId))
                    .collect::<Result<Vec<_>, _>>()?;
                cascades.push(CascadeShape { members, site_kind });
            }
            "region" => {
                if rest.len() < 5 {
                    return Err(err(ln, "region needs `x0 y0 x1 y1 id...`"));
                }
                let rect = Rect::new(
                    parse_num(rest[0], ln, "x0")?,
                    parse_num(rest[1], ln, "y0")?,
                    parse_num(rest[2], ln, "x1")?,
                    parse_num(rest[3], ln, "y1")?,
                );
                let members = rest[4..]
                    .iter()
                    .map(|p| parse_num::<u32>(p, ln, "region member").map(InstId))
                    .collect::<Result<Vec<_>, _>>()?;
                regions.push(RegionConstraint { rect, members });
            }
            "anchor" => {
                if rest.len() != 3 {
                    return Err(err(ln, "anchor needs `id x y`"));
                }
                io_anchors.push((
                    InstId(parse_num(rest[0], ln, "anchor id")?),
                    parse_num(rest[1], ln, "anchor x")?,
                    parse_num(rest[2], ln, "anchor y")?,
                ));
            }
            "name" => {
                name = rest.join(" ");
            }
            "stats" => {
                if rest.len() != 4 {
                    return Err(err(ln, "stats needs four counts"));
                }
                paper_stats = (
                    parse_num(rest[0], ln, "lut count")?,
                    parse_num(rest[1], ln, "ff count")?,
                    parse_num(rest[2], ln, "dsp count")?,
                    parse_num(rest[3], ln, "bram count")?,
                );
            }
            _ => return Err(err(ln, format!("unknown directive {tag:?}"))),
        }
    }

    let (columns, rows, cap) = arch.ok_or_else(|| err(1, "missing arch line"))?;
    let mut cols = vec![SiteKind::Clb; columns];
    for (x, kind) in col_overrides {
        if x >= columns {
            return Err(err(1, format!("colkind index {x} out of range")));
        }
        cols[x] = kind;
    }
    let arch = FpgaArch::new(cols, rows, cap);
    // The interchange format does not carry cluster assignments.
    let cluster_of = vec![0u32; netlist.num_instances()];
    Ok(Design {
        name,
        arch,
        netlist,
        cascades,
        regions,
        io_anchors,
        paper_stats,
        cluster_of,
    })
}

/// Serializes a placement (only the coordinates).
pub fn write_placement(placement: &Placement) -> String {
    let mut out = String::from("placement v1\n");
    for i in 0..placement.len() {
        let (x, y) = placement.pos(i);
        out.push_str(&format!("pl {i} {x} {y}\n"));
    }
    out
}

/// Parses a placement written by [`write_placement`].
///
/// # Errors
///
/// Returns [`ParseDesignError`] on malformed input.
pub fn read_placement(text: &str) -> Result<Placement, ParseDesignError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty file"))?;
    if header.trim() != "placement v1" {
        return Err(err(1, "missing `placement v1` header"));
    }
    let mut coords: Vec<(usize, f32, f32)> = Vec::new();
    for (i, raw) in lines {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 4 || parts[0] != "pl" {
            return Err(err(ln, "expected `pl id x y`"));
        }
        let id = parse_num(parts[1], ln, "instance id")?;
        let x: f32 = parse_num(parts[2], ln, "x")?;
        let y: f32 = parse_num(parts[3], ln, "y")?;
        // `f32::from_str` accepts `nan` and `inf`; a net whose pins are all
        // non-finite has no bounding box.
        if !(x.is_finite() && y.is_finite()) {
            return Err(err(ln, "non-finite coordinate"));
        }
        coords.push((id, x, y));
    }
    let n = coords.iter().map(|&(i, _, _)| i + 1).max().unwrap_or(0);
    let mut p = Placement::new(n);
    for (i, x, y) in coords {
        p.set_pos(i, x, y);
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPreset;

    #[test]
    fn design_round_trip() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let text = write_design(&d);
        let back = read_design(&text).expect("parse");
        assert_eq!(back.name, d.name);
        assert_eq!(back.netlist.num_instances(), d.netlist.num_instances());
        assert_eq!(back.netlist.num_nets(), d.netlist.num_nets());
        assert_eq!(back.cascades, d.cascades);
        assert_eq!(back.regions.len(), d.regions.len());
        assert_eq!(back.io_anchors, d.io_anchors);
        assert_eq!(back.paper_stats, d.paper_stats);
        assert_eq!(back.arch, d.arch);
        // nets content identical
        for ((_, a), (_, b)) in back.netlist.nets().zip(d.netlist.nets()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn placement_round_trip() {
        let d = DesignPreset::design_120()
            .with_scale(512, 64, 32)
            .generate(2);
        let p = d.random_placement(3);
        let text = write_placement(&p);
        let back = read_placement(&text).expect("parse");
        assert_eq!(back.len(), p.len());
        for i in 0..p.len() {
            assert_eq!(back.pos(i), p.pos(i));
        }
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity"] {
            for text in [
                format!("placement v1\npl 0 1.5 2\npl 1 {bad} 2\n"),
                format!("placement v1\npl 0 1.5 2\npl 1 2 {bad}\n"),
            ] {
                let e = read_placement(&text).unwrap_err();
                assert!(e.message.contains("non-finite"), "{bad}: {e}");
                assert_eq!(e.line, 3, "{bad}");
            }
        }
        assert!(read_placement("placement v1\npl 0 -0.0 1e30\n").is_ok());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_design("bogus\n").is_err());
        assert!(read_placement("bogus\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_pin() {
        let text = "mfaplace-netlist v1\narch 4 4 8 16\ninst LUT 1\ninst LUT 1\nnet 0 5\n";
        let e = read_design(text).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!(e.line, 5);
    }

    #[test]
    fn rejects_unknown_directive() {
        let text = "mfaplace-netlist v1\narch 4 4 8 16\nfrobnicate 1 2\n";
        let e = read_design(text).unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "mfaplace-netlist v1\narch 4 4 8 16\ninst LUT x\n";
        let e = read_design(text).unwrap_err();
        assert_eq!(e.line, 3);
    }
}

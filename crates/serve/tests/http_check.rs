//! Randomized robustness tests for the HTTP parser and the binary wire
//! codecs, driven by `mfaplace_rt::check`: whatever bytes arrive, the
//! parser must return a typed error or a valid request — never panic,
//! never allocate unboundedly. The last test holds the text side of
//! `/predict/design` to the same rule over a real socket.

use std::sync::Arc;

use mfaplace_core::loader::{init_checkpoint, LoadOptions};
use mfaplace_fpga::design::DesignPreset;
use mfaplace_fpga::io;
use mfaplace_models::{Arch, ArchSpec};
use mfaplace_rt::check::{run_cases, vec_u8};
use mfaplace_rt::rng::Rng;
use mfaplace_serve::http::{HttpError, Request};
use mfaplace_serve::{client, protocol, serve, Metrics, ModelSlot, ServeConfig};

const MAX_BODY: usize = 1 << 20;

fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
    Request::read_from(&mut &bytes[..], MAX_BODY)
}

#[test]
fn random_bytes_never_panic_the_parser() {
    run_cases("http_random_bytes", 64, 0x4774, |_case, rng| {
        let len = rng.gen_range(0..512usize);
        let bytes = vec_u8(rng, len, 0, 255);
        let _ = parse(&bytes);
    });
}

#[test]
fn random_ascii_soup_never_panics() {
    run_cases("http_ascii_soup", 64, 0x4775, |_case, rng| {
        let len = rng.gen_range(0..2048usize);
        // Printable ASCII plus CR/LF so header structure appears by chance.
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => b'\r',
                1 => b'\n',
                2 => b' ',
                3 => b':',
                _ => rng.gen_range(33..127u32) as u8,
            })
            .collect();
        let _ = parse(&bytes);
    });
}

#[test]
fn truncating_a_valid_request_gives_typed_errors() {
    let full = b"POST /predict HTTP/1.1\r\ncontent-type: application/octet-stream\r\ncontent-length: 16\r\n\r\n0123456789abcdef";
    assert!(parse(full).is_ok());
    run_cases("http_truncation", 64, 0x4776, |_case, rng| {
        let cut = rng.gen_range(0..full.len());
        match parse(&full[..cut]) {
            Ok(req) => {
                // Only possible when the cut removed body bytes but the
                // header survived — impossible here because content-length
                // then exceeds what remains.
                panic!("truncated request unexpectedly parsed: {req:?}");
            }
            Err(HttpError::BadRequest(_)) => {}
            Err(other) => panic!("want BadRequest, got {other:?}"),
        }
    });
}

#[test]
fn corrupted_headers_reject_without_panic() {
    let full = b"GET /metrics HTTP/1.1\r\nhost: localhost\r\n\r\n".to_vec();
    run_cases("http_corruption", 128, 0x4777, |_case, rng| {
        let mut bytes = full.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.gen_range(0..=255u32) as u8;
        // Either still parses (benign corruption) or rejects cleanly.
        let _ = parse(&bytes);
    });
}

#[test]
fn oversized_declared_bodies_rejected_as_too_large() {
    run_cases("http_oversize", 16, 0x4778, |_case, rng| {
        let n = MAX_BODY as u64 + rng.gen_range(1..1_000_000u64);
        let req = format!("POST /predict HTTP/1.1\r\ncontent-length: {n}\r\n\r\n");
        match parse(req.as_bytes()) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("want TooLarge, got {other:?}"),
        }
    });
}

#[test]
fn feature_codec_never_panics_on_random_bytes() {
    run_cases("protocol_random", 64, 0x4779, |_case, rng| {
        let len = rng.gen_range(0..256usize);
        let bytes = vec_u8(rng, len, 0, 255);
        let _ = protocol::decode_features(&bytes);
        let _ = protocol::decode_levels(&bytes);
    });
}

#[test]
fn feature_codec_rejects_any_truncation() {
    let t = mfaplace_tensor::Tensor::from_fn(vec![6, 8, 8], |i| i as f32);
    let bytes = protocol::encode_features(&t);
    run_cases("protocol_truncation", 64, 0x477A, |_case, rng| {
        let cut = rng.gen_range(0..bytes.len());
        assert!(
            protocol::decode_features(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must be rejected"
        );
    });
}

/// `f32::from_str` reads `nan` and `inf`, and a net whose pins are all
/// non-finite has no bounding box to rasterize: the placement reader must
/// turn such a body into a 400 that names the line, over a real socket.
#[test]
fn non_finite_placement_coordinates_get_400() {
    let dir = std::env::temp_dir().join("mfaplace_http_check");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("non_finite.mfaw").to_string_lossy().into_owned();
    let mut spec = ArchSpec::new(Arch::UNet, 16);
    spec.base_channels = 2;
    init_checkpoint(&spec, 5, &ckpt).unwrap();
    let metrics = Arc::new(Metrics::new());
    let slot = ModelSlot::load(&ckpt, LoadOptions::default(), metrics.clone()).unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let server = serve(slot, metrics, config).unwrap();
    let addr = server.addr().to_string();

    let design = DesignPreset::design_116()
        .with_scale(512, 64, 32)
        .generate(3);
    let design_text = io::write_design(&design);
    let good = io::write_placement(&design.random_placement(4));
    assert!(client::predict_design(&addr, &design_text, &good).is_ok());

    for bad in ["nan", "inf", "-inf"] {
        // Every instance non-finite: every net's box would be inverted.
        let poisoned: String = good
            .lines()
            .map(
                |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                    ["pl", id, _, _] => format!("pl {id} {bad} {bad}\n"),
                    _ => format!("{line}\n"),
                },
            )
            .collect();
        let body = protocol::encode_design_request(&design_text, &poisoned);
        let r = client::request(&addr, "POST", "/predict/design", &[], body.as_bytes()).unwrap();
        assert_eq!(r.status, 400, "{bad}: {}", r.text());
        assert!(
            r.text().contains("line 2") && r.text().contains("non-finite"),
            "{bad}: {}",
            r.text()
        );
    }

    let r = client::request(&addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    server.join();
}

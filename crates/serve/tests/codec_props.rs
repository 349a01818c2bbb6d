//! Codec properties on *random* message values: the binary encoding
//! round-trips losslessly, and hostile frames (truncated, bit-flipped,
//! garbage) always yield typed [`FrameError`]s — never a panic, never a
//! silent misparse.

use proptest::prelude::*;
use ril_serve::{DesignSpec, ErrorKind, Request, Response, ServerStats};

/// Deterministic splitmix64 step for fanning one sampled seed into values.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn bits(z: &mut u64, n: usize) -> Vec<bool> {
    (0..n).map(|_| splitmix(z) & 1 == 1).collect()
}

/// Random strings mixing plain ASCII, quotes, control characters and
/// multi-byte UTF-8.
fn text(z: &mut u64) -> String {
    const ALPHABET: &[char] = &[
        'a', 'B', '7', '_', ':', ' ', '"', '\\', '\n', '\t', '\r', '{', '}', '/', 'é', '≠',
    ];
    let len = (splitmix(z) % 24) as usize;
    (0..len)
        .map(|_| ALPHABET[(splitmix(z) as usize) % ALPHABET.len()])
        .collect()
}

fn request(z: &mut u64) -> Request {
    match splitmix(z) % 5 {
        0 => Request::Activate {
            design: DesignSpec {
                benchmark: text(z),
                spec: text(z),
                blocks: (splitmix(z) % 8) as usize,
                seed: splitmix(z),
                scan: splitmix(z) & 1 == 1,
                zero_se: splitmix(z) & 1 == 1,
            },
        },
        1 => {
            let n = (splitmix(z) % 130) as usize;
            Request::Query {
                chip: splitmix(z),
                inputs: bits(z, n),
            }
        }
        2 => {
            let width = 1 + (splitmix(z) % 70) as usize;
            Request::QueryBatch {
                chip: splitmix(z),
                patterns: (0..1 + splitmix(z) % 64).map(|_| bits(z, width)).collect(),
            }
        }
        3 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn response(z: &mut u64) -> Response {
    match splitmix(z) % 5 {
        0 => Response::Activated {
            chip: splitmix(z),
            generation: splitmix(z),
            inputs: (splitmix(z) % 200) as usize,
            outputs: (splitmix(z) % 200) as usize,
            key_bits: (splitmix(z) % 200) as usize,
        },
        1 => {
            let n = (splitmix(z) % 130) as usize;
            Response::Outputs {
                bits: bits(z, n),
                generation: splitmix(z),
            }
        }
        2 => {
            let rows = (0..splitmix(z) % 5)
                .map(|_| {
                    let n = 1 + (splitmix(z) % 40) as usize;
                    bits(z, n)
                })
                .collect();
            Response::Batch {
                rows,
                generation: splitmix(z),
            }
        }
        3 => Response::Bye,
        _ => Response::Error {
            kind: ErrorKind::Malformed,
            message: text(z),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary codec is lossless on every message shape.
    #[test]
    fn binary_round_trips_random_messages(seed in any::<u64>()) {
        let mut z = seed;
        let req = request(&mut z);
        let wire = req.encode().unwrap();
        prop_assert_eq!(Request::decode(&wire).unwrap(), req);

        let resp = response(&mut z);
        let wire = resp.encode().unwrap();
        prop_assert_eq!(Response::decode(&wire).unwrap(), resp);
    }

    /// Every strict prefix of a valid binary frame is a typed error —
    /// never a panic, never an accidental parse.
    #[test]
    fn truncated_binary_frames_are_typed_errors(seed in any::<u64>()) {
        let mut z = seed;
        let wire = request(&mut z).encode().unwrap();
        for cut in 0..wire.len() {
            prop_assert!(
                Request::decode(&wire[..cut]).is_err(),
                "prefix of {} / {} bytes decoded",
                cut,
                wire.len()
            );
        }
        let wire = response(&mut z).encode().unwrap();
        for cut in 0..wire.len() {
            prop_assert!(Response::decode(&wire[..cut]).is_err());
        }
    }

    /// Bit-flipped and appended bytes never panic the decoder: it either
    /// rejects with a typed error or decodes *some* well-formed value
    /// (a flip inside a payload bit is legitimately a different message).
    #[test]
    fn corrupted_binary_frames_never_panic(seed in any::<u64>()) {
        let mut z = seed;
        let mut wire = request(&mut z).encode().unwrap();
        // Trailing garbage is always rejected (the decoder demands the
        // cursor land exactly on the end).
        let mut padded = wire.clone();
        padded.extend_from_slice(&[0xFF, 0x00, 0xAB]);
        prop_assert!(Request::decode(&padded).is_err());

        // A random byte flip must not panic; outcome may be either.
        let idx = (splitmix(&mut z) as usize) % wire.len();
        wire[idx] ^= (splitmix(&mut z) % 255 + 1) as u8;
        let _ = Request::decode(&wire);

        // Pure garbage of random length is rejected.
        let garbage: Vec<u8> =
            (0..splitmix(&mut z) % 64).map(|_| (splitmix(&mut z) & 0xFF) as u8).collect();
        if garbage.first() != Some(&ril_serve::codec::BIN_MAGIC) {
            prop_assert!(Request::decode(&garbage).is_err());
        }
    }
}

/// The stats response (control-plane cold path: the binary envelope
/// carries a JSON body) round-trips.
#[test]
fn stats_responses_round_trip() {
    let resp = Response::Stats(ServerStats {
        requests: 1234,
        uptime_s: 5.25,
        qps: 301.5,
        chips: vec![ril_serve::ChipStats {
            chip: 1,
            queries: 99,
            morphs: 3,
            generation: 3,
        }],
        metrics: Default::default(),
    });
    assert_eq!(Response::decode(&resp.encode().unwrap()).unwrap(), resp);
}
